"""Mixture limit laws, distribution tests, fourth-moment bounds, Brownian example."""

import ast
import inspect
import math
import textwrap
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import chaoslab.limits
from chaoslab.fbm import rho
from chaoslab.limits import (
    MixtureSpec,
    berry_esseen_check,
    berry_esseen_coefficient,
    brownian_example_run,
    chaos2_fourth_moment_exact,
    conditional_cf_test,
    kolmogorov_pvalue,
    ks_critical_value,
    ks_two_sample,
    sample_mixture_limit,
)
from chaoslab.variations import sigma_hq
from chaoslab.weights import WeightFunction

from determinism import PINS, normal_cdf_points, sha256, ulp_neighbours

ONE = WeightFunction.polynomial(1.0)


# -- mixture limit sampler -------------------------------------------------------


def _spec(H, weight, **kwargs):
    """The q = 2 mixture law at H, with sigma = sigma_{H,2}."""
    return MixtureSpec(2, H, weight, sigma_hq(H, 2).sigma, **kwargs)


def test_mixture_spec_rejects_a_coarse_n_fine_on_construction():
    with pytest.raises(ValueError, match="n_fine must be at least 1024, got 512"):
        _spec(0.3, ONE, n_fine=512)
    assert _spec(0.3, ONE, n_fine=1024).n_fine == 1024


def test_mixture_constant_weight_is_pure_gaussian():
    # f = 1: S^2 = sigma^2 exactly; values are sigma * Z
    spec = _spec(0.5, ONE, n_fine=1024)
    sample = sample_mixture_limit(spec, 50_000, seed=3)
    sigma_sq = sigma_hq(0.5, 2).sigma_sq
    np.testing.assert_allclose(sample.conditional_variances, sigma_sq, atol=1e-12)
    np.testing.assert_allclose(sample.shifts, 0.0, atol=0)
    z = sample.values / math.sqrt(sigma_sq)
    m = z.size
    assert abs(z.mean()) < 4 / math.sqrt(m)
    assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / m)
    assert abs(float(np.mean(z**4)) - 3.0) < 4 * math.sqrt(96.0 / m)


def test_mixture_standardized_values_are_conditionally_gaussian():
    # dividing by the predicted conditional sd must give exact N(0,1) moments
    spec = _spec(0.3, WeightFunction.polynomial(0.0, 1.0), n_fine=1024)
    sample = sample_mixture_limit(spec, 20_000, seed=5)
    z = sample.values / np.sqrt(sample.conditional_variances)
    m = z.size
    assert abs(z.mean()) < 4 / math.sqrt(m)
    assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / m)
    assert abs(float(np.mean(z**4)) - 3.0) < 4 * math.sqrt(96.0 / m)


def test_mixture_linear_weight_mean_conditional_variance():
    # f = x: E S^2 = sigma^2 E int B^2 = sigma^2 / (2H + 1), up to the
    # left-endpoint Riemann bias of order 1/n_fine.
    H = 0.3
    spec = _spec(H, WeightFunction.polynomial(0.0, 1.0), n_fine=2048)
    sample = sample_mixture_limit(spec, 20_000, seed=7)
    sigma_sq = sigma_hq(H, 2).sigma_sq
    target = sigma_sq / (2.0 * H + 1.0)
    observed = float(sample.conditional_variances.mean())
    se = float(sample.conditional_variances.std(ddof=1)) / math.sqrt(sample.values.size)
    assert abs(observed - target) < 3 * se + sigma_sq / 2048.0


def test_mixture_shift_coupling():
    # shift integral computed from the same path: for f = x^3 and q = 2,
    # shift = c * int f''(B) = 6c int B, whose correlation with
    # S^2 = sigma^2 int B^6 is visible
    spec = _spec(
        0.25, WeightFunction.polynomial(0.0, 0.0, 0.0, 1.0), n_fine=1024, shift_coefficient=0.25
    )
    sample = sample_mixture_limit(spec, 5000, seed=9)
    assert float(np.std(sample.shifts)) > 0
    # values = shift + S Z: subtracting the shift and standardizing is N(0,1)
    z = (sample.values - sample.shifts) / np.sqrt(sample.conditional_variances)
    assert abs(z.mean()) < 4 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / z.size)


def test_mixture_chunking_invariance_and_determinism():
    spec = _spec(0.35, ONE, n_fine=1024)
    big = sample_mixture_limit(spec, 2100, seed=11)  # crosses the chunk size
    small = sample_mixture_limit(spec, 50, seed=11)
    np.testing.assert_array_equal(big.values[:50], small.values)
    again = sample_mixture_limit(spec, 2100, seed=11)
    np.testing.assert_array_equal(big.values, again.values)


def test_mixture_validation():
    with pytest.raises(ValueError):
        sample_mixture_limit(_spec(0.3, ONE), -1, seed=0)
    empty = sample_mixture_limit(_spec(0.3, ONE), 0, seed=0)
    assert empty.values.shape == (0,)


# -- Kolmogorov-Smirnov ----------------------------------------------------------


def test_ks_identical_samples():
    x = np.linspace(-2, 2, 500)
    report = ks_two_sample(x, x)
    assert report.statistic == 0.0
    assert report.passed
    assert report.extras["p_value"] == 1.0


def test_ks_disjoint_samples():
    report = ks_two_sample(np.zeros(100), np.ones(100))
    assert report.statistic == pytest.approx(1.0)
    assert not report.passed
    assert report.extras["p_value"] < 1e-12


def test_ks_symmetry_and_ties():
    rng = np.random.default_rng(13)
    a = rng.normal(size=400)
    b = np.concatenate([a[:100], rng.normal(size=300)])  # heavy ties
    r1 = ks_two_sample(a, b)
    r2 = ks_two_sample(b, a)
    assert r1.statistic == pytest.approx(r2.statistic, abs=1e-15)


def test_ks_monotone_transform_invariance():
    rng = np.random.default_rng(15)
    a = rng.normal(size=300)
    b = rng.normal(size=500) + 0.3
    base = ks_two_sample(a, b).statistic
    for transform in (np.exp, lambda x: x**3, lambda x: np.arctan(2 * x)):
        assert ks_two_sample(transform(a), transform(b)).statistic == pytest.approx(
            base, abs=1e-15
        )


def test_ks_critical_value_formula():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.62762
    assert ks_critical_value(1, 1, alpha=0.01) == pytest.approx(
        math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0), abs=1e-12
    )
    n = 100_000
    assert ks_critical_value(n, n, alpha=0.01) == pytest.approx(
        1.6276236307187293 * math.sqrt(2.0 / n), rel=1e-10
    )


def test_kolmogorov_pvalue_reference_points():
    # Q(lam) at the 1% critical point is 0.01 by construction of c(alpha)...
    # the asymptotic series gives 0.00999 (the alternating tail is tiny there)
    assert kolmogorov_pvalue(1.6276236307187293) == pytest.approx(0.01, abs=2e-4)
    assert kolmogorov_pvalue(0.0) == 1.0
    assert kolmogorov_pvalue(5.0) < 1e-20
    lams = np.linspace(0.3, 3.0, 28)
    values = [kolmogorov_pvalue(l) for l in lams]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("lam", [1e-3, 0.005, 0.01, 0.05, 0.1, 0.19, 0.2, 0.5, 1.0, 2.0])
def test_kolmogorov_pvalue_matches_mpmath(lam):
    # Q(lam) = 1 - theta_4(0, e^{-2 lam^2}), evaluated by mpmath at 40 digits
    with mpmath.workdps(40):
        exact = 1 - mpmath.jtheta(4, 0, mpmath.exp(-2 * mpmath.mpf(lam) ** 2))
    assert abs(kolmogorov_pvalue(lam) - float(exact)) <= 1e-14


def test_ks_two_sample_reports_p_one_for_samples_a_step_apart():
    # D = 1/20000 gives lam = 0.005, where 100 terms of the alternating series read 0.397
    a = np.arange(20000.0)
    assert ks_two_sample(a, a + 0.5).extras["p_value"] == 1.0


def test_ks_calibration_under_the_null():
    # 100 paired standard-normal samples of size 10^4: the 1% test should
    # reject about once; require >= 95 acceptances.
    rng = np.random.default_rng(17)
    accepted = 0
    for _ in range(100):
        a = rng.normal(size=10_000)
        b = rng.normal(size=10_000)
        accepted += ks_two_sample(a, b).passed
    assert accepted >= 95


def test_ks_empty_input_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


# -- conditional characteristic-function test --------------------------------------


def _mixture_draw(m, seed, shifted=False):
    spec = _spec(
        0.3,
        WeightFunction.cosine(1.0, 1.0),
        n_fine=1024,
        shift_coefficient=0.25 if shifted else 0.0,
    )
    return sample_mixture_limit(spec, m, seed)


def test_cf_null_passes():
    sample = _mixture_draw(40_000, seed=19)
    report = conditional_cf_test(sample.values, sample.conditional_variances)
    assert report.passed, report.extras["cells"]
    assert report.statistic <= 4.0


def test_cf_detects_wrong_conditional_variance():
    # feed an unconditional Gaussian with the right total variance: the
    # conditional CF against S^2 must reject it decisively
    sample = _mixture_draw(40_000, seed=21)
    rng = np.random.default_rng(23)
    fake = rng.normal(size=sample.values.size) * float(
        np.sqrt(sample.conditional_variances.mean())
    )
    report = conditional_cf_test(fake, sample.conditional_variances)
    assert not report.passed
    assert report.statistic > 8.0


def test_cf_shift_support():
    sample = _mixture_draw(40_000, seed=25, shifted=True)
    report = conditional_cf_test(sample.values, sample.conditional_variances, shifts=sample.shifts)
    assert report.passed
    # ignoring the shift must fail
    report_wrong = conditional_cf_test(sample.values, sample.conditional_variances)
    assert not report_wrong.passed


def test_cf_validation():
    with pytest.raises(ValueError):
        conditional_cf_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        conditional_cf_test([1.0], [-1.0])
    with pytest.raises(ValueError):
        conditional_cf_test([], [])
    with pytest.raises(ValueError):
        conditional_cf_test([1.0], [1.0], shifts=[0.1, 0.2])


# -- exact chaos moments and the fourth-moment theorem ------------------------------


def test_chaos2_pinned_h_half():
    moments = chaos2_fourth_moment_exact(0.5, 4)
    assert moments.variance == pytest.approx(2.0, abs=1e-12)
    # E[G^4] = (12 tr^2 + 48 tr(M^4))/n^2 with M = I: tr(M^2) = tr(M^4) = n
    assert moments.fourth_moment == pytest.approx((12.0 * 16 + 48.0 * 4) / 16.0, abs=1e-12)
    assert moments.normalized_m4 == pytest.approx(3.0 + 12.0 / 4.0, abs=1e-12)


def test_chaos2_h_half_any_n_closed_form():
    # M = identity: normalized_m4 = 3 + 12/n exactly, variance = 2
    for n in (16, 256, 8192):
        moments = chaos2_fourth_moment_exact(0.5, n)
        assert moments.variance == pytest.approx(2.0, abs=1e-10)
        assert moments.normalized_m4 == pytest.approx(3.0 + 12.0 / n, rel=1e-10)


def test_chaos2_against_wick_oracle():
    # exact small-n moments from the finite Gaussian-space machinery
    from chaoslab.fbm import FbmGrid
    from chaoslab.polyrv import PolyRV, wick_expectation
    from chaoslab.space import GaussianSpace

    for H, n in ((0.3, 2), (0.3, 4), (0.45, 3), (0.6, 4)):
        grid = FbmGrid(H, n)
        space = GaussianSpace(grid.increment_covariance())
        scale = float(n) ** H
        g = None
        for k in range(n):
            term = PolyRV.from_univariate([-1.0, 0.0, scale**2], space.basis_rv(k))
            g = term if g is None else g + term
        g = g * (1.0 / math.sqrt(n))
        moments = chaos2_fourth_moment_exact(H, n)
        assert wick_expectation(g * g) == pytest.approx(moments.variance, abs=1e-9)
        assert wick_expectation(g * g * g * g) == pytest.approx(
            moments.fourth_moment, abs=1e-9
        )


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
def test_chaos2_trace_m4_is_the_exact_trace_of_m(n):
    # tr(M^4) of the float matrix M in integers: r(k) * scale is one for every k
    for H in (0.05, 0.3, 0.62, 0.7):
        r = np.asarray(rho(H, np.arange(n)), dtype=float)
        scale = max(Fraction(v).denominator for v in r)  # a power of two
        R = [int(Fraction(v) * scale) for v in r]
        m2 = [[sum(R[abs(i - k)] * R[abs(k - j)] for k in range(n)) for j in range(n)] for i in range(n)]
        exact = Fraction(sum(v * v for row in m2 for v in row), scale**4)
        assert abs(Fraction(chaoslab.limits._trace_m4(r)) - exact) <= Fraction(1e-15) * exact, H


def test_chaos2_dense_blocked_agree(monkeypatch):
    # one block of every diagonal and blocks of three diagonals give the same bits
    for H, n in ((0.05, 515), (0.3, 512), (0.7, 301)):
        monkeypatch.setattr(chaoslab.limits, "slab_rows", lambda width: n)
        dense = [v.hex() for v in chaos2_fourth_moment_exact(H, n)]
        monkeypatch.setattr(chaoslab.limits, "slab_rows", lambda width: 3)
        assert [v.hex() for v in chaos2_fourth_moment_exact(H, n)] == dense, (H, n)


_BLAS_CALLS = {"dot", "matmul", "tensordot", "einsum", "inner"}


def _blas_uses(source: str) -> list[str]:
    """Each ``@`` or ``@=`` in ``source``, and each call of a function or method
    named like one of numpy's BLAS-backed products, in ``ast.walk`` order."""
    uses = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            uses.append("@")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in _BLAS_CALLS:
                uses.append(name)
    return uses


def test_chaos2_h_half_dense_bits_need_no_gemm():
    # tr M^4 never reaches the BLAS.  The scan reads the source because `@`
    # calls neither np.matmul nor np.dot; tr M^2's ddot shows that it sees `@`
    limits = chaoslab.limits
    for function in (limits._trace_m4, limits._split, limits._two_product, limits._two_sum_error):
        assert _blas_uses(inspect.getsource(function)) == [], function.__name__
    assert _blas_uses(inspect.getsource(chaos2_fourth_moment_exact)) == ["@"]
    source = "a @= b\nc = np.dot(a, b) + dot(a) + a.inner(b) * tensordot(a, b) + np.einsum('i', b) + matmul(a)\n"
    assert sorted(_blas_uses(source)) == ["@", "dot", "dot", "einsum", "inner", "matmul", "tensordot"]
    for name, pin in PINS.items():
        if name.startswith("chaos2_fourth_moment_exact("):
            assert pin.compute() == pin.recorded, name
    for H in (0.05, 0.3, 0.5, 0.62, 0.7):
        assert chaos2_fourth_moment_exact(H, 1000).normalized_m4 > 3.0


@pytest.mark.parametrize("n", [2048, 4096, 4160])
def test_chaos2_peak_memory(n):
    # six arrays of one block of diagonals, each at most rng.SLAB_BYTES, and
    # O(n) vectors; no n x n array (32 MiB at 2048, 128 MiB at 4096)
    tracemalloc.start()
    try:
        chaos2_fourth_moment_exact(0.3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_chaos2_normalized_m4_decreases_toward_gaussian():
    # along n = 2^6..2^10 the excess kurtosis shrinks for H < 3/4
    for H in (0.3, 0.6):
        values = [chaos2_fourth_moment_exact(H, 2**k).normalized_m4 for k in range(6, 11)]
        assert all(a > b > 3.0 for a, b in zip(values, values[1:])), (H, values)


def test_chaos2_validation():
    with pytest.raises(ValueError):
        chaos2_fourth_moment_exact(0.3, 0)


def test_berry_esseen_coefficient():
    assert berry_esseen_coefficient(2) == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)
    assert berry_esseen_coefficient(2) == pytest.approx(0.408248, abs=1e-6)
    assert berry_esseen_coefficient(3) == pytest.approx(math.sqrt(2.0 / 9.0), abs=1e-12)
    with pytest.raises(ValueError):
        berry_esseen_coefficient(1)


def test_berry_esseen_check_passes_at_moderate_size():
    report = berry_esseen_check(0.5, 64, 20_000, seed=29)
    assert report.passed
    assert report.extras["bound"] == pytest.approx(
        math.sqrt(1.0 / 6.0) * math.sqrt(12.0 / 64.0), rel=1e-9
    )
    assert report.extras["normalized_m4"] == pytest.approx(3.0 + 12.0 / 64.0, rel=1e-10)


def test_normal_cdf_keeps_its_recorded_bits_across_its_branch_switches():
    a = normal_cdf_points()
    got = chaoslab.limits._normal_cdf(a)
    assert got.shape == a.shape and got.dtype == np.float64
    assert sha256(got) == PINS["normal_cdf()"].recorded


def test_normal_cdf_is_accurate_against_mpmath():
    # Cephes's tail error grows like a^2 eps: rel_err / ((1 + a^2) 2^-53) reached
    # 4.25 on 112k points of [-37.6, 9], next to the a = -sqrt(2) branch edge
    edges = (1.0, 1.0 / chaoslab.limits._SQRT1_2, 8.0 / chaoslab.limits._SQRT1_2)  # branch switches
    near = np.concatenate([ulp_neighbours(edge, 32) for edge in edges])
    uniform = np.random.default_rng(7).uniform(-38.0, 9.0, 1000)
    a = np.concatenate([near, -near, np.linspace(-38.0, 9.0, 4701), uniform])
    got = chaoslab.limits._normal_cdf(a)
    with mpmath.workdps(40):
        exact = [mpmath.ncdf(x) for x in a.tolist()]
        rel_err = np.array([float(abs(p / e - 1)) for p, e in zip(got.tolist(), exact)])
        normal = np.array([e >= 2.0**-1022 for e in exact])  # Phi(a) is a normal float
    bound = 8.0 * (1.0 + a * a) * 2.0**-53
    assert (rel_err[normal] <= bound[normal]).all(), a[normal & (rel_err > bound)][:10]
    assert (got[~normal] >= 0.0).all()
    assert (got[a < -math.sqrt(2.0 * chaoslab.limits._MAXLOG) - 1e-9] == 0.0).all()
    specials = chaoslab.limits._normal_cdf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert specials[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and np.isnan(specials[4])


def test_berry_esseen_peak_memory_scales_batches_in_place(monkeypatch):
    # a scaled copy of each 256-row slab's increments made this 3.37 MiB
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    berry_esseen_check(0.5, 4, 8, 5)  # imports numpy.random (0.7 MiB) before tracing
    tracemalloc.start()
    try:
        berry_esseen_check(0.5, 256, 32768, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


def test_berry_esseen_validation():
    with pytest.raises(ValueError, match="3/4"):
        berry_esseen_check(0.8, 64, 100, seed=0)
    with pytest.raises(ValueError):
        berry_esseen_check(0.5, 64, 0, seed=0)


# -- the Brownian weighted example ---------------------------------------------------


def test_brownian_grid_resolves_the_boundary_layer():
    from chaoslab.limits import _brownian_grid

    t, dt = _brownian_grid(16, 2048)
    assert t.shape == (2049,)
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert np.all(dt > 0)
    # uniform in t^(n+1): half the points land above 2^{-1/(n+1)}
    median = t[len(t) // 2]
    assert median == pytest.approx(0.5 ** (1.0 / 17.0), abs=1e-12)


def test_brownian_example_small_n_moments():
    # at n = 4 the exact second moment is n/(2n+2) = 0.4, and the exact
    # orthogonality term is 2n/((n+2)(2n+3)) = 4/33
    report, arrays = brownian_example_run(4, 4000, seed=1, resolution=2048)
    assert report.extras["condition_a_exact"] == pytest.approx(8.0 / 66.0, abs=1e-12)
    second = float(np.mean(arrays["f"] ** 2))
    se = float(np.std(arrays["f"] ** 2, ddof=1)) / math.sqrt(4000)
    assert abs(second - 4.0 / 10.0) < 4 * se + 0.01
    inner = float(np.mean(arrays["inner"]))
    se_inner = float(np.std(arrays["inner"], ddof=1)) / math.sqrt(4000)
    assert abs(inner - 4.0 / 10.0) < 4 * se_inner + 0.01
    assert list(arrays) == ["f", "inner", "s2", "reference"]
    assert arrays["f"].shape == (4000,)


def test_brownian_example_reference_is_half_normal_product():
    # reference draw = W_1' Z / sqrt(2): mean 0, variance 1/2, and its law is
    # the normal product (KS distance ~ 0.11 from a matched Gaussian)
    _, arrays = brownian_example_run(4, 20_000, seed=3, resolution=1024)
    ref = arrays["reference"]
    assert abs(ref.mean()) < 4 * ref.std() / math.sqrt(ref.size)
    assert float(ref.var()) == pytest.approx(0.5, abs=0.03)
    rng = np.random.default_rng(31)
    fresh_product = rng.normal(size=ref.size) * rng.normal(size=ref.size) / math.sqrt(2.0)
    assert ks_two_sample(ref, fresh_product).passed
    matched_gaussian = rng.normal(size=ref.size) * math.sqrt(0.5)
    assert not ks_two_sample(ref, matched_gaussian).passed


def test_brownian_example_validation():
    with pytest.raises(ValueError):
        brownian_example_run(0, 10, seed=0)
    with pytest.raises(ValueError):
        brownian_example_run(4, 0, seed=0)
    with pytest.raises(ValueError, match="m >= 2"):
        brownian_example_run(4, 1, seed=0)  # ddof=1 variances need two replicas


@pytest.mark.parametrize("resolution", [0, 1])
def test_brownian_example_rejects_resolution_below_two_before_sampling(monkeypatch, resolution):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating resolution")

    monkeypatch.setattr(chaoslab.limits, "map_slabs", no_sampling)
    with pytest.raises(ValueError, match="resolution"):
        brownian_example_run(4, 10, seed=0, resolution=resolution)


def test_brownian_example_deterministic():
    a, _ = brownian_example_run(8, 2000, seed=5, resolution=1024)
    b, _ = brownian_example_run(8, 2000, seed=5, resolution=1024)
    assert a.statistic == b.statistic
    assert a.extras["ks_statistic"] == b.extras["ks_statistic"]


def test_brownian_example_peak_memory_is_a_few_slabs(monkeypatch):
    # 256-row slabs of 4098 normals, with 256-row scratch per thread, made this 160 MiB
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    tracemalloc.start()
    try:
        brownian_example_run(512, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

"""Weighted Hermite variations: statistic, correction, regimes, decomposition."""

import math

import numpy as np
import pytest

from chaoslab.fbm import FbmGrid, FbmPathBatch, alpha_diag, del_norm, sample_paths
from chaoslab.malliavin import multiple_integral
from chaoslab.polyrv import PolyRV, wick_expectation
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor
from chaoslab.variations import (
    VariationResult,
    a_n_statistic,
    classify_regime,
    decompose_gn,
    full_variation,
    sigma_hq,
    skorohod_weighted_closed_form,
    weighted_variation,
)
from chaoslab.weights import WeightFunction

ONE = WeightFunction.constant()


# -- regime map ----------------------------------------------------------------


def test_regime_labels_pinned():
    assert classify_regime(2, 0.1).label == "lower"
    assert classify_regime(2, 0.25).label == "critical_lower"
    assert classify_regime(3, 1.0 / 6.0).label == "critical_lower"
    assert classify_regime(2, 0.5).label == "mixed_clt"
    assert classify_regime(2, 0.75).label == "critical_upper"
    assert classify_regime(2, 0.9).label == "hermite"
    assert classify_regime(3, 0.9).label == "hermite"


def test_regime_boundary_tolerance():
    # within 1e-12 of the critical point counts as critical
    assert classify_regime(2, 0.25 + 1e-13).label == "critical_lower"
    assert classify_regime(2, 0.25 + 1e-9).label == "mixed_clt"
    assert classify_regime(2, 0.25 - 1e-9).label == "lower"


def test_regime_exponents_and_correction_flags():
    low = classify_regime(2, 0.1)
    assert low.exponent == pytest.approx(2 * 0.1 - 0.5)
    assert not low.corrected
    assert low.renormalization_factor(16) == pytest.approx(16.0 ** (-0.3))

    mid = classify_regime(2, 0.4)
    assert mid.exponent == 0.0
    assert mid.corrected
    assert mid.renormalization_factor(1000) == 1.0

    top = classify_regime(2, 0.75)
    assert top.exponent is None
    assert top.renormalization_factor(64) == pytest.approx(1.0 / math.sqrt(math.log(64)))

    herm = classify_regime(2, 0.9)
    assert herm.exponent == pytest.approx(2 * (1 - 0.9) - 0.5)


def test_regime_validation():
    with pytest.raises(ValueError):
        classify_regime(1, 0.3)
    with pytest.raises(ValueError):
        classify_regime(2, 0.0)


def test_sigma_hq_pinned_values():
    # at H = 1/2 the lag series is the single r = 0 term: sigma^2 = q!
    assert sigma_hq(0.5, 2).sigma_sq == pytest.approx(2.0, abs=1e-10)
    assert sigma_hq(0.5, 3).sigma_sq == pytest.approx(6.0, abs=1e-10)
    s = sigma_hq(0.25, 2)
    assert s.sigma_sq > 0
    assert s.sigma == pytest.approx(math.sqrt(s.sigma_sq), abs=1e-14)
    # tolerance refinement does not move the value beyond the requested tol
    assert sigma_hq(0.3, 2, tol=1e-8).sigma_sq == pytest.approx(
        sigma_hq(0.3, 2, tol=1e-12).sigma_sq, abs=2e-8
    )


def test_sigma_hq_divergence_error():
    with pytest.raises(ValueError, match="diverge"):
        sigma_hq(0.8, 2)  # H >= 1 - 1/(2q) = 0.75


# -- the statistic and its correction -------------------------------------------


def _synthetic_batch(H, n, increments):
    grid = FbmGrid(H, n)
    return FbmPathBatch(grid, np.asarray(increments, dtype=float), seed=0, method="synthetic")


def test_weighted_variation_constant_weight_h_half_moments():
    # f = 1, H = 1/2, q = 2: G_n = n^{-1/2} sum He_2(sqrt(n) dB) has
    # mean 0 and variance exactly 2 (iid chi-square-minus-one increments).
    grid = FbmGrid(0.5, 64)
    batch = sample_paths(grid, 20_000, seed=3)
    result = weighted_variation(batch, 2, ONE)
    m = result.m
    se_mean = math.sqrt(2.0 / m)
    assert abs(float(result.gn.mean())) < 4 * se_mean
    # Var(G) = 2; the variance of the variance estimate is ~ E[G^4]-4 = 60/m... use 4 sigma
    var = float(result.gn.var())
    assert var == pytest.approx(2.0, abs=4 * math.sqrt(60.0 / m) + 0.01)


def test_weighted_variation_zero_increments_closed_form():
    # forced zero increments: G_n = n^{-1/2} He_q(0) sum_k f(0) exactly
    n = 16
    batch = _synthetic_batch(0.3, n, np.zeros((3, n)))
    for q, he0 in ((1, 0.0), (2, -1.0), (3, 0.0), (4, 3.0)):
        result = weighted_variation(batch, q, ONE)
        expected = he0 * n / math.sqrt(n)
        np.testing.assert_allclose(result.gn, expected * np.ones(3), atol=1e-12)


def test_weighted_variation_zero_weight():
    batch = sample_paths(FbmGrid(0.3, 8), 4, seed=1)
    result = weighted_variation(batch, 2, WeightFunction.polynomial(0.0))
    np.testing.assert_allclose(result.gn, np.zeros(4), atol=0)


def test_weighted_variation_scaled_is_monic_over_factorial():
    batch = sample_paths(FbmGrid(0.35, 32), 6, seed=5)
    f = WeightFunction.polynomial(1.0, 1.0)
    monic = weighted_variation(batch, 3, f).gn
    scaled = weighted_variation(batch, 3, f, normalization="scaled").gn
    np.testing.assert_allclose(scaled, monic / 6.0, atol=1e-14)


def test_mean_square_weight_is_per_path_mean_of_f_squared():
    f = WeightFunction.polynomial(0.5, -1.0, 0.25)
    batch = sample_paths(FbmGrid(0.3, 32), 40, seed=4)
    expected = np.mean(f(batch.levels_at_increment_start()) ** 2, axis=1)
    for result in (weighted_variation(batch, 2, f), full_variation(batch, 2, f)):
        np.testing.assert_array_equal(result.mean_square_weight, expected)


@pytest.mark.parametrize("q", [2, 3])
def test_mean_weight_derivative_is_per_path_mean_of_f_q(q):
    f = WeightFunction.cosine(1.3, 0.7)
    batch = sample_paths(FbmGrid(0.3, 1000), 40, seed=4)
    expected = np.mean(f(batch.levels_at_increment_start(), q), axis=1)
    np.testing.assert_array_equal(full_variation(batch, q, f).mean_weight_derivative, expected)


def test_weighted_variation_validation():
    batch = sample_paths(FbmGrid(0.3, 8), 1, seed=0)
    with pytest.raises(ValueError):
        weighted_variation(batch, 0, ONE)
    with pytest.raises(ValueError):
        weighted_variation(batch, 2, ONE, normalization="probabilist")


def _correction(batch, q, f, normalization="monic"):
    return full_variation(batch, q, f, normalization).correction


def test_correction_term_closed_forms():
    n = 64
    batch = sample_paths(FbmGrid(0.3, n), 5, seed=7)
    # linear weight: f'' = 0 at q = 2, so no correction
    np.testing.assert_allclose(
        _correction(batch, 2, WeightFunction.polynomial(0.0, 1.0)),
        np.zeros(5),
        atol=0,
    )
    # f = x^2, q = 2: c_2 f'' = (1/4)*2 = 1/2 per increment, summed over n
    expected = 0.5 * n ** (0.5 - 2 * 0.3)
    np.testing.assert_allclose(
        _correction(batch, 2, WeightFunction.polynomial(0.0, 0.0, 1.0)),
        expected * np.ones(5),
        atol=1e-12,
    )
    # q = 3: c_3 = -1/8; f = x^3 has constant third derivative 6
    expected3 = -(1.0 / 8.0) * 6.0 * n ** (0.5 - 3 * 0.3)
    np.testing.assert_allclose(
        _correction(batch, 3, WeightFunction.polynomial(0.0, 0.0, 0.0, 1.0)),
        expected3 * np.ones(5),
        atol=1e-12,
    )
    # scaled normalization divides by q!
    np.testing.assert_allclose(
        _correction(batch, 3, WeightFunction.polynomial(0.0, 0.0, 0.0, 1.0), "scaled"),
        expected3 / 6.0 * np.ones(5),
        atol=1e-12,
    )


# -- pathwise Skorohod closed form ----------------------------------------------


def test_closed_form_base_cases():
    # p = 0: delta^0 is the identity, so the value is just f^(r)(level)
    f = WeightFunction.polynomial(0.0, 0.0, 1.0)
    out = skorohod_weighted_closed_form(0.7, 0.2, alpha=0.05, del_norm=0.5, q=2, f=f, r=2)
    assert out == pytest.approx(2.0)
    # p = 1, f = id: delta(B_a del) = B_a dB - alpha
    fid = WeightFunction.polynomial(0.0, 1.0)
    out = skorohod_weighted_closed_form(0.7, 0.2, alpha=0.05, del_norm=0.5, q=1, f=fid, r=0)
    assert out == pytest.approx(0.7 * 0.2 - 0.05, abs=1e-14)


def test_closed_form_alpha_zero_reduces_to_hermite():
    # alpha = 0: delta^q(f(B) del^q) = f(B) ||del||^q He_q(dB/||del||)
    dnorm = 0.35
    f = WeightFunction.cosine(1.0, 2.0)
    for q in (1, 2, 3):
        out = skorohod_weighted_closed_form(0.4, 0.21, 0.0, dnorm, q, f, 0)
        he = {1: 0.6, 2: 0.36 - 1.0, 3: 0.216 - 3 * 0.6}[q]  # He_q(0.6)
        assert out == pytest.approx(f(0.4) * dnorm**q * he, abs=1e-12)


def test_closed_form_broadcasts():
    f = WeightFunction.polynomial(1.0, 1.0)
    levels = np.array([[0.1, 0.2], [0.3, 0.4]])
    increments = np.array([[0.01, 0.02], [0.03, 0.04]])
    alphas = np.array([[0.0, 0.05]])
    out = skorohod_weighted_closed_form(levels, increments, alphas, 0.5, 2, f, 0)
    assert np.shape(out) == (2, 2)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        skorohod_weighted_closed_form(0.0, 0.0, 0.0, 0.5, 2, ONE, 3)
    with pytest.raises(ValueError):
        skorohod_weighted_closed_form(0.0, 0.0, 0.0, 0.0, 2, ONE, 0)


def test_closed_form_matches_exact_skorohod_oracle():
    # Validate the induction formula against the exact finite-dimensional
    # divergence: the grid increments are a Gaussian space; f(B_a) del^{(x)p}
    # is a polynomial field; iterated divergence is computed symbolically and
    # evaluated at concrete increments.
    from chaoslab.malliavin import PolyTensor, skorohod

    H, n = 0.3, 3
    grid = FbmGrid(H, n)
    space = GaussianSpace(grid.increment_covariance())
    dnorm = del_norm(H, n)
    a = 2  # weight evaluated at B_{a/n} = sum of the first a increments
    alpha_a = float(alpha_diag(H, n, a))
    f = WeightFunction.polynomial(0.5, 1.0, 2.0)  # 0.5 + x + 2 x^2

    # symbolic field: level B_a = X(e_0) + ... + X(e_{a-1})
    level_rv = sum(space.basis_rv(i) for i in range(a))
    del_vec = SymTensor.basis_vector(space, a)

    # the symbolic polynomial lives in orthonormal coordinates w; the raw
    # increments are x = T w with T the ONB expansion of the basis vectors
    basis = np.eye(n)
    T = np.stack([space.onb_coords(basis[i]) for i in range(n)])

    rng = np.random.default_rng(2)
    for q, r in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        p = q - r
        # f^(r)(B_a) as a PolyRV via the polynomial's derivative coefficients
        coeffs = np.polynomial.polynomial.polyder(np.asarray(f.params), r) if r else np.asarray(f.params)
        weight_rv = PolyRV.from_univariate(list(coeffs), level_rv)
        kernel = del_vec
        for _ in range(p - 1):
            kernel = SymTensor(space, np.multiply.outer(kernel.coeffs, del_vec.coeffs))
        if p == 0:
            symbolic = weight_rv
        else:
            const = PolyTensor.from_constant_tensor(kernel)
            field = const.map(lambda entry: entry * weight_rv)
            symbolic = skorohod(field, p)

        for _ in range(4):
            w = rng.normal(size=n)
            x = T @ w
            direct = skorohod_weighted_closed_form(
                float(x[:a].sum()), float(x[a]), alpha_a, dnorm, q, f, r
            )
            assert symbolic.eval(w) == pytest.approx(direct, abs=1e-10), (q, r)


# -- exact decomposition ---------------------------------------------------------


def test_decompose_q1_constant_weight():
    # q = 1, f = 1: the whole statistic is the main divergence term
    batch = sample_paths(FbmGrid(0.3, 32), 4, seed=9)
    comps = decompose_gn(batch, 1, ONE)
    assert set(comps) == {"main", "remainder"}
    gn = weighted_variation(batch, 1, ONE).gn
    np.testing.assert_allclose(comps["main"], gn, atol=1e-12)
    np.testing.assert_allclose(comps["remainder"], np.zeros(4), atol=1e-15)


def test_decompose_q1_general_weight_remainder():
    # q = 1: remainder = n^{H-1/2} sum_k alpha_k f'(B_k)
    H, n = 0.35, 16
    batch = sample_paths(FbmGrid(H, n), 3, seed=11)
    f = WeightFunction.polynomial(0.0, 0.0, 1.0)
    comps = decompose_gn(batch, 1, f)
    alphas = np.asarray(alpha_diag(H, n, np.arange(n)))
    levels = batch.levels_at_increment_start()
    expected = n ** (H - 0.5) * (alphas[None, :] * f(levels, 1)).sum(axis=1)
    np.testing.assert_allclose(comps["remainder"], expected, atol=1e-13)
    gn = weighted_variation(batch, 1, f).gn
    np.testing.assert_allclose(sum(comps.values()), gn, atol=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("H", [0.15, 0.3, 0.45])
def test_decomposition_residual_tiny(q, H):
    batch = sample_paths(FbmGrid(H, 64), 8, seed=13)
    f = WeightFunction.cosine(1.0, 1.0)
    comps = decompose_gn(batch, q, f)
    assert len(comps) == q + 1
    gn = weighted_variation(batch, q, f).gn
    residual = np.max(np.abs(gn - sum(comps.values())))
    assert residual <= 1e-8


def test_decomposition_scaled_normalization():
    batch = sample_paths(FbmGrid(0.3, 32), 3, seed=15)
    f = WeightFunction.polynomial(1.0, 2.0)
    monic = decompose_gn(batch, 2, f)
    scaled = decompose_gn(batch, 2, f, normalization="scaled")
    for name in monic:
        np.testing.assert_allclose(scaled[name], monic[name] / 2.0, atol=1e-14)


# -- full pipeline ----------------------------------------------------------------


def test_full_variation_mixed_clt_wiring():
    batch = sample_paths(FbmGrid(0.3, 64), 10, seed=17)
    f = WeightFunction.polynomial(0.0, 0.0, 1.0)
    result = full_variation(batch, 2, f, decompose=True)
    assert result.regime is not None and result.regime.label == "mixed_clt"
    np.testing.assert_allclose(
        result.renormalized, result.gn - result.correction, atol=1e-14
    )
    assert result.extras["max_residual"] <= 1e-8
    assert set(result.components) == {"main", "middle_1", "remainder"}


def test_full_variation_uncorrected_regimes():
    batch = sample_paths(FbmGrid(0.1, 64), 4, seed=19)
    result = full_variation(batch, 2, ONE)
    assert result.regime.label == "lower"
    np.testing.assert_allclose(
        result.renormalized, 64.0 ** (2 * 0.1 - 0.5) * result.gn, atol=1e-14
    )
    top = full_variation(sample_paths(FbmGrid(0.75, 64), 4, seed=19), 2, ONE)
    assert top.regime.label == "critical_upper"
    np.testing.assert_allclose(
        top.renormalized, top.gn / math.sqrt(math.log(64)), atol=1e-14
    )


def test_full_variation_q1_has_no_regime():
    batch = sample_paths(FbmGrid(0.3, 16), 2, seed=21)
    result = full_variation(batch, 1, ONE)
    assert result.regime is None
    assert result.renormalized is None


def test_variation_result_csv_layout():
    batch = sample_paths(FbmGrid(0.3, 16), 3, seed=23)
    result = full_variation(batch, 2, ONE, decompose=True)
    header = result.csv_header()
    assert header[:4] == ["path", "gn", "correction", "renormalized"]
    assert header[4:] == ["main", "middle_1", "remainder"]
    rows = list(result.csv_rows())
    assert len(rows) == 3
    assert all(len(row) == len(header) for row in rows)
    summary = result.summary()
    assert summary["regime"] == "mixed_clt"
    assert summary["m"] == 3


# -- the quadratic functional A_n -------------------------------------------------


def test_a_n_constant_weight_h_half_is_exact():
    # H = 1/2: rho = delta_0, A_n = q! / n * sum_k f_k^2 = q! for f = 1, every path
    batch = sample_paths(FbmGrid(0.5, 128), 5, seed=25)
    np.testing.assert_allclose(a_n_statistic(batch, 2, ONE), 2.0 * np.ones(5), atol=1e-12)
    np.testing.assert_allclose(a_n_statistic(batch, 3, ONE), 6.0 * np.ones(5), atol=1e-12)


def test_a_n_constant_weight_converges_to_sigma_sq():
    # f = 1: A_n = q!/n sum_{|l-j|<n} rho(l-j)^q -> q! sum_r rho(r)^q = sigma^2
    batch = sample_paths(FbmGrid(0.3, 4096), 1, seed=27)
    value = float(a_n_statistic(batch, 2, ONE)[0])
    target = sigma_hq(0.3, 2).sigma_sq
    assert value == pytest.approx(target, rel=2e-2)


def test_a_n_direct_band_matches_fft_route():
    # H = 0.45 has a wide correlation band (FFT route); H = 0.1 a narrow one
    # (direct route).  Cross-check both against a brute-force double loop.
    for H in (0.1, 0.45):
        n = 64
        batch = sample_paths(FbmGrid(H, n), 2, seed=29)
        f = WeightFunction.polynomial(0.0, 1.0)
        values = a_n_statistic(batch, 2, f)
        from chaoslab.fbm import rho as rho_fn

        levels = batch.levels_at_increment_start()
        for i in range(2):
            brute = 0.0
            for l in range(n):
                for j in range(n):
                    brute += rho_fn(H, l - j) ** 2 * levels[i, l] * levels[i, j]
            brute *= 2.0 / n
            assert values[i] == pytest.approx(brute, rel=1e-10), H


def test_a_n_validation():
    batch = sample_paths(FbmGrid(0.3, 8), 1, seed=0)
    with pytest.raises(ValueError):
        a_n_statistic(batch, 0, ONE)

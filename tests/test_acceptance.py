"""Acceptance suite: one test per release criterion, each printing a verdict.

Every criterion is pinned to an explicit tolerance and seed.  Each test
prints a single ``[PASS]``/``[FAIL]`` line (bypassing pytest capture) before
asserting, so a full run always shows the complete scoreboard even when a
criterion is red.

Criteria 6 and 8 encode distributional requirements that the implemented
statistics demonstrably do not meet at the stated sample sizes (slow
``n^{-0.3}``-type transients and residual finite-size skewness).  They are
asserted exactly as stated rather than loosened, so they fail honestly; the
assertion messages carry the measured numbers.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from chaoslab.experiments import mixture_comparison, riemann_comparison
from chaoslab.fbm import FbmGrid, alpha_diag, bounds_suite, del_norm, sample_paths
from chaoslab.identities import run_identity_suite
from chaoslab.limits import (
    berry_esseen_check,
    brownian_example_run,
    chaos2_fourth_moment_exact,
)
from chaoslab.malliavin import PolyTensor, skorohod
from chaoslab.polyrv import PolyRV
from chaoslab.report import canonical_json
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor
from chaoslab.variations import full_variation, skorohod_weighted_closed_form
from chaoslab.weights import WeightFunction

from determinism import without_meta

# Expensive runs shared between their own criterion and the determinism
# criterion (which repeats them from scratch and compares bytes).
_CACHE: dict[str, object] = {}

_MIXTURE_ARGS = (2, 0.3, WeightFunction.cosine(1.0, 1.0), 4096, 10_000, 42)
_MIXTURE_KWARGS = dict(normalization="monic", n_fine=4096, variance_tolerance=0.05)
_BROWNIAN_ARGS = (512, 100_000, 0)


@pytest.fixture
def verdict(capfd):
    """Emit one scoreboard line on the real stdout, bypassing fd capture."""

    def emit(number: int, ok: bool, detail: str) -> None:
        tag = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(f"[{tag}] criterion {number}: {detail}\n")
            sys.stdout.flush()

    return emit


def _central_mixture_run():
    if "central" not in _CACHE:
        _CACHE["central"] = mixture_comparison(*_MIXTURE_ARGS, **_MIXTURE_KWARGS)
    return _CACHE["central"]


def _brownian_run():
    if "brownian" not in _CACHE:
        _CACHE["brownian"] = brownian_example_run(*_BROWNIAN_ARGS)
    return _CACHE["brownian"]


def test_criterion_1_exact_identity_suite(verdict):
    started = time.perf_counter()
    report = run_identity_suite(seed=0, instances=240, tolerance=1e-9)
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 60.0
    verdict(
        1,
        ok,
        f"identity suite max_gap={report.statistic:.3e} (tol 1e-09, "
        f"240 instances, {elapsed:.1f}s)",
    )
    assert report.passed, report.extras
    assert elapsed < 60.0


def test_criterion_2_increment_bound_suite(verdict):
    started = time.perf_counter()
    reports = bounds_suite(seed=0)
    elapsed = time.perf_counter() - started
    failed = [r.name for r in reports if not r.passed]
    ok = not failed and elapsed < 60.0
    verdict(
        2,
        ok,
        f"covariance/uniformity bound suite {len(reports)} checks, "
        f"failures={failed or 'none'} ({elapsed:.1f}s)",
    )
    assert not failed, failed
    assert elapsed < 60.0


def test_criterion_3_decomposition_identity(verdict):
    started = time.perf_counter()
    weights = [
        WeightFunction.polynomial(0.5, 1.0, 2.0),
        WeightFunction.cosine(1.0, 1.0),
    ]
    worst = 0.0
    for q in (1, 2, 3):
        for H in (0.15, 0.3, 0.45):
            for n in (16, 64, 256):
                batch = sample_paths(FbmGrid(H, n), 10, seed=3)
                for f in weights:
                    residual = full_variation(batch, q, f, decompose=True).max_residual
                    worst = max(worst, residual)

    # Closed-form iterated-divergence evaluator vs the exact symbolic
    # divergence on small grids: the grid increments form a Gaussian space,
    # the weighted field is a polynomial tensor, and both routes must agree
    # at concrete sample points.
    f_poly = WeightFunction.polynomial(0.5, 1.0, 2.0)
    oracle_worst = 0.0
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        H = 0.3
        grid = FbmGrid(H, n)
        space = GaussianSpace(grid.increment_covariance())
        dnorm = del_norm(H, n)
        a = n - 1
        alpha_a = float(alpha_diag(H, n, a))
        level_rv = sum(space.basis_rv(i) for i in range(a))
        del_vec = SymTensor(space, np.eye(n)[a])
        basis = np.eye(n)
        transform = np.stack([space.onb_coords(basis[i]) for i in range(n)])
        for q, r in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]:
            p = q - r
            coeffs = (
                np.polynomial.polynomial.polyder(np.asarray(f_poly.params), r)
                if r
                else np.asarray(f_poly.params)
            )
            weight_rv = PolyRV.from_univariate(list(coeffs), level_rv)
            kernel = del_vec
            for _ in range(p - 1):
                kernel = SymTensor(
                    space, np.multiply.outer(kernel.coeffs, del_vec.coeffs)
                )
            if p == 0:
                symbolic = weight_rv
            else:
                const = PolyTensor.from_constant_tensor(kernel)
                field = PolyTensor(space, const.entries * weight_rv)
                symbolic = skorohod(field, p)
            for _ in range(3):
                w = rng.normal(size=n)
                x = transform @ w
                direct = skorohod_weighted_closed_form(
                    float(x[:a].sum()), float(x[a]), alpha_a, dnorm, q, f_poly, r
                )
                value = sum(
                    math.prod((zi**k for zi, k in zip(w, e) if k), start=c)
                    for e, c in symbolic.terms.items()
                )
                oracle_worst = max(oracle_worst, abs(value - direct))

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and oracle_worst <= 1e-8 and elapsed < 120.0
    verdict(
        3,
        ok,
        f"decomposition residual max={worst:.3e}, closed form vs symbolic "
        f"divergence max gap={oracle_worst:.3e} (tol 1e-08, {elapsed:.1f}s)",
    )
    assert worst <= 1e-8
    assert oracle_worst <= 1e-8
    assert elapsed < 120.0


def test_criterion_4_central_mixture_monte_carlo(verdict):
    started = time.perf_counter()
    report, _ = _central_mixture_run()
    mismatched, _ = mixture_comparison(
        *_MIXTURE_ARGS,
        normalization="scaled",
        constants_normalization="monic",
        n_fine=4096,
        variance_tolerance=0.05,
    )
    elapsed = time.perf_counter() - started
    ratio = report.extras["variance_ratio"]
    bad_ratio = mismatched.extras["variance_ratio"]
    ok = (
        report.passed
        and abs(ratio - 1.0) <= 0.05
        and not mismatched.passed
        and abs(4.0 * bad_ratio - 1.0) <= 0.2
        and elapsed < 600.0
    )
    verdict(
        4,
        ok,
        f"central-regime mixture comparison score={report.statistic:.4f} "
        f"variance_ratio={ratio:.4f}; mismatched-conventions run fails with "
        f"ratio={bad_ratio:.4f}~1/4 ({elapsed:.1f}s)",
    )
    assert report.passed, report.extras
    assert abs(ratio - 1.0) <= 0.05
    assert report.extras["ks_statistic"] <= report.extras["ks_threshold"]
    assert report.extras["cf_ratio"] <= report.extras["cf_threshold"]
    # Comparing the q!-scaled statistic against constants for the monic one
    # must be caught by the variance gate, off by about (q!)^2 = 4.
    assert not mismatched.passed
    assert abs(4.0 * bad_ratio - 1.0) <= 0.2
    assert elapsed < 600.0


def test_criterion_5_lower_critical_point_mixture(verdict):
    started = time.perf_counter()
    report, _ = mixture_comparison(
        2,
        0.25,
        WeightFunction.cosine(1.0, 1.0),
        4096,
        10_000,
        42,
        normalization="monic",
        n_fine=4096,
    )
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 600.0
    verdict(
        5,
        ok,
        f"lower-critical mixture comparison (shifted limit, shift "
        f"coefficient={report.extras['shift_coefficient']:.4f}) "
        f"score={report.statistic:.4f} ({elapsed:.1f}s)",
    )
    assert report.extras["regime"] == "critical_lower"
    assert report.extras["shift_coefficient"] == pytest.approx(0.25)
    assert report.passed, report.extras
    assert elapsed < 600.0


def test_criterion_6_small_H_riemann_limit(verdict):
    started = time.perf_counter()
    report, _ = riemann_comparison(
        2,
        0.1,
        WeightFunction.polynomial(0.0, 0.0, 0.0, 0.0, 1.0),
        (256, 1024, 4096),
        2000,
        42,
    )
    elapsed = time.perf_counter() - started
    distances = report.extras["distances"]
    ratios = report.extras["decrease_ratios"]
    final = distances["4096"]
    decreasing = all(r < 1.0 for r in ratios)
    ok = decreasing and report.passed and elapsed < 300.0
    verdict(
        6,
        ok,
        f"small-H Riemann-limit distances {distances} decreasing={decreasing}, "
        f"final relative L2 distance {final:.3f} vs 0.10 target ({elapsed:.1f}s)",
    )
    assert decreasing, ratios
    assert elapsed < 300.0
    assert report.passed, (
        f"relative L2 distance to the deterministic Riemann term is "
        f"{final:.3f} at n=4096, above the 0.10 target; the gap decays like "
        f"n^(2H-1/2) = n^-0.3 (measured ratios {ratios}), so at these sizes "
        f"the remainder chaos still dominates the budget"
    )


def test_criterion_7_fourth_moment_bound(verdict):
    started = time.perf_counter()
    moments = chaos2_fourth_moment_exact(0.5, 4)
    exact_gap = abs(moments.normalized_m4 - 6.0)

    reports = [
        berry_esseen_check(H, n, 1_000_000, 7)
        for H in (0.4, 0.5, 0.6)
        for n in (64, 256)
    ]
    elapsed = time.perf_counter() - started
    failed = [r.name for r in reports if not r.passed]
    ok = exact_gap <= 1e-10 and not failed and elapsed < 300.0
    worst = max(r.statistic / r.threshold for r in reports)
    verdict(
        7,
        ok,
        f"exact fourth moment at (H=0.5, n=4) = {moments.normalized_m4!r} "
        f"(target 6.0); CDF-distance bound holds on 6 grids, worst "
        f"margin={worst:.3f} ({elapsed:.1f}s)",
    )
    assert exact_gap <= 1e-10
    assert not failed, failed
    assert elapsed < 300.0


def test_criterion_8_brownian_weighted_functional(verdict):
    started = time.perf_counter()
    report, _ = _brownian_run()
    elapsed = time.perf_counter() - started
    ex = report.extras
    moments_ok = ex["inner_z_score"] <= 3.0 and ex["f_squared_z_score"] <= 3.0
    ks_ok = ex["ks_statistic"] <= ex["ks_threshold"]
    ok = moments_ok and ks_ok and elapsed < 120.0
    verdict(
        8,
        ok,
        f"Brownian weighted functional: mean_inner={ex['mean_inner']:.4f} "
        f"(z={ex['inner_z_score']:.2f}), mean F^2={ex['mean_f_squared']:.4f} "
        f"(z={ex['f_squared_z_score']:.2f}), KS={ex['ks_statistic']:.5f} vs "
        f"{ex['ks_threshold']:.5f} ({elapsed:.1f}s)",
    )
    assert ex["inner_z_score"] <= 3.0
    assert ex["f_squared_z_score"] <= 3.0
    assert elapsed < 120.0
    assert ks_ok, (
        f"KS distance to the symmetric mixture limit is "
        f"{ex['ks_statistic']:.5f}, above the 1% critical value "
        f"{ex['ks_threshold']:.5f}: at n=512 the statistic still carries "
        f"skewness ~ 2^2.5/sqrt(n) = 0.25, which a 10^5-sample two-sample "
        f"test resolves with huge power (p={ex['ks_p_value']:.3g})"
    )


def test_criterion_9_determinism_byte_identical_reports(verdict):
    base_mixture, base_arrays = _central_mixture_run()
    base_brownian, base_brownian_arrays = _brownian_run()
    fresh_mixture, fresh_arrays = mixture_comparison(
        *_MIXTURE_ARGS, **_MIXTURE_KWARGS
    )
    fresh_brownian, fresh_brownian_arrays = brownian_example_run(*_BROWNIAN_ARGS)

    mixture_bytes = canonical_json(without_meta(base_mixture.to_dict()))
    brownian_bytes = canonical_json(without_meta(base_brownian.to_dict()))
    mixture_same = mixture_bytes == canonical_json(
        without_meta(fresh_mixture.to_dict())
    )
    brownian_same = brownian_bytes == canonical_json(
        without_meta(fresh_brownian.to_dict())
    )
    arrays_same = all(
        np.array_equal(base[key], fresh[key])
        for base, fresh in (
            (base_arrays, fresh_arrays),
            (base_brownian_arrays, fresh_brownian_arrays),
        )
        for key in base
    )
    ok = mixture_same and brownian_same and arrays_same
    verdict(
        9,
        ok,
        f"repeat runs byte-identical outside meta: mixture={mixture_same}, "
        f"brownian={brownian_same}, sample arrays={arrays_same}",
    )
    assert mixture_same
    assert brownian_same
    assert arrays_same

"""End-to-end Monte Carlo experiments comparing variation statistics to limit laws.

Two pipelines are provided, both fully determined by ``(seed, m, parameters)``:

``mixture_comparison``
    Simulates the weighted Hermite variation statistic on fBm paths and
    compares its renormalized form against the predicted mixed-Gaussian
    limit.  In the central regime (1/(2q) < H < 1 - 1/(2q)) the corrected
    statistic is tested against sigma * sqrt(int f(B)^2) * N; exactly at the
    lower critical point H = 1/(2q) the uncorrected statistic is tested
    against the combined limit that adds the deterministic Riemann term
    c_q * int f^(q)(B_s) ds on the same path.  Three sub-checks are run:
    a variance ratio (optional), a two-sample KS test against an
    independently sampled reference, and the conditional characteristic
    function test of stable convergence.

``riemann_comparison``
    In the lower regime (H < 1/(2q)) compares n^{qH-1/2} G_n against the
    per-path Riemann term c_q * (1/n) sum_k f^(q)(B_{k/n}) in relative L2
    distance, checking that the distance decreases along a schedule of grid
    sizes and ends below a target.

Both return ``(TestReport, arrays)`` where ``arrays`` holds the per-replica
columns used for CSV export.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .fbm import FbmGrid, stream_paths
from .limits import (
    KS_ALPHA,
    CF_THRESHOLD,
    MixtureSpec,
    conditional_cf_test,
    default_cf_functionals,
    ks_two_sample,
    sample_mixture_limit,
)
from .report import TestReport
from .rng import derive_seed
from .variations import classify_regime, full_variation, sigma_hq
from .weights import WeightFunction

__all__ = ["mixture_comparison", "riemann_comparison"]


def _constant_scale(normalization: str, q: int) -> float:
    """Factor dividing monic-convention constants under the given convention."""
    if normalization == "monic":
        return 1.0
    if normalization == "scaled":
        return float(math.factorial(q))
    raise ValueError(f"unknown normalization {normalization!r}")


def mixture_comparison(
    q: int,
    H: float,
    weight: WeightFunction,
    n: int,
    m: int,
    seed: int,
    *,
    normalization: str = "monic",
    constants_normalization: str | None = None,
    n_fine: int = 4096,
    method: str = "circulant",
    variance_tolerance: float | None = None,
    alpha: float = KS_ALPHA,
    cf_threshold: float = CF_THRESHOLD,
) -> tuple[TestReport, dict[str, np.ndarray]]:
    """Compare the renormalized variation statistic to its mixture limit.

    ``normalization`` selects the Hermite convention used to compute the
    statistic; ``constants_normalization`` (defaulting to the same value)
    selects the convention used for the limit constants sigma_{H,q} and c_q.
    Passing different conventions deliberately mismatches statistic and
    constants — the variance ratio then lands near 1/(q!)^2, which is the
    ledger check that the two conventions are not interchangeable.
    """
    start_time = time.perf_counter()
    if m <= 0:
        raise ValueError("m must be positive")
    constants_normalization = constants_normalization or normalization
    regime = classify_regime(q, H)
    if regime.label not in ("mixed_clt", "critical_lower"):
        raise ValueError(
            f"mixture comparison applies to the central regime or the lower "
            f"critical point; got regime {regime.label!r} for q={q}, H={H}"
        )

    const_scale = _constant_scale(constants_normalization, q)
    sigma_sq = sigma_hq(H, q).sigma_sq / const_scale**2
    shift_coefficient = 0.0
    if regime.label == "critical_lower":
        shift_coefficient = (-1.0) ** q / 2.0**q / const_scale

    grid = FbmGrid(hurst=H, n=n)
    statistic_chunks: list[np.ndarray] = []
    s2_chunks: list[np.ndarray] = []
    shift_chunks: list[np.ndarray] = []
    for batch in stream_paths(grid, m, seed, method):
        result = full_variation(batch, q, weight, normalization)
        statistic_chunks.append(result.renormalized)
        s2_chunks.append(sigma_sq * result.mean_square_weight)
        if shift_coefficient != 0.0:
            shift_chunks.append(shift_coefficient * result.mean_weight_derivative)
    statistic = np.concatenate(statistic_chunks)
    own_s2 = np.concatenate(s2_chunks)
    own_shift = (
        np.concatenate(shift_chunks) if shift_chunks else np.zeros_like(statistic)
    )

    spec = MixtureSpec(
        q=q,
        H=H,
        weight=weight,
        n_fine=n_fine,
        sigma=math.sqrt(sigma_sq),
        shift_coefficient=shift_coefficient,
        shift_order=q if shift_coefficient != 0.0 else 0,
    )
    reference = sample_mixture_limit(spec, m, derive_seed(seed, "limit-reference"))

    ks_report = ks_two_sample(statistic, reference.values, alpha=alpha)
    cf_report = conditional_cf_test(
        statistic,
        default_cf_functionals(own_s2),
        own_s2,
        shifts=own_shift if shift_coefficient != 0.0 else None,
    )

    variance_statistic = float(statistic.var(ddof=1))
    variance_target = float(own_s2.mean() + own_shift.var(ddof=1))
    variance_ratio = variance_statistic / variance_target
    sub_scores = {
        "ks": float(ks_report.statistic / ks_report.threshold),
        "cf": float(cf_report.statistic / cf_threshold),
    }
    if variance_tolerance is not None:
        sub_scores["variance"] = abs(variance_ratio - 1.0) / variance_tolerance
    worst = max(sub_scores.values())

    mismatched = constants_normalization != normalization
    name = f"mixture-comparison-q{q}-h{H:g}" + ("-mismatched" if mismatched else "")
    report = TestReport(
        name=name,
        statistic=worst,
        threshold=1.0,
        sample_sizes=(m, m),
        seeds=(seed,),
        extras={
            "regime": regime.label,
            "normalization": normalization,
            "constants_normalization": constants_normalization,
            "sigma_sq": sigma_sq,
            "shift_coefficient": shift_coefficient,
            "variance_statistic": variance_statistic,
            "variance_target": variance_target,
            "variance_ratio": variance_ratio,
            "variance_tolerance": variance_tolerance,
            "ks_statistic": float(ks_report.statistic),
            "ks_threshold": float(ks_report.threshold),
            "ks_p_value": ks_report.extras["p_value"],
            "cf_ratio": float(cf_report.statistic),
            "cf_threshold": cf_threshold,
            "sub_scores": sub_scores,
            "n": n,
            "n_fine": n_fine,
        },
        meta={"runtime_seconds": time.perf_counter() - start_time},
    )
    arrays = {
        "statistic": statistic,
        "own_s2": own_s2,
        "own_shift": own_shift,
        "reference": reference.values,
        "reference_s2": reference.conditional_variances,
    }
    return report, arrays


def riemann_comparison(
    q: int,
    H: float,
    weight: WeightFunction,
    n_values: tuple[int, ...],
    m: int,
    seed: int,
    *,
    normalization: str = "monic",
    method: str = "circulant",
    target_tolerance: float = 0.10,
) -> tuple[TestReport, dict[str, np.ndarray]]:
    """Relative L2 distance of n^{qH-1/2} G_n to the per-path Riemann term.

    The renormalization cancels in the ratio, so the distance is computed as
    sqrt(E[(G_n - correction)^2] / E[correction^2]) on coupled paths.  The
    report passes when the distance strictly decreases along ``n_values`` and
    the final distance is at most ``target_tolerance``.
    """
    start_time = time.perf_counter()
    if m <= 0:
        raise ValueError("m must be positive")
    if len(n_values) < 2:
        raise ValueError("need at least two grid sizes to check decrease")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    regime = classify_regime(q, H)
    if regime.label != "lower":
        raise ValueError(
            f"riemann comparison applies below H = 1/(2q); got regime "
            f"{regime.label!r} for q={q}, H={H}"
        )

    distances: list[float] = []
    norm_ratio_gaps: list[float] = []
    all_n: list[np.ndarray] = []
    all_renormalized: list[np.ndarray] = []
    all_riemann: list[np.ndarray] = []
    for n in n_values:
        grid = FbmGrid(hurst=H, n=n)
        factor = regime.renormalization_factor(n)
        sq_diff = 0.0
        sq_term = 0.0
        sq_stat = 0.0
        for batch in stream_paths(grid, m, seed, method):
            result = full_variation(batch, q, weight, normalization)
            renormalized = factor * result.gn
            riemann = factor * result.correction
            sq_diff += float(np.sum((renormalized - riemann) ** 2))
            sq_term += float(np.sum(riemann**2))
            sq_stat += float(np.sum(renormalized**2))
            all_n.append(np.full(batch.m, n, dtype=float))
            all_renormalized.append(renormalized)
            all_riemann.append(riemann)
        if sq_term == 0.0:
            raise ValueError(
                f"the Riemann limit c_q * int f^({q})(B_s) ds is identically zero for "
                f"weight {weight.describe()} at q={q}: f^({q}) vanishes on every sampled "
                "path, so the relative distance to it is undefined"
            )
        distances.append(math.sqrt(sq_diff / sq_term))
        norm_ratio_gaps.append(abs(math.sqrt(sq_stat / sq_term) - 1.0))

    ratios = [b / a for a, b in zip(distances, distances[1:])]
    statistic = max(distances[-1] / target_tolerance, max(ratios))
    report = TestReport(
        name=f"riemann-comparison-q{q}-h{H:g}",
        statistic=statistic,
        threshold=1.0,
        sample_sizes=(m,),
        seeds=(seed,),
        extras={
            "regime": regime.label,
            "normalization": normalization,
            "n_values": list(n_values),
            "distances": {str(n): d for n, d in zip(n_values, distances)},
            "decrease_ratios": ratios,
            "target_tolerance": target_tolerance,
            "norm_ratio_gaps": {str(n): g for n, g in zip(n_values, norm_ratio_gaps)},
        },
        meta={"runtime_seconds": time.perf_counter() - start_time},
    )
    arrays = {
        "n": np.concatenate(all_n),
        "renormalized": np.concatenate(all_renormalized),
        "riemann_term": np.concatenate(all_riemann),
    }
    return report, arrays

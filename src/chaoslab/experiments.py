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
    sizes and ends at most ``RIEMANN_TARGET_TOLERANCE``.

Both return ``(TestReport, arrays)`` where ``arrays`` holds the per-replica
columns used for CSV export.  Both reduce their fBm paths in consumers of
:func:`chaoslab.fbm.map_paths` that fill those columns, whatever the thread count.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .fbm import FbmGrid, FbmPathBatch, map_paths
from .hermite import normalization_scale
from .limits import (
    KS_ALPHA,
    MixtureSpec,
    conditional_cf_test,
    ks_two_sample,
    sample_mixture_limit,
)
from .report import TestReport
from .rng import derive_seed
from .variations import classify_regime, correction_constant, full_variation, sigma_hq
from .weights import WeightFunction

__all__ = ["mixture_comparison", "riemann_comparison"]

# riemann_comparison sums its squared terms per slice of this many paths, in
# index order; that order fixes the report's digits
PATH_CHUNK = 2048
# riemann_comparison passes when its final relative L2 distance is at most this
RIEMANN_TARGET_TOLERANCE = 0.10


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
    variance_tolerance: float | None = None,
    alpha: float = KS_ALPHA,
) -> tuple[TestReport, dict[str, np.ndarray]]:
    """Compare the renormalized variation statistic to its mixture limit.

    ``normalization`` selects the Hermite convention used to compute the
    statistic; ``constants_normalization`` (defaulting to the same value)
    selects the convention used for the limit constants sigma_{H,q} and c_q.
    Passing different conventions deliberately mismatches statistic and
    constants — the variance ratio then lands near 1/(q!)^2, which is the
    ledger check that the two conventions are not interchangeable.

    The report's statistic is the worst of the sub-scores KS statistic /
    critical value, CF ratio / ``limits.CF_THRESHOLD`` and, when
    ``variance_tolerance`` (> 0) is given, |variance ratio - 1| /
    ``variance_tolerance``; it passes at most 1.
    """
    start_time = time.perf_counter()
    if m < 2:
        raise ValueError(
            f"need m >= 2 replicas (the variance ratio takes ddof=1 variances), got m = {m}"
        )
    if variance_tolerance is not None and not variance_tolerance > 0:
        raise ValueError(f"variance_tolerance must be positive, got {variance_tolerance}")
    constants_normalization = constants_normalization or normalization
    regime = classify_regime(q, H)
    if regime.label not in ("mixed_clt", "critical_lower"):
        raise ValueError(
            f"mixture comparison applies to the central regime or the lower "
            f"critical point; got regime {regime.label!r} for q={q}, H={H}"
        )

    const_scale = normalization_scale(q, constants_normalization)
    sigma_sq = sigma_hq(H, q).sigma_sq / const_scale**2
    shift_coefficient = 0.0
    if regime.label == "critical_lower":
        shift_coefficient = correction_constant(q, constants_normalization)
    spec = MixtureSpec(q, H, weight, math.sqrt(sigma_sq), n_fine, shift_coefficient)

    statistic, own_s2, own_shift = np.empty(m), np.empty(m), np.zeros(m)

    def consume(start: int, batch: FbmPathBatch) -> None:
        rows = slice(start, start + batch.m)
        result = full_variation(batch, q, weight, normalization)
        statistic[rows] = result.renormalized
        own_s2[rows] = sigma_sq * result.mean_square_weight
        if shift_coefficient != 0.0:
            own_shift[rows] = shift_coefficient * result.mean_weight_derivative

    map_paths(FbmGrid(hurst=H, n=n), m, seed, consume)
    reference = sample_mixture_limit(spec, m, derive_seed(seed, "limit-reference"))

    ks_report = ks_two_sample(statistic, reference.values, alpha=alpha)
    cf_report = conditional_cf_test(
        statistic, own_s2, shifts=own_shift if shift_coefficient != 0.0 else None
    )

    variance_statistic = float(statistic.var(ddof=1))
    variance_target = float(own_s2.mean() + own_shift.var(ddof=1))
    variance_ratio = variance_statistic / variance_target
    sub_scores = {
        "ks": float(ks_report.statistic / ks_report.threshold),
        "cf": float(cf_report.statistic / cf_report.threshold),
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
            "cf_threshold": cf_report.threshold,
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
) -> tuple[TestReport, dict[str, np.ndarray]]:
    """Relative L2 distance of n^{qH-1/2} G_n to the per-path Riemann term.

    The renormalization cancels in the ratio, so the distance is computed as
    sqrt(E[(G_n - correction)^2] / E[correction^2]) on coupled paths.  The
    report passes when the distance strictly decreases along ``n_values`` and
    the final distance is at most ``RIEMANN_TARGET_TOLERANCE``.
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
    all_renormalized: list[np.ndarray] = []
    all_riemann: list[np.ndarray] = []
    for n in n_values:
        factor = regime.renormalization_factor(n)
        renormalized, riemann = np.empty(m), np.empty(m)

        def consume(start: int, batch: FbmPathBatch) -> None:
            rows = slice(start, start + batch.m)
            result = full_variation(batch, q, weight, normalization)
            renormalized[rows] = factor * result.gn
            riemann[rows] = factor * result.correction

        map_paths(FbmGrid(hurst=H, n=n), m, seed, consume)
        all_renormalized.append(renormalized)
        all_riemann.append(riemann)
        sq_diff = sq_term = sq_stat = 0.0
        for lo in range(0, m, PATH_CHUNK):
            ren, rie = renormalized[lo : lo + PATH_CHUNK], riemann[lo : lo + PATH_CHUNK]
            sq_diff += float(np.sum((ren - rie) ** 2))
            sq_term += float(np.sum(rie**2))
            sq_stat += float(np.sum(ren**2))
        if sq_term == 0.0:
            raise ValueError(
                f"the Riemann limit c_q * int f^({q})(B_s) ds is identically zero for "
                f"weight {weight.describe()} at q={q}: f^({q}) vanishes on every sampled "
                "path, so the relative distance to it is undefined"
            )
        distances.append(math.sqrt(sq_diff / sq_term))
        norm_ratio_gaps.append(abs(math.sqrt(sq_stat / sq_term) - 1.0))

    ratios = [b / a for a, b in zip(distances, distances[1:])]
    statistic = max(distances[-1] / RIEMANN_TARGET_TOLERANCE, max(ratios))
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
            "target_tolerance": RIEMANN_TARGET_TOLERANCE,
            "norm_ratio_gaps": {str(n): g for n, g in zip(n_values, norm_ratio_gaps)},
        },
        meta={"runtime_seconds": time.perf_counter() - start_time},
    )
    arrays = {
        "n": np.repeat(np.asarray(n_values, dtype=float), m),
        "renormalized": np.concatenate(all_renormalized),
        "riemann_term": np.concatenate(all_riemann),
    }
    return report, arrays

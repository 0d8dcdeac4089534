#!/usr/bin/env python3
"""Convergence of the per-path lag-sum functional to the limit variance.

The conditional variance of the weighted Hermite variation statistic is
captured by the quadratic functional

    A_n = q!/n * sum_{l,j} rho(l-j)^q f(B_{l/n}) f(B_{j/n}),

which converges to sigma^2 * int_0^1 f(B_s)^2 ds, with
sigma^2 = q! * sum_r rho(r)^q the limit variance constant.  With f = 1 the
limit is the deterministic constant itself, which gives a sharp, seedable
convergence diagnostic; with a genuine weight the ratio of A_n to
sigma^2 * (1/n) sum_k f(B_k)^2 tends to 1 path by path.

The script tabulates both diagnostics over a dyadic range of n for several
Hurst indices in the central regime.
"""

from __future__ import annotations

import numpy as np

from chaoslab.fbm import FbmGrid, sample_paths
from chaoslab.variations import a_n_statistic, sigma_hq
from chaoslab.weights import WeightFunction


def _sigma_sq(h: float) -> float:
    # Above H = 1/2 the lag series decays like r^(4H-4), so a 1e-10
    # truncation would need billions of terms; 2e-6 keeps it to millions.
    return sigma_hq(h, 2, tol=1e-10 if h < 0.5 else 2e-6).sigma_sq


def main() -> None:
    paths = 8
    cos_weight = WeightFunction.cosine(1.0, 1.0)
    one = WeightFunction.polynomial(1.0)

    print("A_n with f = 1 vs the limit constant sigma^2 (q = 2)")
    print(f"{'n':>7}", end="")
    hursts = (0.3, 0.45, 0.6)
    for h in hursts:
        print(f"   H={h}: rel gap", end="")
    print()
    for power in (8, 10, 12, 14):
        n = 2**power
        print(f"{n:>7}", end="")
        for h in hursts:
            sigma_sq = _sigma_sq(h)
            batch = sample_paths(FbmGrid(h, n), 1, seed=20)
            a_n = float(a_n_statistic(batch, 2, one)[0])
            print(f"   {abs(a_n / sigma_sq - 1.0):>14.3e}", end="")
        print(flush=True)
    print("(deterministic: with f = 1 every path gives the same value)")
    print()

    print("A_n with f = cos(x) vs sigma^2 * mean_k f(B_k)^2, per-path ratios")
    print(f"{'n':>7} {'H':>5} {'mean ratio':>12} {'max |ratio-1|':>14}")
    for h in (0.3, 0.6):
        sigma_sq = _sigma_sq(h)
        for power in (8, 11, 14):
            n = 2**power
            batch = sample_paths(FbmGrid(h, n), paths, seed=20)
            a_n = a_n_statistic(batch, 2, cos_weight)
            levels = batch.levels_at_increment_start()
            target = sigma_sq * (cos_weight(levels) ** 2).mean(axis=1)
            ratio = a_n / target
            print(
                f"{n:>7} {h:>5} {ratio.mean():>12.6f} "
                f"{np.max(np.abs(ratio - 1.0)):>14.3e}",
                flush=True,
            )
    print()
    print(
        "The f = 1 column shows the O(n^{2H-3/2}) bias of the truncated lag\n"
        "sums; the weighted ratios concentrate at 1, which is exactly the\n"
        "random-variance ingredient of the mixed-Gaussian limit."
    )


if __name__ == "__main__":
    main()

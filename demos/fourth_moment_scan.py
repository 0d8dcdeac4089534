#!/usr/bin/env python3
"""Exact fourth-moment scan for the quadratic variation statistic.

For the variance-normalized second-chaos statistic built from n fractional
Gaussian increments, the fourth moment is computable exactly from Toeplitz
traces.  Normality of the limit is equivalent to the normalized fourth
moment approaching 3, and the distance to the normal CDF is bounded by
sqrt(1/6) * sqrt(E[F^4] - 3).

This script tabulates the exact moment over a dyadic grid of n and several
Hurst indices, showing the monotone decrease toward 3 (slower as H
approaches the 3/4 breakdown point) and the implied CDF-distance bound.
Every size runs the same O(n^2) diagonal recursion for tr(M^4); the n = 2^14
row takes a few seconds per Hurst index.
"""

from __future__ import annotations

import argparse
import math

from chaoslab.limits import berry_esseen_coefficient, chaos2_fourth_moment_exact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the scan at n=4096 (a few seconds)",
    )
    args = parser.parse_args()

    hursts = (0.3, 0.5, 0.6, 0.7)
    powers = range(4, 13 if args.quick else 15)
    coeff = berry_esseen_coefficient(2)

    print("exact normalized fourth moment E[F_n^4] (Gaussian limit <=> -> 3)")
    header = f"{'n':>7}" + "".join(f"  H={h:<11}" for h in hursts)
    print(header)
    m4 = {}
    for power in powers:
        n = 2**power
        row = [f"{n:>7}"]
        for h in hursts:
            m4[h, n] = chaos2_fourth_moment_exact(h, n).normalized_m4
            row.append(f"  {m4[h, n]:<12.7f}")
        print("".join(row), flush=True)

    print()
    print("implied bound on sup_z |P(F_n <= z) - Phi(z)|:")
    print(f"{'n':>7}" + "".join(f"  H={h:<11}" for h in hursts))
    for power in (6, 10, powers[-1]):
        n = 2**power
        row = [f"{n:>7}"]
        for h in hursts:
            row.append(f"  {coeff * math.sqrt(abs(m4[h, n] - 3.0)):<12.3e}")
        print("".join(row))
    print()
    print(
        "At H = 1/2 the moment is exactly 3 + 12/n; the excess over 3 decays\n"
        "like n^-1 for H below 5/8 and like n^(8H-6) above (visible in the\n"
        "H=0.7 column), so the CDF bound shrinks like the square root of that\n"
        "and normality breaks down as H approaches 3/4."
    )


if __name__ == "__main__":
    main()

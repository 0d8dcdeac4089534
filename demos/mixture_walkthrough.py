#!/usr/bin/env python3
"""End-to-end walkthrough of the mixed-Gaussian limit verification.

Story line, at reduced Monte Carlo scale (~15 s):

1. classify the (q, H) regime and fetch the limit-variance constant;
2. simulate fractional paths, form the weighted Hermite variation G_n,
   subtract the deterministic correction, and keep the statistic's own
   conditional variance from the same paths;
3. draw an independent reference sample from the mixture law
   N(0, sigma^2 int f(B)^2 ds);
4. compare: variance ratio, two-sample KS, and the conditional
   characteristic-function test that certifies the *mixture* structure
   (not just the marginal law);
5. repeat at the lower critical Hurst index, where the limit acquires a
   deterministic shift proportional to the second derivative of the weight.
"""

from __future__ import annotations

from chaoslab.experiments import mixture_comparison
from chaoslab.variations import classify_regime, sigma_hq
from chaoslab.weights import WeightFunction

Q = 2
N = 1024
M = 2000
SEED = 20260815
WEIGHT = WeightFunction.cosine(1.0, 1.0)


def _describe(report) -> None:
    ex = report.extras
    print(f"  regime                 {ex['regime']}")
    print(f"  limit variance const   {ex['sigma_sq']:.6f}")
    if ex["shift_coefficient"]:
        print(f"  deterministic shift    {ex['shift_coefficient']:+.4f} * mean f''(B)")
    if ex["variance_tolerance"] is not None:
        print(
            f"  variance ratio         {ex['variance_ratio']:.4f}"
            f"  (tolerance +-{ex['variance_tolerance']:.0%})"
        )
    print(
        f"  two-sample KS          {ex['ks_statistic']:.5f}"
        f"  (1% critical value {ex['ks_threshold']:.5f},"
        f" p = {ex['ks_p_value']:.3g})"
    )
    print(
        f"  conditional CF         {ex['cf_ratio']:.3f}"
        f"  (threshold {ex['cf_threshold']:.0f} std errors)"
    )
    print(f"  verdict                {report.summary_line().split(':')[0]}")


def main() -> None:
    h_central = 0.35
    regime = classify_regime(Q, h_central)
    sigma = sigma_hq(h_central, Q)
    print(f"central regime: q={Q}, H={h_central} -> {regime.label}")
    print(
        f"  sigma^2 = {Q}! * sum_r rho(r)^{Q} = {sigma.sigma_sq:.6f} "
        f"(series truncated at |rho|^q < 1e-10)"
    )
    print(f"  corrected statistic, n={N}, m={M} paths, seed={SEED}")
    report, _ = mixture_comparison(
        Q, h_central, WEIGHT, N, M, SEED, variance_tolerance=0.08
    )
    _describe(report)
    print()

    h_critical = 1.0 / (2 * Q)
    print(f"lower critical point: q={Q}, H={h_critical} -> "
          f"{classify_regime(Q, h_critical).label}")
    print("  no correction subtracted; the limit itself carries the shift")
    report, _ = mixture_comparison(Q, h_critical, WEIGHT, N, M, SEED)
    _describe(report)
    print()
    print(
        "The KS test checks only the marginal law; the conditional CF test\n"
        "couples the reference variance (and, at the critical point, the\n"
        "shift) to the SAME simulated path, which is what distinguishes a\n"
        "genuine Gaussian mixture from a plain Gaussian fit."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Walk through the exact Malliavin-calculus identities on a tiny space.

Everything here is exact coefficient arithmetic: functionals are polynomials
in finitely many correlated Gaussians, expectations are Isserlis pairing
sums, and each identity is checked by evaluating both sides and printing the
absolute gap (which should sit at roundoff, ~1e-16).

The finale runs the randomized suite: hundreds of instances over random
low-dimensional spaces, random polynomial functionals, and random tensor
fields, with one table row per identity.
"""

from __future__ import annotations

import numpy as np

from chaoslab.identities import (
    commutation_gap,
    covariance_gap,
    duality_gap,
    generator_gap,
    isometry_gap,
    product_gap,
    run_identity_suite,
)
from chaoslab.malliavin import PolyTensor, derivative, multiple_integral, skorohod
from chaoslab.polyrv import wick_expectation
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor, contract


def main() -> None:
    # A two-dimensional Gaussian space with correlation 0.6: X0, X1 standard
    # normals with E[X0 X1] = 0.6.
    gram = np.array([[1.0, 0.6], [0.6, 1.0]])
    space = GaussianSpace(gram)
    x0 = space.basis_rv(0)
    x1 = space.basis_rv(1)

    print("space: 2 Gaussians, unit variance, correlation 0.6")
    print(f"  E[X0 X1]       = {wick_expectation(x0 * x1):.6f}")
    print(f"  E[X0^2 X1^2]   = {wick_expectation(x0 * x0 * x1 * x1):.6f}"
          "   (Isserlis: 1 + 2 rho^2)")
    print()

    # Duality: E[F delta(u)] = E[<DF, u>] for F = X0^2 X1 and a field with
    # orthonormal components (X1, X0^2).
    F = x0 * x0 * x1
    u = PolyTensor(space, [x1, x0 * x0])
    lhs = wick_expectation(F * skorohod(u, 1))
    dF = derivative(F, 1)
    rhs = wick_expectation(_inner(dF, u))
    print("duality on F = X0^2 X1, u = (X1, X0^2):")
    print(f"  E[F delta(u)]  = {lhs:.12f}")
    print(f"  E[<DF, u>]     = {rhs:.12f}")
    print(f"  gap            = {duality_gap(F, u):.3e}")
    print()

    # Iterated-integral isometry: E[I_2(f) I_2(g)] = 2 <sym f, sym g>.
    f2 = SymTensor(space, np.array([[1.0, 0.3], [0.3, -0.5]]))
    g2 = SymTensor(space, np.array([[0.2, -1.0], [-1.0, 0.7]]))
    i2f = multiple_integral(f2)
    i2g = multiple_integral(g2)
    print("isometry on two symmetric order-2 kernels:")
    print(f"  E[I2(f) I2(g)] = {wick_expectation(i2f * i2g):.12f}")
    print(f"  2 <f, g>_H     = {2.0 * contract(f2, g2, 2):.12f}")
    print(f"  gap            = {isometry_gap(f2, g2):.3e}")
    print()

    # The remaining identities, one handcrafted instance each.
    sym_u = PolyTensor(space, np.array(
        [[x0, x1], [x1, x0 * x1]], dtype=object
    ))
    print("remaining identities (handcrafted instances):")
    print(f"  product rule (q=2)        gap = {product_gap(F, sym_u):.3e}")
    print(f"  commutation D delta^2     gap = {commutation_gap(sym_u, 1):.3e}")
    print(f"  covariance delta^2,delta^2 gap = {covariance_gap(sym_u, sym_u):.3e}")
    print(f"  generator two routes      gap = {generator_gap(F):.3e}")
    print()

    # The randomized suite: random spaces (dim <= 4), random fields, random
    # polynomials, every identity, exact evaluation.
    report = run_identity_suite(seed=0, instances=240, tolerance=1e-9)
    print(report.summary_line())
    print(f"{'identity':<14} {'instances':>9} {'max gap':>12} {'failures':>9}")
    for name, stats in sorted(report.extras["per_identity"].items()):
        print(
            f"{name:<14} {stats['instances']:>9} "
            f"{stats['max_gap']:>12.3e} {stats['failures']:>9}"
        )


def _inner(a: PolyTensor, b: PolyTensor):
    """<a, b> for order-1 fields: entrywise sum (tensor slots hold
    orthonormal coordinates, so the metric is the identity)."""
    total = None
    for i in range(a.space.dim):
        term = a.entries[i] * b.entries[i]
        total = term if total is None else total + term
    return total


if __name__ == "__main__":
    main()

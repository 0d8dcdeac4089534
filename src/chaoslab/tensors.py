"""Symmetric kernels over a Gaussian space's raw basis, and their Gram inner product.

A :class:`SymTensor` of order q over a d-dimensional space stores a dense,
symmetric coefficient array indexed by {0..d−1}^q: the kernel f̃ of a
multiple integral I_q(f̃).  :func:`inner` pairs two kernels of one order
through the space's Gram matrix on every slot (not the Euclidean dot
product), which is the ⟨f̃, g̃⟩ of the isometry E[I_q(f)I_q(g)] = q!·⟨f̃, g̃⟩.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 6
_MAX_DENSE = 1 << 24  # guard on d**q dense storage


class SymTensor:
    """Symmetric order-q kernel over a space's raw basis (dense storage).

    Coefficients symmetric within 1e-12 are kept as given; any others are
    replaced by their average over all slot permutations.
    """

    __slots__ = ("space", "order", "coeffs")

    def __init__(self, space, coeffs):
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
        perms = list(itertools.permutations(range(q)))
        # keeping near-symmetric input keeps its bits: averaging six copies of
        # 0.1 gives 0.09999999999999999
        if any(np.abs(np.transpose(order_arr, perm) - order_arr).max() > 1e-12 for perm in perms):
            acc = np.zeros_like(order_arr)
            for perm in perms:
                acc += np.transpose(order_arr, perm)
            order_arr = acc / len(perms)
        self.space = space
        self.order = q
        self.coeffs = order_arr

    def __repr__(self):
        return f"SymTensor(dim={self.space.dim}, order={self.order})"


def inner(f: SymTensor, g: SymTensor) -> float:
    """⟨f, g⟩ = Σ f[i..]·g[j..]·Π_t G[i_t, j_t] for kernels of one order."""
    f.space.check_same(g.space, "tensors.inner")
    q = f.order
    if g.order != q:
        raise ValueError(f"inner needs kernels of one order, got {q} and {g.order}")
    gram = f.space.gram
    A = f.coeffs
    # each tensordot transforms the leading slot and appends it at the end,
    # so after q passes the slots are back in order
    for _ in range(q):
        A = np.tensordot(A, gram, axes=([0], [0]))
    slots = list(range(q))
    return float(np.tensordot(A, g.coeffs, axes=(slots, slots)))

"""Exact Malliavin operators on polynomial functionals.

Conventions (all on the orthonormal coordinates Z_0..Z_{d−1} of a
:class:`~chaoslab.space.GaussianSpace`):

* A :class:`PolyTensor` holds its entries as a numpy object array of
  :class:`~chaoslab.polyrv.PolyRV` of shape (d,)*order.  Every operator is an
  array expression: numpy applies the PolyRV operation entry by entry, in C
  order, and a sum over slots is a left fold in C order of the summed slots.
* Derivative ``D`` prepends a slot:  (D u)[a, idx] = ∂_a u[idx].  D^k F is then
  automatically symmetric in its k slots (partial derivatives commute).
* Divergence ``δ`` contracts the *last* slot:
  δ(u)[idx] = Σ_b ( u[idx+(b,)]·Z_b − ∂_b u[idx+(b,)] ),
  and δ^q iterates this slot by slot.
* ``multiple_integral`` maps a symmetric order-q kernel to the q-th chaos via
  monic Hermite products: the ON multi-index with multiplicities (m_1..m_d)
  maps to Π_a He_{m_a}(Z_a).
* ``ou_generator`` returns L F, computed either as −δ(DF) or through the
  chaos expansion L = −Σ_q q·J_q; the two routes agree identically and that
  agreement is a standing test invariant.

These operators satisfy, exactly (up to float rounding), the classical
identities: duality E[F·δ^q(u)] = E[⟨D^qF, u⟩]; the product formula
F·δ^q(u) = Σ_r C(q,r)·δ^{q−r}(⟨D^rF, u⟩); the commutation rule
D^k δ^j(u) = Σ_i C(k,i)C(j,i)·i!·δ^{j−i}(D^{k−i}u) (as symmetric tensors in
the k free slots); and the covariance formula
E[δ^q(u)δ^q(v)] = Σ_i C(q,i)²·i!·E[⟨D^{q−i}u, D^{q−i}v⟩].
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .hermite import hermite_monomial_coeffs, monomial_hermite_coeffs
from .polyrv import PolyRV, wick_expectation
from .tensors import SymTensor


class PolyTensor:
    """Tensor of PolyRV entries with slots indexed by orthonormal coordinates.

    ``entries`` is a numpy object array of shape (d,)*order; arithmetic on it
    applies the PolyRV operation entry by entry, in C order.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space, entries):
        arr = np.asarray(entries, dtype=object)
        d = space.dim
        if arr.shape != (d,) * arr.ndim:
            raise ValueError(f"entries shape {arr.shape} must be ({d},)*order")
        for entry in arr.flat:
            if not isinstance(entry, PolyRV):
                raise TypeError("entries must be PolyRV objects")
            # an identity test first: the spaces of one computation are one object
            if entry.space is not space:
                _check_same_space(space, entry.space, "PolyTensor construction")
        self.space = space
        self.entries = arr

    @property
    def order(self) -> int:
        return self.entries.ndim

    @classmethod
    def from_constant_tensor(cls, tensor: SymTensor) -> "PolyTensor":
        """Deterministic kernel, transformed from the raw basis to ON coordinates."""
        space = tensor.space
        return cls(space, _each(lambda c: PolyRV.constant(space, c), _to_onb_coeffs(tensor)))

    def __add__(self, other: "PolyTensor") -> "PolyTensor":
        _check_same_space(self.space, other.space, "PolyTensor addition")
        if self.entries.shape != other.entries.shape:
            raise ValueError("order mismatch")
        return PolyTensor(self.space, self.entries + other.entries)

    def scale(self, c: float) -> "PolyTensor":
        return PolyTensor(self.space, self.entries * c)

    def symmetrize(self) -> "PolyTensor":
        """Average entries over all slot permutations."""
        q = self.order
        if q <= 1:
            return self
        perms = list(itertools.permutations(range(q)))
        # transpose by the inverse permutation: entry idx reads entries[idx∘perm]
        views = [np.transpose(self.entries, np.argsort(perm)) for perm in perms]
        return PolyTensor(self.space, np.add.reduce(np.stack(views)) * (1.0 / len(perms)))

    def max_abs_coeff(self) -> float:
        return max(0.0, *(e.max_abs_coeff() for e in self.entries.flat))

    def __repr__(self):
        return f"PolyTensor(dim={self.space.dim}, order={self.order})"


def _check_same_space(space, other, what: str) -> None:
    """Raise unless ``other`` is ``space`` or has its Gram matrix."""
    if not space.same_as(other):
        raise ValueError(
            f"{what} mixes Gaussian spaces: dimension {space.dim} and dimension {other.dim}, "
            "with different Gram matrices"
        )


def _each(fn, *arrays):
    """Apply ``fn`` entry by entry over broadcast object arrays."""
    return np.frompyfunc(fn, len(arrays), 1)(*arrays)


def _to_onb_coeffs(tensor: SymTensor) -> np.ndarray:
    """Transform a raw-basis kernel to ON coordinates along every slot."""
    M = tensor.space.onb_transform
    coeffs = tensor.coeffs
    q = tensor.order
    for _ in range(q):
        # transform the leading slot, then rotate it to the back; after q
        # passes the slot order is restored.
        coeffs = np.tensordot(M.T, coeffs, axes=([1], [0]))
        coeffs = np.moveaxis(coeffs, 0, q - 1)
    return coeffs


# -- derivative --------------------------------------------------------------


def derivative(F: PolyRV | PolyTensor, k: int = 1) -> PolyTensor:
    """k-fold Malliavin derivative; new slots are prepended."""
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    current = PolyTensor(F.space, F) if isinstance(F, PolyRV) else F
    for _ in range(k):
        current = _derivative_once(current)
    return current


def _derivative_once(u: PolyTensor) -> PolyTensor:
    d = u.space.dim
    slots = np.arange(d).reshape((d,) + (1,) * u.order)
    return PolyTensor(u.space, _each(PolyRV.diff, u.entries, slots))


# -- divergence ---------------------------------------------------------------


def skorohod(u: PolyTensor | SymTensor, times: int | None = None) -> PolyRV | PolyTensor:
    """Iterated divergence δ^times(u), contracting the last slot at each step.

    ``times`` defaults to the full order of ``u`` (returning a PolyRV).
    Deterministic kernels must be supplied in the orthonormal representation;
    pass a PolyTensor built via :meth:`PolyTensor.from_constant_tensor`.
    """
    if isinstance(u, SymTensor):
        raise ValueError(
            "non-orthonormal representation: transform first "
            "(PolyTensor.from_constant_tensor or multiple_integral)"
        )
    if not isinstance(u, PolyTensor):
        raise TypeError("skorohod expects a PolyTensor")
    q = u.order
    times = q if times is None else times
    if times < 1:
        raise ValueError("divergence order must be >= 1")
    if times > q:
        raise ValueError(f"divergence order {times} exceeds tensor order {q}")
    current = u
    for _ in range(times):
        current = _skorohod_once(current)
    if current.order == 0:
        return current.entries.item()
    return current


def _skorohod_once(u: PolyTensor) -> PolyTensor:
    # (acc + e·Z_b) − ∂_b e, in this order: coefficient sums round differently
    # when regrouped, and 0 + e·Z_b is e·Z_b with its terms unchanged
    acc = 0
    for b, entry in enumerate(np.moveaxis(u.entries, -1, 0)):
        acc = acc + entry * PolyRV.coordinate(u.space, b) - _each(PolyRV.diff, entry, b)
    return PolyTensor(u.space, acc)


# -- pairings -----------------------------------------------------------------


def pairwise_inner(a: PolyTensor, b: PolyTensor) -> PolyRV:
    """Full inner product over all slots (ON coordinates, identity metric)."""
    _check_same_space(a.space, b.space, "pairwise_inner")
    if a.entries.shape != b.entries.shape:
        raise ValueError("order mismatch in tensor pairing")
    return np.add.reduce(np.ravel(a.entries * b.entries))


def partial_inner(a: PolyTensor, b: PolyTensor, r: int) -> PolyTensor:
    """Pair all r slots of ``a`` against the *last* r slots of ``b``.

    Requires a.order == r; returns a PolyTensor of order b.order − r.
    """
    _check_same_space(a.space, b.space, "partial_inner")
    if a.order != r:
        raise ValueError("partial_inner pairs the whole first argument")
    if r > b.order:
        raise ValueError("contraction order exceeds tensor order")
    out_shape = b.entries.shape[: b.order - r]
    # a stays the left factor: a PolyRV product's term order follows its operands
    products = np.reshape(a.entries * b.entries, out_shape + (-1,))
    return PolyTensor(a.space, np.add.reduce(products, axis=-1))


# -- multiple Wiener–Itô integral ----------------------------------------------


def multiple_integral(f: SymTensor) -> PolyRV:
    """I_q(f) in the monic convention; symmetrizes the kernel if needed.

    Satisfies the isometry E[I_p(f)I_q(g)] = 1{p=q}·q!·⟨f̃, g̃⟩.
    """
    space = f.space
    if not f.symmetric:
        f = f.symmetrize()
    q = f.order
    if q == 0:
        return PolyRV.constant(space, float(f.coeffs))
    g = _to_onb_coeffs(f)
    d = space.dim
    he_cache = {j: hermite_monomial_coeffs(j) for j in range(q + 1)}
    total = PolyRV.constant(space, 0.0)
    for idx in itertools.combinations_with_replacement(range(d), q):
        coeff = float(g[idx])
        if coeff == 0.0:
            continue
        counts = [0] * d
        for i in idx:
            counts[i] += 1
        mult = math.factorial(q)
        term = PolyRV.constant(space, 1.0)
        for a, m_a in enumerate(counts):
            if m_a == 0:
                continue
            mult //= math.factorial(m_a)
            term = term * PolyRV.from_univariate(he_cache[m_a], PolyRV.coordinate(space, a))
        total = total + term * (coeff * mult)
    return total


# -- Ornstein–Uhlenbeck generator ----------------------------------------------


def ou_generator(F: PolyRV, method: str = "divergence") -> PolyRV:
    """L F.  method='divergence' computes −δ(DF); 'chaos' uses L = −Σ_q q·J_q."""
    if method == "divergence":
        return -skorohod(derivative(F, 1), 1)
    if method == "chaos":
        return _ou_via_chaos(F)
    raise ValueError("method must be 'divergence' or 'chaos'")


def _ou_via_chaos(F: PolyRV) -> PolyRV:
    space = F.space
    d = space.dim
    # Expand every monomial into products of monic Hermite polynomials,
    # scale each Hermite multi-term by −(total Hermite degree), convert back.
    he_terms: dict[tuple[int, ...], float] = {}
    for expo, coeff in F.terms.items():
        partial: dict[tuple[int, ...], float] = {(0,) * d: coeff}
        for a, m in enumerate(expo):
            if m == 0:
                continue
            conv = monomial_hermite_coeffs(m)
            nxt: dict[tuple[int, ...], float] = {}
            for key, c in partial.items():
                for j, cj in enumerate(conv):
                    if cj == 0.0:
                        continue
                    k2 = key[:a] + (j,) + key[a + 1:]
                    nxt[k2] = nxt.get(k2, 0.0) + c * float(cj)
            partial = nxt
        for key, c in partial.items():
            he_terms[key] = he_terms.get(key, 0.0) + c
    # scale by −q and convert back to the monomial basis
    out = PolyRV.constant(space, 0.0)
    he_cache: dict[int, np.ndarray] = {}
    for key, c in he_terms.items():
        qtot = sum(key)
        if qtot == 0 or c == 0.0:
            continue
        term = PolyRV.constant(space, -qtot * c)
        for a, j in enumerate(key):
            if j == 0:
                continue
            if j not in he_cache:
                he_cache[j] = hermite_monomial_coeffs(j)
            term = term * PolyRV.from_univariate(he_cache[j], PolyRV.coordinate(space, a))
        out = out + term
    return out


# -- expectation shortcuts -----------------------------------------------------


def expected_inner(a: PolyTensor, b: PolyTensor) -> float:
    """E[⟨a, b⟩] over all slots, via the Wick oracle."""
    return wick_expectation(pairwise_inner(a, b))

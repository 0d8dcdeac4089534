"""Finite-dimensional Gaussian spaces.

A :class:`GaussianSpace` models a centered Gaussian family X(h) indexed by a
d-dimensional real space with Gram matrix G[i,j] = E[X(h_i)X(h_j)] = ⟨h_i,h_j⟩.
Orthonormal coordinates are produced by a pivoted Cholesky factorization
G = M·Mᵀ, so that X(h_i) = Σ_a M[i,a]·Z_a for i.i.d. standard Gaussians Z_a.

Rank-deficient Gram matrices (ubiquitous for fine fBm grids) are reduced to
their non-degenerate subspace: columns of M beyond the numerical rank are
zero, which keeps ``onb_transform`` square (d×d) while all computations run on
the leading ``rank`` coordinates.
"""

from __future__ import annotations

import numpy as np

from .polyrv import PolyRV

MAX_DIMENSION = 64


def _pivoted_cholesky(gram: np.ndarray, tol_scale: float = 1e-12) -> tuple[np.ndarray, int]:
    """Return (M, rank) with M·Mᵀ = gram, M of shape (d, d), zero beyond rank."""
    d = gram.shape[0]
    M = np.zeros((d, d))
    residual = gram.diagonal().astype(float).copy()
    tol = tol_scale * max(float(residual.max(initial=0.0)), 1.0)
    rank = 0
    for _ in range(d):
        piv = int(np.argmax(residual))
        if residual[piv] <= tol:
            break
        s = np.sqrt(residual[piv])
        col = (gram[:, piv] - M[:, :rank] @ M[piv, :rank]) / s
        M[:, rank] = col
        residual -= col * col
        np.maximum(residual, 0.0, out=residual)
        rank += 1
    return M, rank


class GaussianSpace:
    """Finite Gaussian model: Gram matrix + orthonormalizing factor."""

    __slots__ = ("gram", "dim", "rank", "onb_transform")

    def __init__(self, gram):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be a square matrix")
        d = gram.shape[0]
        if d == 0 or d > MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {d}")
        sym_err = float(np.abs(gram - gram.T).max())
        if sym_err > 1e-12 * max(1.0, float(np.abs(gram).max())):
            raise ValueError(f"gram is not symmetric (max asymmetry {sym_err:.3e})")
        gram = 0.5 * (gram + gram.T)
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] < -1e-10 * max(eigs[-1], 0.0):
            raise ValueError(
                f"gram is not positive semidefinite (eigenvalue {eigs[0]:.3e})"
            )
        M, rank = _pivoted_cholesky(gram)
        self.gram = gram
        self.dim = d
        self.rank = rank
        self.onb_transform = M

    @classmethod
    def standard(cls, d: int) -> "GaussianSpace":
        return cls(np.eye(d))

    def same_as(self, other: "GaussianSpace") -> bool:
        """True when ``other`` is this space or has an equal Gram matrix."""
        return other is self or np.array_equal(self.gram, other.gram)

    # -- geometry ----------------------------------------------------------

    def _coeffs(self, u) -> np.ndarray:
        """A raw-basis coefficient vector of this space as a float array."""
        arr = np.asarray(u, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: space has d={self.dim}, got a vector of shape {arr.shape}"
            )
        return arr

    def inner(self, u, v) -> float:
        """<u, v> = u^T gram v for raw-basis coefficient vectors."""
        return float(self._coeffs(u) @ self.gram @ self._coeffs(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def onb_coords(self, u) -> np.ndarray:
        """Orthonormal coordinates of a raw vector: w = u @ onb_transform."""
        return self._coeffs(u) @ self.onb_transform

    def check_onb(self, tol: float = 1e-10) -> float:
        """Max-norm error of M·Mᵀ − gram; raises if above tol (scaled)."""
        M = self.onb_transform
        err = float(np.abs(M @ M.T - self.gram).max())
        if err > tol * max(1.0, float(np.abs(self.gram).max())):
            raise AssertionError(f"orthonormalization residual {err:.3e} exceeds {tol}")
        return err

    # -- random variables ---------------------------------------------------

    def constant(self, value: float) -> PolyRV:
        return PolyRV.constant(self, value)

    def coordinate(self, a: int) -> PolyRV:
        return PolyRV.coordinate(self, a)

    def field_rv(self, u) -> PolyRV:
        """X(u) = Σ_a (u @ M)_a · Z_a as a linear PolyRV."""
        w = self.onb_coords(u)
        terms: dict[tuple[int, ...], float] = {}
        for a, wa in enumerate(w):
            if abs(wa) > 0.0:
                expo = tuple(1 if i == a else 0 for i in range(self.dim))
                terms[expo] = terms.get(expo, 0.0) + float(wa)
        if not terms:
            return PolyRV.constant(self, 0.0)
        return PolyRV(self, terms)

    def basis_rv(self, i: int) -> PolyRV:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return self.field_rv(e)

    def __repr__(self):
        return f"GaussianSpace(dim={self.dim}, rank={self.rank})"

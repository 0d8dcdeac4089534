"""Fractional Brownian motion on the unit interval: covariances and sampling.

Covariance side: closed forms for the increment autocorrelation ``rho``, the
path covariance ``cov_rh``, and the grid inner products between indicator
elements of the Cameron–Martin-type Hilbert space (``eps_del`` and its
diagonal ``alpha_diag``) that drive every weighted-variation computation.

Sampling side: exact Gaussian sampling of increments by one of two plans,
chosen from the grid alone, with counter-based per-path randomness so that
path i is a function of (seed, i) only.  Where rho vanishes off lag zero
(H = 1/2 at any n, or n = 1) the increments are white noise: raw normals
times n^{-H}.  Everywhere else they come from circulant embedding of the
stationary autocovariance, which is non-negative definite at every H.
``map_paths`` is the one path loop: it builds the plan for ``grid`` once,
then draws, transforms and hands over the paths of one
``rng.slab_rows(row)``-row RNG slab at a time on every thread of the block
pool of ``rng.map_slabs``, each block drawn once.  A white-noise slab is scaled elementwise; a circulant slab is transformed by
``numpy.fft`` in place in one reused buffer per pool thread, so its working
set stays in cache at any n.  ``sample_paths`` is its consumer that fills
one array.  Both plans run on numpy alone, and no sampled bit passes
through a BLAS call, so paths do not depend on the BLAS thread count.

Grid conventions: n increments of the interval [0,1]; levels are B_{k/n} for
k = 0..n (B_0 = 0); increment k is B_{(k+1)/n} - B_{k/n} with variance
n^{-2H}.
"""

from __future__ import annotations

import math
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .report import TestReport
from .rng import derive_seed, map_slabs, slab_rows, worker_count
from .rng import normal_rows  # noqa: F401  (bound here for perfbench's tracer test)

__all__ = [
    "FbmGrid",
    "FbmPathBatch",
    "SeriesTruncationError",
    "abs_rho_power_sum",
    "alpha_diag",
    "bounds_suite",
    "cov_rh",
    "del_norm",
    "embedding_spectrum",
    "eps_del",
    "load_paths",
    "map_paths",
    "rho",
    "sample_paths",
    "save_paths",
]

EIGENVALUE_CLIP = 1e-8
_MAGIC = b"FBMPATH1"
# the grid of bounds_suite: Hurst indices (all < 1/2), chaos orders, grid sizes,
# and the number of random (r, s, t) triples of the increment-covariance bound
BOUNDS_H = (0.1, 0.2, 0.3, 0.4, 0.45)
BOUNDS_Q = (2, 3)
BOUNDS_N = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
BOUNDS_TRIPLES = 10_000
# the rho^q lag series is summed this many lags at a time, each chunk in pool
# tasks of at most SERIES_LEAF lags (about 1 MiB of work) along np.sum's tree
SERIES_CHUNK = 1 << 22
SERIES_LEAF = 1 << 16


# ---------------------------------------------------------------------------
# closed-form covariance quantities
# ---------------------------------------------------------------------------


def _check_hurst(H: float) -> float:
    H = float(H)
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {H}")
    return H


def rho(H: float, r):
    """Autocorrelation of unit-spaced fBm increments at lag r.

    rho_H(r) = 0.5(|r+1|^{2H} - 2|r|^{2H} + |r-1|^{2H}); even; rho_H(0) = 1.
    """
    H = _check_hurst(H)
    r = np.abs(np.asarray(r, dtype=float))
    value = 0.5 * ((r + 1.0) ** (2 * H) - 2.0 * r ** (2 * H) + np.abs(r - 1.0) ** (2 * H))
    return value if value.ndim else float(value)


def cov_rh(H: float, s, t):
    """Covariance E[B_s B_t] = 0.5(t^{2H} + s^{2H} - |t-s|^{2H})."""
    H = _check_hurst(H)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    value = 0.5 * (t ** (2 * H) + s ** (2 * H) - np.abs(t - s) ** (2 * H))
    return value if value.ndim else float(value)


def eps_del(H: float, n: int, t, k):
    """Inner product <eps_t, del_{k/n}> = E[B_t (B_{(k+1)/n} - B_{k/n})].

    Closed form: (2 n^{2H})^{-1} [(k+1)^{2H} - k^{2H} - |k+1-nt|^{2H} + |k-nt|^{2H}].
    """
    H = _check_hurst(H)
    t = np.asarray(t, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t out of range [0,1]")
    if np.any(k < 0) or np.any(k > n - 1):
        raise ValueError("index out of range")
    h2 = 2 * H
    value = (
        (k + 1.0) ** h2 - k**h2 - np.abs(k + 1.0 - n * t) ** h2 + np.abs(k - n * t) ** h2
    ) / (2.0 * float(n) ** h2)
    return value if value.ndim else float(value)


def alpha_diag(H: float, n: int, k):
    """alpha_{k,k} = <eps_{k/n}, del_{k/n}> = (2 n^{2H})^{-1} ((k+1)^{2H} - k^{2H} - 1)."""
    H = _check_hurst(H)
    k = np.asarray(k, dtype=float)
    if np.any(k < 0) or np.any(k > n - 1):
        raise ValueError("index out of range")
    h2 = 2 * H
    value = ((k + 1.0) ** h2 - k**h2 - 1.0) / (2.0 * float(n) ** h2)
    return value if value.ndim else float(value)


def del_norm(H: float, n: int) -> float:
    """Norm of one grid increment element: ||del_{k/n}|| = n^{-H}."""
    H = _check_hurst(H)
    return float(n) ** (-H)


def abs_rho_power_sum(H: float, q: int, tol: float = 1e-12) -> float:
    """Sum over all integer lags of |rho_H(r)|^q, with a certified tail bound.

    Requires H < 1 - 1/(2q) so the series converges; the tail beyond the
    truncation point R is bounded by the integral of (C r^{2H-2})^q with
    C = 2 H |2H - 1| (the asymptotic constant, inflated twofold) and R is
    grown until that bound is below ``tol``.
    """
    return _rho_power_series(H, q, tol, signed=False)


def signed_rho_power_sum(H: float, q: int, tol: float = 1e-12) -> float:
    """Sum over all integer lags of rho_H(r)^q (signed), same tail control."""
    return _rho_power_series(H, q, tol, signed=True)


def _pairwise_leaves(lo: int, hi: int, leaf: int) -> list[tuple[int, int]]:
    """The leaves of at most ``max(leaf, 128)`` elements, in order, of
    ``np.sum``'s pairwise tree over [lo, hi): numpy sums more than 128 elements
    as the sum of two halves, the left one rounded down to a multiple of 8."""
    if hi - lo <= max(leaf, 128):
        return [(lo, hi)]
    mid = lo + (hi - lo) // 16 * 8
    return _pairwise_leaves(lo, mid, leaf) + _pairwise_leaves(mid, hi, leaf)


def _pairwise_fold(lo: int, hi: int, sums: dict[tuple[int, int], float]) -> float:
    """The ``sums`` of the leaves of [lo, hi), keyed by range, added along that
    tree: the bits of one ``np.sum`` over [lo, hi) if each is a leaf's ``np.sum``."""
    if (lo, hi) in sums:
        return sums[lo, hi]
    mid = lo + (hi - lo) // 16 * 8
    return _pairwise_fold(lo, mid, sums) + _pairwise_fold(mid, hi, sums)


class SeriesTruncationError(ArithmeticError):
    """A lag series that cannot reach its tolerance within the lags it may sum."""


def _rho_power_series(H: float, q: int, tol: float, signed: bool) -> float:
    """1 + 2 sum_{r=1}^{R} rho_H(r)^q (or |rho_H(r)|^q), R from the tail bound.

    Chunks of ``SERIES_CHUNK`` lags are added in order, each the fold of its
    ``_pairwise_leaves`` of ``SERIES_LEAF`` lags, one task each on
    ``rng.worker_count()`` threads: a leaf raises k^{2H} once per lag k =
    lo-1 .. hi, forms rho from neighbouring powers in ``rho``'s order of
    operations, raises it to q and sums it.  Both powers are ``**=`` in
    place, which picks ``square``, ``sqrt`` or ``power`` as ``**`` does, so
    the result has the bits of summing ``rho(H, lags) ** q`` with one
    ``np.sum`` per chunk.
    """
    H = _check_hurst(H)
    if q < 1:
        raise ValueError("q must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if H >= 1.0 - 1.0 / (2 * q):
        raise ValueError(
            f"divergent series: sum of rho^q needs H < 1 - 1/(2q) = {1 - 1 / (2 * q)}, got H = {H}"
        )
    if H == 0.5:
        return 1.0  # rho vanishes off lag zero
    decay = q * (2.0 * H - 2.0)  # tail exponent, < -1 by the check above
    const = (2.0 * H * abs(2.0 * H - 1.0)) ** q
    R = 1024
    while const * R ** (decay + 1.0) / (-(decay + 1.0)) > tol:
        R *= 2
        if R > 1 << 31:
            raise SeriesTruncationError(
                f"sum of rho^q at q = {q}, H = {H}: tolerance {tol} needs more than "
                f"{1 << 31} lag terms this close to the bound H < 1 - 1/(2q) = "
                f"{1 - 1 / (2 * q)}; pass a larger tol to sigma_hq, signed_rho_power_sum "
                "or abs_rho_power_sum"
            )

    def leaf_sum(lo: int, hi: int) -> float:
        # k^{2H} for k = lo-1 .. hi; lag k needs those at k-1, k, k+1
        powers = np.arange(lo - 1, hi + 1, dtype=float)
        powers **= 2 * H
        terms = np.multiply(powers[1:-1], 2.0)
        np.subtract(powers[2:], terms, out=terms)
        np.add(terms, powers[:-2], out=terms)
        np.multiply(terms, 0.5, out=terms)  # rho(H, k), as rho orders it
        terms **= q
        if not signed:
            np.abs(terms, out=terms)
        return float(np.sum(terms))

    total = 0.0
    with ThreadPoolExecutor(worker_count()) as pool:
        for lo in range(1, R + 1, SERIES_CHUNK):
            hi = min(lo + SERIES_CHUNK, R + 1)
            leaves = _pairwise_leaves(lo, hi, SERIES_LEAF)
            sums = dict(zip(leaves, pool.map(leaf_sum, *zip(*leaves))))
            total += _pairwise_fold(lo, hi, sums)
    return 1.0 + 2.0 * total


# ---------------------------------------------------------------------------
# grids and path batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FbmGrid:
    """Uniform grid of n increments of fBm with Hurst index ``hurst`` on [0,1]."""

    hurst: float
    n: int

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        if int(self.n) < 1:
            raise ValueError(f"need n >= 1 increments, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def increment_covariance(self) -> np.ndarray:
        """Dense n x n covariance of the increments (Toeplitz in the lag)."""
        first_row = self.n ** (-2.0 * self.hurst) * np.asarray(rho(self.hurst, np.arange(self.n)))
        k = np.arange(self.n)
        return first_row[np.abs(k[:, None] - k[None, :])]


@dataclass(frozen=True)
class FbmPathBatch:
    """m sampled fBm paths on a grid, stored as their increments (m, n).

    The levels ``paths`` (m, n+1) are summed from the increments on first
    read and kept, so consumers of increments alone never build them.
    """

    grid: FbmGrid
    increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        increments = np.ascontiguousarray(self.increments, dtype=float)
        if increments.ndim != 2 or increments.shape[1] != self.grid.n:
            raise ValueError(f"increments must have shape (m, {self.grid.n})")
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def m(self) -> int:
        return self.increments.shape[0]

    @cached_property
    def paths(self) -> np.ndarray:
        """Levels B_{k/n} for k = 0..n (m, n+1); B_0 = 0."""
        levels = np.zeros((self.m, self.grid.n + 1))
        np.cumsum(self.increments, axis=1, out=levels[:, 1:])
        return levels

    def levels_at_increment_start(self) -> np.ndarray:
        """B_{k/n} for k = 0..n-1, aligned with the increments (m, n)."""
        return self.paths[:, :-1]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def embedding_spectrum(grid: FbmGrid) -> np.ndarray:
    """Eigenvalues of the 2n-circulant extension of the increment covariance.

    The first row of the circulant is the autocovariance at lags
    0..n-1, n, n-1..1 (the even reflection), so its eigenvalues are the real
    FFT values of that row.  The row is even, so its spectrum is real and even:
    the real-input FFT gives lambda_0..lambda_n, mirrored back to length 2n
    (the bits of a full FFT that takes the row as real input; numpy's complex
    ``fft`` of it can differ in the last bit).  Returned unclipped for
    diagnostics.
    """
    n = grid.n
    cov = grid.n ** (-2.0 * grid.hurst) * np.asarray(rho(grid.hurst, np.arange(n + 1)))
    row = np.concatenate([cov[:n], cov[n:], cov[n - 1 : 0 : -1]])
    half = np.fft.rfft(row).real
    return np.concatenate([half, half[n - 1 : 0 : -1]])


class _Plan(NamedTuple):
    label: str  # RNG stream label
    raw_len: int  # normals per raw row
    paths_per_row: int
    transform: Callable[[np.ndarray], np.ndarray]


def _sampler(grid: FbmGrid) -> _Plan:
    """Build the sampler plan for ``grid``: the transform from raw normals
    to increments, chosen from the grid alone.

    Where rho vanishes off lag zero (H = 1/2, or n = 1) the covariance is
    its lag-0 entry times I, so a row of n normals is scaled elementwise by
    that entry's square root.  Everywhere else the plan is circulant: the
    clipped embedding spectrum weights a complex row of 2n normal pairs,
    and one ``numpy.fft.ifft`` (single-threaded) per pool thread, in place
    in that thread's buffer, turns it into two paths.  Both transforms work
    row by row and return a new array, so a path's bits depend neither on
    m nor on the slab height.
    """
    n, H = grid.n, grid.hurst
    # rho vanishes off lag zero where n = 1 or rho(H, 1) = 2^{2H-1} - 1 is 0:
    # that is H = 1/2, where every lag's rho is 0.  Testing lag 1 alone spares
    # an O(n) array (about 0.1 MB of peak RSS at n = 4096)
    if n == 1 or rho(H, 1) == 0.0:
        scale = math.sqrt(n ** (-2.0 * H) * rho(H, 0))
        # the label names the Cholesky plan whose GEMM by this diagonal factor
        # gave these bits; it seeds the stream, so renaming it would move every
        # white-noise path and the digests perfbench has recorded
        return _Plan("fgn-cholesky", n, 1, lambda raw: raw * scale)
    return _circulant(grid)


def _circulant(grid: FbmGrid) -> _Plan:
    """The circulant plan for ``grid``, exact at every H and n; it raises on a
    clearly negative embedding eigenvalue."""
    n = grid.n
    # one complex transform yields two paths
    M = 2 * n
    lam = embedding_spectrum(grid)
    lam_min, lam_max = float(lam.min()), float(lam.max())
    if lam_min < -EIGENVALUE_CLIP * lam_max:
        raise ValueError(
            "circulant embedding failed: most negative eigenvalue "
            f"{lam_min:.6e} (max {lam_max:.6e})"
        )
    weights = np.sqrt(np.clip(lam, 0.0, None) / M)
    rows = slab_rows(2 * M)
    scratch = threading.local()

    def transform(raw: np.ndarray) -> np.ndarray:
        z = getattr(scratch, "z", None)
        if z is None:
            z = scratch.z = np.empty((rows, M), dtype=complex)
        z = z[: len(raw)]
        z.real = raw[:, :M]
        z.imag = raw[:, M:]
        z *= weights
        np.fft.ifft(z, axis=1, out=z)
        z *= M  # undo the 1/M of the inverse transform; net scale 1/sqrt(M)
        # pair row -> [even path | odd path] -> two consecutive path rows
        pairs = np.empty((len(raw), 2, n))
        pairs[:, 0] = z.real[:, :n]
        pairs[:, 1] = z.imag[:, :n]
        return pairs.reshape(2 * len(raw), n)

    return _Plan("fgn-circulant", 2 * M, 2, transform)


def map_paths(grid: FbmGrid, m: int, seed: int, consume: Callable[[int, FbmPathBatch], None]) -> None:
    """Call ``consume(start, batch)`` for consecutive batches of paths [0, m).

    ``batch`` holds paths [start, start + batch.m), those of one transformed
    slab of ``rng.slab_rows`` raw rows (the last cut at m): 1 MiB of raw
    normals, so 256 rows of a white-noise plan at n <= 512 and
    ``rng.slab_rows(4n)`` rows of a circulant one.  The sampler plan is
    built once, and not at all when m = 0.  The slabs run on the block pool
    of :func:`chaoslab.rng.map_slabs`, so ``consume`` may run concurrently
    for different batches and should write disjoint rows of preallocated
    outputs.  Each batch's ``increments`` is a fresh array that ``consume``
    owns and may overwrite in place.  An exception raised in ``consume``
    propagates.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return
    plan = _sampler(grid)

    def run(row: int, raw: np.ndarray) -> None:
        start = row * plan.paths_per_row
        increments = plan.transform(raw)[: m - start]
        consume(start, FbmPathBatch(grid, increments, seed))

    height = slab_rows(plan.raw_len)
    rows = -(-m // (height * plan.paths_per_row)) * height  # whole slabs
    map_slabs(derive_seed(seed, plan.label), plan.raw_len, rows, run)


def sample_paths(grid: FbmGrid, m: int, seed: int) -> FbmPathBatch:
    """Sample m fBm paths; path i is a deterministic function of (seed, i).

    The plan follows from the grid (see :func:`_sampler`): white noise where
    rho vanishes off lag zero, circulant embedding (exact at every H and n)
    everywhere else.  To reduce a large m in bounded memory use
    :func:`map_paths`, which hands over the same paths batch by batch.
    """
    increments = np.empty((max(m, 0), grid.n))  # map_paths rejects m < 0

    def fill(start: int, batch: FbmPathBatch) -> None:
        increments[start : start + batch.m] = batch.increments

    map_paths(grid, m, seed, fill)
    return FbmPathBatch(grid, increments, seed)


# ---------------------------------------------------------------------------
# path file format
# ---------------------------------------------------------------------------


def save_paths(batch: FbmPathBatch, path: str | Path) -> Path:
    """Write levels in the FBMPATH1 binary format.

    Layout, all little-endian: magic "FBMPATH1"; u64 m; u64 n; f64 hurst;
    u64 seed; then m*(n+1) f64 level values, row-major.
    """
    path = Path(path)
    header = _MAGIC + struct.pack(
        "<QQdQ", batch.m, batch.grid.n, batch.grid.hurst, batch.seed & ((1 << 64) - 1)
    )
    levels = np.ascontiguousarray(batch.paths, dtype="<f8")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(levels.tobytes())
    return path


def load_paths(path: str | Path) -> FbmPathBatch:
    """Read a FBMPATH1 file back into a batch."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError("not a FBMPATH1 file")
    m, n, hurst, seed = struct.unpack_from("<QQdQ", raw, 8)
    grid = FbmGrid(hurst=hurst, n=int(n))
    expected = 8 + struct.calcsize("<QQdQ") + 8 * m * (n + 1)
    if len(raw) != expected:
        raise ValueError(f"file length {len(raw)} does not match header ({expected})")
    levels = np.frombuffer(raw, dtype="<f8", offset=8 + struct.calcsize("<QQdQ"))
    levels = levels.reshape(int(m), int(n) + 1).astype(float)
    batch = FbmPathBatch(grid, np.diff(levels, axis=1), seed)
    batch.__dict__["paths"] = levels  # the file's level bytes, not a re-summation
    return batch


# ---------------------------------------------------------------------------
# covariance-bound property suite
# ---------------------------------------------------------------------------


def bounds_suite(seed: int = 0) -> list[TestReport]:
    """Closed-form covariance bounds checked numerically at scale.

    For each H in ``BOUNDS_H`` (and each q in ``BOUNDS_Q``, n in ``BOUNDS_N``
    where the bound is indexed by them):

    - increment-covariance bound: |E[B_r (B_t - B_s)]| <= (t - s)^{2H} over
      ``BOUNDS_TRIPLES`` random 0 <= s <= t <= 1, r in [0,1];
    - pointwise bound |<eps_t, del_{k/n}>| <= n^{-2H};
    - uniform-in-n row sums: sup_t sum_k |<eps_t, del_{k/n}>| at n = 512 is
      at most twice the n = 8 value plus 1;
    - centered diagonal moments: n^{2H(q-1)} sum_k |alpha_{k,k}^q - (-1/2)^q n^{-2qH}|
      <= q/2^q, derived by telescoping (k+1)^{2H} - k^{2H} over k;
    - double lag sums: n^{2qH-1} sum_{k,j} |beta_{k,j}|^q equals
      sum_{|r|<n} (1-|r|/n)|rho(r)|^q, which is at most the full series
      sum_r |rho(r)|^q.
    """
    rng_local = np.random.default_rng(np.random.SeedSequence((int(seed), 0xFB0)))
    reports: list[TestReport] = []
    series_tol = 1e-9  # truncation error of the full-series threshold
    float_slack = 1e-9

    for H in BOUNDS_H:
        h2 = 2 * H

        r = rng_local.random(BOUNDS_TRIPLES)
        s = rng_local.random(BOUNDS_TRIPLES)
        t = rng_local.random(BOUNDS_TRIPLES)
        s, t = np.minimum(s, t), np.maximum(s, t)
        gap = np.maximum(t - s, 1e-300) ** h2
        ratio = np.abs(np.asarray(cov_rh(H, r, t)) - np.asarray(cov_rh(H, r, s))) / gap
        reports.append(
            TestReport(
                name=f"fbm-increment-covariance-bound-H{H}",
                statistic=float(ratio.max()),
                threshold=1.0 + float_slack,
                sample_sizes=(BOUNDS_TRIPLES,),
                seeds=(int(seed),),
            )
        )

        worst_pointwise = 0.0
        row_sup: dict[int, float] = {}
        for n in (8, 64, 512):
            ts = np.concatenate([rng_local.random(256), np.arange(n + 1) / n])
            values = np.asarray(eps_del(H, n, ts[:, None], np.arange(n)[None, :]))
            worst_pointwise = max(worst_pointwise, float(np.abs(values).max()) * n**h2)
            row_sup[n] = float(np.abs(values).sum(axis=1).max())
        reports.append(
            TestReport(
                name=f"fbm-eps-del-pointwise-bound-H{H}",
                statistic=worst_pointwise,
                threshold=1.0 + float_slack,
                sample_sizes=(256,),
                seeds=(int(seed),),
            )
        )
        reports.append(
            TestReport(
                name=f"fbm-eps-del-row-sum-uniformity-H{H}",
                statistic=row_sup[512],
                threshold=2.0 * row_sup[8] + 1.0,
                sample_sizes=(256,),
                seeds=(int(seed),),
                extras={"row_sum_n8": row_sup[8], "row_sum_n512": row_sup[512]},
            )
        )

        for q in BOUNDS_Q:
            centered_worst = 0.0
            lag_worst = 0.0
            for n in BOUNDS_N:
                ks = np.arange(n)
                diag = np.asarray(alpha_diag(H, n, ks))
                centered = np.abs(diag**q - (-0.5) ** q * float(n) ** (-h2 * q))
                centered_worst = max(
                    centered_worst, float(centered.sum()) * float(n) ** (h2 * (q - 1))
                )
                lags = np.arange(-(n - 1), n)
                weights = 1.0 - np.abs(lags) / n
                lag_sum = float(np.sum(weights * np.abs(np.asarray(rho(H, lags))) ** q))
                lag_worst = max(lag_worst, lag_sum)
            reports.append(
                TestReport(
                    name=f"fbm-alpha-diagonal-moment-H{H}-q{q}",
                    statistic=centered_worst,
                    threshold=q / 2**q + float_slack,
                    sample_sizes=BOUNDS_N,
                    seeds=(int(seed),),
                )
            )
            reports.append(
                TestReport(
                    name=f"fbm-beta-double-sum-H{H}-q{q}",
                    statistic=lag_worst,
                    threshold=abs_rho_power_sum(H, q, series_tol) + series_tol + float_slack,
                    sample_sizes=BOUNDS_N,
                    seeds=(int(seed),),
                )
            )
    return reports

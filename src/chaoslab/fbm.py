"""Fractional Brownian motion on the unit interval: covariances and sampling.

Covariance side: closed forms for the increment autocorrelation ``rho``, the
path covariance ``cov_rh``, and the grid inner products between indicator
elements of the Cameron–Martin-type Hilbert space (``eps_del``, ``alpha``,
``beta``) that drive every weighted-variation computation.

Sampling side: exact Gaussian sampling of increments, either by Cholesky
factorization of the covariance (small n) or by circulant embedding of the
stationary autocovariance (large n), with counter-based per-path randomness so
that path i is a function of (seed, i) only.  ``stream_paths`` is the one loop
that walks a large path sequence in ``PATH_CHUNK``-path batches; it builds
the sampler plan for ``(grid, method)`` once and draws each RNG block once.

Grid conventions: n increments of the interval [0,1]; levels are B_{k/n} for
k = 0..n (B_0 = 0); increment k is B_{(k+1)/n} - B_{k/n} with variance
n^{-2H}.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.fft
from scipy.linalg import cholesky, toeplitz

from .report import TestReport
from .rng import derive_seed, normal_slabs, worker_count
from .rng import normal_rows  # noqa: F401  (bound here for perfbench's tracer test)

__all__ = [
    "FbmGrid",
    "FbmPathBatch",
    "PATH_CHUNK",
    "abs_rho_power_sum",
    "alpha",
    "alpha_diag",
    "beta",
    "bounds_suite",
    "cov_rh",
    "del_norm",
    "embedding_spectrum",
    "eps_del",
    "load_paths",
    "rho",
    "sample_paths",
    "save_paths",
    "stream_paths",
]

CHOLESKY_MAX_N = 4096
AUTO_METHOD_CUTOFF = 512
EIGENVALUE_CLIP = 1e-8
# Paths per batch of stream_paths; a multiple of the paths in one increment
# slab (rng.SLAB_ROWS for cholesky, twice that for circulant), so no slab is
# split between batches.
PATH_CHUNK = 2048
_MAGIC = b"FBMPATH1"


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


def alpha(H: float, n: int, k, j):
    """<eps_{k/n}, del_{j/n}>, i.e. eps_del evaluated at grid time t = k/n."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0) or np.any(k_arr > n - 1):
        raise ValueError("index out of range")
    return eps_del(H, n, k_arr / n, j)


def alpha_diag(H: float, n: int, k):
    """alpha(k, k) = (2 n^{2H})^{-1} ((k+1)^{2H} - k^{2H} - 1)."""
    H = _check_hurst(H)
    k = np.asarray(k, dtype=float)
    if np.any(k < 0) or np.any(k > n - 1):
        raise ValueError("index out of range")
    h2 = 2 * H
    value = ((k + 1.0) ** h2 - k**h2 - 1.0) / (2.0 * float(n) ** h2)
    return value if value.ndim else float(value)


def beta(H: float, n: int, k, j):
    """<del_{k/n}, del_{j/n}> = n^{-2H} rho_H(k - j)."""
    H = _check_hurst(H)
    k = np.asarray(k, dtype=float)
    j = np.asarray(j, dtype=float)
    if np.any(k < 0) or np.any(k > n - 1) or np.any(j < 0) or np.any(j > n - 1):
        raise ValueError("index out of range")
    value = float(n) ** (-2 * H) * np.asarray(rho(H, k - j))
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


def _rho_power_series(H: float, q: int, tol: float, signed: bool) -> float:
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
            raise ValueError(
                f"tolerance {tol} needs more than {1 << 31} lag terms near the "
                "summability boundary; use a larger tol"
            )
    # chunked, fixed-order summation: bounded memory, deterministic result
    total = 0.0
    chunk = 1 << 22
    for lo in range(1, R + 1, chunk):
        lags = np.arange(lo, min(lo + chunk, R + 1))
        powers = np.asarray(rho(H, lags)) ** q
        if not signed:
            powers = np.abs(powers)
        total += float(np.sum(powers))
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

    @property
    def times(self) -> np.ndarray:
        """Level times k/n for k = 0..n."""
        return np.arange(self.n + 1) / self.n

    def increment_covariance(self) -> np.ndarray:
        """Dense n x n covariance of the increments (Toeplitz in the lag)."""
        first_row = self.n ** (-2.0 * self.hurst) * np.asarray(rho(self.hurst, np.arange(self.n)))
        return toeplitz(first_row)


@dataclass(frozen=True)
class FbmPathBatch:
    """m sampled fBm paths on a grid, stored as their increments (m, n).

    The levels ``paths`` (m, n+1) are summed from the increments on first
    read and kept, so consumers of increments alone never build them.
    """

    grid: FbmGrid
    increments: np.ndarray
    seed: int
    method: str

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
    FFT values of that row.  Returned unclipped for diagnostics.
    """
    n = grid.n
    cov = grid.n ** (-2.0 * grid.hurst) * np.asarray(rho(grid.hurst, np.arange(n + 1)))
    row = np.concatenate([cov[:n], cov[n:], cov[n - 1 : 0 : -1]])
    return np.real(scipy.fft.fft(row))


def _sampler(grid: FbmGrid, seed: int, method: str) -> tuple[str, Iterator[np.ndarray]]:
    """Build the sampler plan for ``(grid, method)``; return the method and its slab stream.

    The plan is the Cholesky factor or the clipped embedding spectrum, the
    stream label, the raw row length and the transform.  The stream yields
    the increments of paths 0, 1, 2, ... one transformed ``rng.SLAB_ROWS``-row
    slab of raw normals at a time.  The transform always sees that fixed
    shape, so the BLAS/FFT blocking (and therefore the exact floating-point
    result for path i) never depends on how the paths are windowed.
    """
    n = grid.n
    if method == "auto":
        method = "cholesky" if n <= AUTO_METHOD_CUTOFF else "circulant"
    if method == "cholesky":
        if n > CHOLESKY_MAX_N:
            raise ValueError(f"cholesky sampler capped at n = {CHOLESKY_MAX_N}, got n = {n}")
        factor_t = cholesky(grid.increment_covariance(), lower=True).T
        label, raw_len = "fgn-cholesky", n
        transform = lambda raw: raw @ factor_t
    elif method == "circulant":
        # one complex transform yields two paths
        M = 2 * n
        lam = embedding_spectrum(grid)
        lam_min = float(lam.min())
        lam_max = float(lam.max())
        if lam_min < -EIGENVALUE_CLIP * lam_max:
            raise ValueError(
                "circulant embedding failed: most negative eigenvalue "
                f"{lam_min:.6e} (max {lam_max:.6e}); use the cholesky method"
            )
        weights = np.sqrt(np.clip(lam, 0.0, None) / M)
        label, raw_len = "fgn-circulant", 2 * M

        def transform(raw: np.ndarray) -> np.ndarray:
            z = raw[:, :M] + 1j * raw[:, M:]
            spectra = weights[None, :] * z
            transformed = scipy.fft.ifft(spectra, axis=1, workers=worker_count())
            transformed *= M  # undo the 1/M of the inverse transform; net scale 1/sqrt(M)
            # pair row -> [even path | odd path] -> two consecutive path rows
            pairs = np.concatenate([transformed.real[:, :n], transformed.imag[:, :n]], axis=1)
            return pairs.reshape(2 * len(raw), n)

    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return method, map(transform, normal_slabs(derive_seed(seed, label), raw_len))


def _take(slabs: Iterator[np.ndarray], count: int, n: int) -> np.ndarray:
    """The next ``count`` increment rows of a slab stream; a last slab's rest is dropped."""
    out = np.empty((count, n))
    filled = 0
    while filled < count:
        slab = next(slabs)
        take = min(len(slab), count - filled)
        out[filled : filled + take] = slab[:take]
        filled += take
    return out


def sample_paths(grid: FbmGrid, m: int, seed: int, method: str = "auto") -> FbmPathBatch:
    """Sample m fBm paths; path i is a deterministic function of (seed, i).

    method: "cholesky" (exact, n <= 4096), "circulant" (fast, needs a
    non-negative embedding spectrum), or "auto" (cholesky up to n = 512).
    To walk a large m in bounded memory use :func:`stream_paths`, which
    yields the same paths.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    method, slabs = _sampler(grid, seed, method)
    return FbmPathBatch(grid, _take(slabs, m, grid.n), seed, method)


def stream_paths(
    grid: FbmGrid, m: int, seed: int, method: str = "auto"
) -> Iterator[FbmPathBatch]:
    """The paths of ``sample_paths(grid, m, seed, method)`` in consecutive batches.

    Every batch holds ``PATH_CHUNK`` paths except possibly the last.  The
    sampler plan is built once per stream, and not at all when m = 0.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return
    method, slabs = _sampler(grid, seed, method)
    for start in range(0, m, PATH_CHUNK):
        increments = _take(slabs, min(PATH_CHUNK, m - start), grid.n)
        yield FbmPathBatch(grid, increments, seed, method)


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
    """Read a FBMPATH1 file back into a batch (method recorded as "file")."""
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
    batch = FbmPathBatch(grid, np.diff(levels, axis=1), seed, "file")
    batch.__dict__["paths"] = levels  # the file's level bytes, not a re-summation
    return batch


# ---------------------------------------------------------------------------
# covariance-bound property suite
# ---------------------------------------------------------------------------


def bounds_suite(
    H_values: Iterable[float] = (0.1, 0.2, 0.3, 0.4, 0.45),
    q_values: Iterable[int] = (2, 3),
    n_values: Iterable[int] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    seed: int = 0,
    triples: int = 10_000,
) -> list[TestReport]:
    """Closed-form covariance bounds checked numerically at scale.

    For each H (all < 1/2 here):

    - increment-covariance bound: |E[B_r (B_t - B_s)]| <= (t - s)^{2H} over
      random 0 <= s <= t <= 1, r in [0,1];
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
    n_values = sorted(int(n) for n in n_values)
    series_tol = 1e-9  # truncation error of the full-series threshold
    float_slack = 1e-9

    for H in H_values:
        H = _check_hurst(H)
        h2 = 2 * H

        r = rng_local.random(triples)
        s = rng_local.random(triples)
        t = rng_local.random(triples)
        s, t = np.minimum(s, t), np.maximum(s, t)
        gap = np.maximum(t - s, 1e-300) ** h2
        ratio = np.abs(np.asarray(cov_rh(H, r, t)) - np.asarray(cov_rh(H, r, s))) / gap
        reports.append(
            TestReport(
                name=f"fbm-increment-covariance-bound-H{H}",
                statistic=float(ratio.max()),
                threshold=1.0 + float_slack,
                sample_sizes=(triples,),
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

        for q in q_values:
            centered_worst = 0.0
            lag_worst = 0.0
            for n in n_values:
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
                    sample_sizes=tuple(n_values),
                    seeds=(int(seed),),
                )
            )
            reports.append(
                TestReport(
                    name=f"fbm-beta-double-sum-H{H}-q{q}",
                    statistic=lag_worst,
                    threshold=abs_rho_power_sum(H, q, series_tol) + series_tol + float_slack,
                    sample_sizes=tuple(n_values),
                    seeds=(int(seed),),
                )
            )
    return reports

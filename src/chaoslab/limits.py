"""Limit-law machinery: mixture sampling, distribution tests, exact moments.

The weighted-variation statistics converge (after regime-specific
renormalization) to *mixed* Gaussian laws sigma * sqrt(int_0^1 f(B_s)^2 ds) * N
with N independent of B, possibly plus an independent deterministic-integral
shift at the lower critical point.  This module provides:

- a sampler for those limit laws (fine-grid fBm + fresh Gaussians),
- a two-sample Kolmogorov–Smirnov test (weak convergence),
- a conditional characteristic-function test (stable convergence: compares
  E[e^{i lam F} Z] with E[e^{i lam shift - lam^2 S^2/2} Z] at each lam in
  ``CF_LAMBDAS`` over a fixed family of functionals Z of the conditional
  variance; the worst cell is compared with ``CF_THRESHOLD``),
- exact second/fourth moments of the unweighted second-chaos variation from
  Toeplitz trace identities, the associated Berry–Esseen-type bound, and a
  Monte Carlo check that the observed CDF distance respects it,
- the classical Brownian example F_n = sqrt(n) int t^n W_t dW_t, whose limit
  (1/sqrt(2)) W_1 N exercises the whole stable-convergence pipeline at H=1/2;
  like the experiments it returns ``(TestReport, arrays)``.

fBm paths are reduced batch by batch by consumers of
:func:`chaoslab.fbm.map_paths`, and the Brownian example's raw normals slab by
slab with :func:`chaoslab.rng.map_slabs`, the thread pool under both.  Slabs
of long rows are capped in bytes (``rng.SLAB_BYTES``), so memory does not
grow with the grid size.  Each consumer writes its replicas' rows of
preallocated arrays, and every replica draws counter-based randomness
addressed by its index, so results are reproducible bit-for-bit whatever
the thread count.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fbm import (
    FbmGrid,
    FbmPathBatch,
    _pairwise_fold,
    _pairwise_leaves,
    map_paths,
    rho,
    toeplitz_rows,
)
from .report import TestReport
from .rng import derive_seed, map_slabs, normal_rows, slab_rows, worker_count
from .weights import WeightFunction

__all__ = [
    "Chaos2Moments",
    "MixtureSample",
    "MixtureSpec",
    "berry_esseen_check",
    "brownian_example_run",
    "chaos2_fourth_moment_exact",
    "conditional_cf_test",
    "ks_two_sample",
    "kolmogorov_pvalue",
    "ks_critical_value",
    "sample_mixture_limit",
]

CHAOS2_DENSE_MAX_N = 4096
CHAOS2_MAX_N = 1 << 16
CHAOS2_BLOCK = 256  # rows of M per FFT block beyond CHAOS2_DENSE_MAX_N
KS_ALPHA = 0.01
KOLMOGOROV_TERMS = 100  # terms of the asymptotic Kolmogorov tail series
CF_LAMBDAS = (0.5, 1.0, 2.0)
CF_THRESHOLD = 4.0  # in Monte Carlo standard errors
MIN_N_FINE = 1024  # finest grid the limit sampler accepts


# ---------------------------------------------------------------------------
# mixture limit laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec:
    """The law sigma * sqrt(int_0^1 f(B_s)^2 ds) * N (+ optional shift).

    ``sigma`` is given by the caller: sigma_{H,q} from
    :func:`chaoslab.variations.sigma_hq`, divided by q! for scaled Hermite
    constants.  The integrals are left-endpoint sums over ``n_fine`` >=
    ``MIN_N_FINE`` fBm increments, checked on construction.  When
    ``shift_coefficient`` is nonzero the sampler adds shift =
    shift_coefficient * int_0^1 f^(q)(B_s) ds computed from the same path,
    which is the combined limit arising at the lower critical H = 1/(2q).
    """

    q: int
    H: float
    weight: WeightFunction
    sigma: float
    n_fine: int = 4096
    shift_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.n_fine < MIN_N_FINE:
            raise ValueError(f"n_fine must be at least {MIN_N_FINE}, got {self.n_fine}")


class MixtureSample(NamedTuple):
    values: np.ndarray
    conditional_variances: np.ndarray
    shifts: np.ndarray


def sample_mixture_limit(spec: MixtureSpec, m: int, seed: int) -> MixtureSample:
    """Draw m replicas of the limit law; replica i depends only on (seed, i).

    Per replica: a fine fBm path B gives S^2 = sigma^2 * (1/n_fine) sum_k
    f(B_{k/n_fine})^2 (left-endpoint Riemann sum) and, if configured, the
    shift integral; the value is shift + S * Z with a fresh standard normal Z.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    grid = FbmGrid(spec.H, spec.n_fine)

    variances = np.empty(m)
    shifts = np.zeros(m)

    def consume(start: int, batch: FbmPathBatch) -> None:
        rows = slice(start, start + batch.m)
        levels = batch.levels_at_increment_start()
        weights = np.asarray(spec.weight(levels))
        np.square(weights, out=weights)
        variances[rows] = spec.sigma**2 * np.mean(weights, axis=1)
        if spec.shift_coefficient != 0.0:
            shifts[rows] = spec.shift_coefficient * np.mean(
                np.asarray(spec.weight(levels, spec.q)), axis=1
            )

    map_paths(grid, m, seed, consume)
    z = normal_rows(derive_seed(seed, "mixture-z"), 0, m, 1)[:, 0]
    values = shifts + np.sqrt(variances) * z
    return MixtureSample(values=values, conditional_variances=variances, shifts=shifts)


# ---------------------------------------------------------------------------
# distribution tests
# ---------------------------------------------------------------------------


def ks_critical_value(n1: int, n2: int, alpha: float) -> float:
    """Two-sample KS critical value c(alpha) sqrt((n1+n2)/(n1 n2))."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def kolmogorov_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov tail Q(lam) = 2 sum_{j>=1} (-1)^{j-1} e^{-2 j^2 lam^2},
    summed over the first ``KOLMOGOROV_TERMS`` terms."""
    if lam <= 0:
        return 1.0
    j = np.arange(1, KOLMOGOROV_TERMS + 1)
    series = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j**2 * lam**2))
    return float(min(1.0, max(0.0, series)))


def ks_two_sample(a: Sequence[float], b: Sequence[float], alpha: float = KS_ALPHA) -> TestReport:
    """Two-sample Kolmogorov–Smirnov test at level ``alpha`` (default 1%)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs non-empty samples")
    pooled = np.concatenate([a, b])
    pooled.sort(kind="stable")
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = a.size * b.size / (a.size + b.size)
    p_value = kolmogorov_pvalue(math.sqrt(effective) * statistic)
    return TestReport(
        name="ks-two-sample",
        statistic=statistic,
        threshold=ks_critical_value(a.size, b.size, alpha),
        sample_sizes=(int(a.size), int(b.size)),
        extras={"p_value": p_value, "alpha": alpha},
    )


def conditional_cf_test(
    statistic_values: Sequence[float],
    predicted_S2: Sequence[float],
    shifts: Sequence[float] | None = None,
) -> TestReport:
    """Test of *stable* convergence via conditional characteristic functions.

    For each lambda in ``CF_LAMBDAS`` and each functional Z of the fixed
    family g(S^2) in {1, S^2, min(S^2, 1), e^{-S^2}}, compares the Monte Carlo
    averages of e^{i lam F_n} Z and e^{i lam shift - lam^2 S^2 / 2} Z on
    paired replicas.  The statistic is the worst discrepancy measured in MC
    standard errors of the paired difference; threshold ``CF_THRESHOLD``.
    """
    values = np.asarray(statistic_values, dtype=float)
    s2 = np.asarray(predicted_S2, dtype=float)
    if values.shape != s2.shape:
        raise ValueError("statistic values and predicted variances must be paired")
    if np.any(s2 < 0):
        raise ValueError("conditional variances must be non-negative")
    shift = np.zeros_like(values) if shifts is None else np.asarray(shifts, dtype=float)
    if shift.shape != values.shape:
        raise ValueError("shifts must pair with statistic values")
    m = values.size
    if m == 0:
        raise ValueError("need at least one replica")
    family = {
        "one": np.ones_like(s2),
        "s2": s2,
        "min_s2_1": np.minimum(s2, 1.0),
        "exp_neg_s2": np.exp(-s2),
    }

    worst = 0.0
    cells = {}
    for lam in CF_LAMBDAS:
        empirical = np.exp(1j * lam * values)
        predicted = np.exp(1j * lam * shift - 0.5 * lam**2 * s2)
        for name, z in family.items():
            diff = (empirical - predicted) * z
            mean = complex(diff.mean())
            # standard error of the complex mean of the paired differences
            var = float(np.var(diff.real) + np.var(diff.imag))
            se = math.sqrt(var / m)
            discrepancy = abs(mean)
            ratio = 0.0 if discrepancy == 0.0 else discrepancy / max(se, 1e-300)
            cells[f"lam{lam}-{name}"] = {"discrepancy": discrepancy, "se": se, "ratio": ratio}
            worst = max(worst, ratio)
    return TestReport(
        name="conditional-cf-test",
        statistic=worst,
        threshold=CF_THRESHOLD,
        sample_sizes=(int(m),),
        extras={"cells": cells, "lambda_grid": list(CF_LAMBDAS)},
    )


# ---------------------------------------------------------------------------
# exact second-chaos moments and the fourth-moment bound
# ---------------------------------------------------------------------------


class Chaos2Moments(NamedTuple):
    variance: float
    fourth_moment: float
    normalized_m4: float


def chaos2_fourth_moment_exact(H: float, n: int) -> Chaos2Moments:
    """Exact moments of G = n^{-1/2} sum_k He_2(n^H dB_k) from Toeplitz traces.

    With M the n x n matrix rho_H(k - j):  E[G^2] = 2 tr(M^2)/n and
    E[G^4] = (12 tr(M^2)^2 + 48 tr(M^4))/n^2, so the kurtosis of the
    variance-normalized statistic is normalized_m4 = 3 + 12 tr(M^4)/tr(M^2)^2.
    tr(M^2) is a lag sum; tr(M^4) = ||M^2||_F^2 is computed by GEMM for
    n <= 4096, one leaf of ``np.sum``'s pairwise tree over M^2's n*n entries
    at a time (``fbm._pairwise_leaves`` of ``CHAOS2_BLOCK * n`` entries):
    the rows a leaf touches are multiplied by M in tiles of
    2 * ``CHAOS2_BLOCK`` columns, the leaf's entries are squared and summed,
    and the leaf sums are added along that tree (``fbm._pairwise_fold``).
    That is the bits of one ``np.sum`` over the squared n x n product M @ M,
    without building it; at n <= 256 it is one leaf and one GEMM.  M = I at
    H = 1/2, and tr(M^4) = n is set without a GEMM (the GEMM's bits).  Beyond
    n = 4096 it comes from blocked Toeplitz multiplication: ``CHAOS2_BLOCK``
    rows of M at a time, each a window of one mirrored lag vector, are
    multiplied by M with row-wise ``numpy.fft`` transforms against one
    embedding spectrum, in tasks of ``rng.slab_rows(2n-1)`` rows on
    ``rng.worker_count()`` threads.  Each block's (n, block) product
    M @ columns is squared in place and summed in C order, and the blocks
    in order.  Neither route holds an array of more than
    2 * ``CHAOS2_BLOCK`` * n entries.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CHAOS2_MAX_N:
        raise ValueError(f"n = {n} exceeds CHAOS2_MAX_N = {CHAOS2_MAX_N}")
    lags = np.arange(n)
    r = np.asarray(rho(H, lags), dtype=float)
    weights = np.concatenate([[float(n)], 2.0 * (n - lags[1:])])
    tr_m2 = float(weights @ (r**2))

    windows = toeplitz_rows(r)  # row i of M, a window of the mirrored lags
    if n <= CHAOS2_DENSE_MAX_N and not r[1:].any():
        tr_m4 = float(n)  # M = I (rho(0) = 1): the GEMM's squared entries sum to n exactly
    elif n <= CHAOS2_DENSE_MAX_N:
        # M^2's n*n entries one leaf of np.sum's pairwise tree at a time.  A
        # leaf of at most CHAOS2_BLOCK * n entries spans at most
        # CHAOS2_BLOCK + 1 rows; a row split by a leaf edge is computed twice.
        left = np.empty((min(n, CHAOS2_BLOCK + 1), n))
        product = np.empty_like(left)
        # at n <= CHAOS2_BLOCK the one leaf and the one tile are both all of M
        tile = left if n <= CHAOS2_BLOCK else np.empty((n, min(n, 2 * CHAOS2_BLOCK)))

        def leaf_sum(a: int, b: int) -> float:
            r0, r1 = a // n, -(-b // n)
            np.copyto(left[: r1 - r0], windows[r0:r1])
            for c0 in range(0, n, 2 * CHAOS2_BLOCK):
                c1 = min(c0 + 2 * CHAOS2_BLOCK, n)
                np.copyto(tile[:, : c1 - c0], windows[:, c0:c1])
                np.matmul(left[: r1 - r0], tile[:, : c1 - c0], out=product[: r1 - r0, c0:c1])
            entries = product.reshape(-1)[a - r0 * n : b - r0 * n]
            np.square(entries, out=entries)
            return float(np.sum(entries))

        leaves = _pairwise_leaves(0, n * n, CHAOS2_BLOCK * n)
        tr_m4 = _pairwise_fold(0, n * n, {leaf: leaf_sum(*leaf) for leaf in leaves})
    else:
        # M is symmetric, so rows lo..hi-1 are its columns lo..hi-1, and
        # M @ columns is a circulant product of length 2n-1 taken along each row
        length = 2 * n - 1
        spectrum = np.fft.rfft(np.concatenate([r, r[:0:-1]]))
        task_rows = slab_rows(length)
        buffer = np.empty(n * CHAOS2_BLOCK)
        tr_m4 = 0.0

        def multiply(rows: np.ndarray, columns: np.ndarray) -> None:
            f = np.fft.rfft(rows, n=length, axis=1)
            np.multiply(spectrum, f, out=f)
            columns[...] = np.fft.irfft(f, n=length, axis=1)[:, :n].T

        with ThreadPoolExecutor(worker_count()) as pool:
            for lo in range(0, n, CHAOS2_BLOCK):
                width = min(CHAOS2_BLOCK, n - lo)
                product = buffer[: n * width].reshape(n, width)  # M @ columns, C order
                starts = range(0, width, task_rows)
                rows = [windows[lo + i : lo + i + task_rows] for i in starts]
                list(pool.map(multiply, rows, [product[:, i : i + task_rows] for i in starts]))
                np.square(product, out=product)
                tr_m4 += float(np.sum(product))

    variance = 2.0 * tr_m2 / n
    fourth = (12.0 * tr_m2**2 + 48.0 * tr_m4) / n**2
    normalized = 3.0 + 12.0 * tr_m4 / tr_m2**2
    return Chaos2Moments(variance=variance, fourth_moment=fourth, normalized_m4=normalized)


def berry_esseen_coefficient(q: int) -> float:
    """sqrt((q-1)/(3q)); sqrt(1/6) ~ 0.408248 at q = 2."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return math.sqrt((q - 1) / (3.0 * q))


# Cephes ndtr, erf and erfc (S. L. Moshier, 1989): the same coefficients and
# Horner order, no fused ops, so the same bits as a compiled Cephes ndtr.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 where -z^2 falls below -MAXLOG
_SQRT1_2 = 0.70710678118654752440
# libm's exp, which Cephes calls; np.exp's SIMD loops can differ in the last bit
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _horner(x: np.ndarray, coef: Sequence[float], monic: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (or ``p1evl``, with a leading coefficient 1 not stored)."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1; odd in x, since (-x) * T / U = -(x * T / U)."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _normal_cdf(a: np.ndarray) -> np.ndarray:
    """Phi(a) with the bits of Cephes ``ndtr``, of which it is a port."""
    x = a * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(x)
    inner = z < _SQRT1_2
    outer = ~inner
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    tail = z[outer]
    erfc = np.zeros_like(tail)  # the underflow value
    near = tail < 1.0
    erfc[near] = 1.0 - _erf(tail[near])
    live = -tail * tail >= -_MAXLOG
    for part, p, q in ((~near & (tail < 8.0), _ERFC_P, _ERFC_Q), (live & (tail >= 8.0), _ERFC_R, _ERFC_S)):
        w = tail[part]
        erfc[part] = _libm_exp(-w * w).astype(float) * _horner(w, p) / _horner(w, q, monic=True)
    y = 0.5 * erfc
    out[outer] = np.where(x[outer] > 0, 1.0 - y, y)
    out[np.isnan(a)] = np.nan
    return out


def berry_esseen_check(H: float, n: int, m: int, seed: int) -> TestReport:
    """Fourth-moment Berry–Esseen-type bound vs the observed CDF distance.

    The variance-normalized second-chaos statistic F_n satisfies
    sup_z |P(F_n <= z) - Phi(z)| <= sqrt((q-1)/(3q)) sqrt(|E F_n^4 - 3|); the
    right side is exact (Toeplitz traces), the left side is estimated from m
    Monte Carlo replicas, and the verdict allows 3 x the DKW-scale MC error
    0.5/sqrt(m).  Phi is ``_normal_cdf``, a numpy port of Cephes ``ndtr``,
    so the check runs on numpy alone.  At H = 1/2 it makes no BLAS call
    beyond tr(M^2)'s length-n dot product (tr(M^4) = n needs no GEMM, and
    the white-noise sampler scales elementwise), so no BLAS thread competes
    with the sampling pool.
    """
    if not 0.0 < H < 0.75:
        raise ValueError("the fourth-moment bound needs H in (0, 3/4)")
    if m < 1:
        raise ValueError("m must be >= 1")

    started = time.perf_counter()
    moments = chaos2_fourth_moment_exact(H, n)
    bound = berry_esseen_coefficient(2) * math.sqrt(abs(moments.normalized_m4 - 3.0))

    grid = FbmGrid(H, n)
    scale = 1.0 / math.sqrt(moments.variance * n)  # = 1/(sigma_n sqrt(n)) variance-normalizer
    values = np.empty(m)

    def consume(start: int, batch: FbmPathBatch) -> None:
        x = batch.increments  # a fresh array that this batch owns
        np.multiply(x, float(n) ** H, out=x)
        np.multiply(x, x, out=x)
        x -= 1.0
        values[start : start + batch.m] = scale * x.sum(axis=1)

    map_paths(grid, m, seed, consume)
    values.sort(kind="stable")
    gauss = _normal_cdf(values)
    steps = np.arange(1, m + 1) / m
    observed = float(np.max(np.maximum(np.abs(steps - gauss), np.abs(gauss - (steps - 1.0 / m)))))

    mc_error = 0.5 / math.sqrt(m)
    return TestReport(
        name=f"berry-esseen-H{H}-n{n}",
        statistic=observed,
        threshold=bound + 3.0 * mc_error,
        sample_sizes=(int(m),),
        seeds=(int(seed),),
        extras={
            "bound": bound,
            "mc_error": mc_error,
            "normalized_m4": moments.normalized_m4,
            "variance": moments.variance,
            "coefficient_q2": berry_esseen_coefficient(2),
        },
        meta={"runtime_seconds": time.perf_counter() - started},
    )


# ---------------------------------------------------------------------------
# the Brownian weighted example (H = 1/2 pipeline check)
# ---------------------------------------------------------------------------


def _brownian_grid(power: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid resolving t^power near t = 1: uniform in u = t^(power+1)."""
    u = np.arange(resolution + 1) / resolution
    t = u ** (1.0 / (power + 1))
    return t, np.diff(t)


def brownian_example_run(
    n: int,
    m: int,
    seed: int,
    resolution: int = 8192,
    alpha: float = KS_ALPHA,
) -> tuple[TestReport, dict[str, np.ndarray]]:
    """Monte Carlo verification of F_n = sqrt(n) int_0^1 t^n W_t dW_t.

    As n grows this second-chaos sequence converges stably to
    (1/sqrt(2)) W_1 N with N independent of W, i.e. a Gaussian mixture with
    conditional variance S^2 = W_1^2/2.  Checks, on m replicas:

    - E<u_n, DF_n> = 1/2 within 3 MC standard errors (the conditional
      variance quantity; exactly E[S^2] in the limit),
    - E[F_n^2] = 1/2 within 3 MC standard errors,
    - two-sample KS between F_n and the limit law at level ``alpha``,
    - the conditional CF test against S^2 = W_1^2/2.

    Returns ``(TestReport, arrays)``, the arrays being the per-replica columns
    ``f``, ``inner``, ``s2`` and ``reference``, in that order.

    The time grid is uniform in t^(n+1) so the boundary layer of width ~1/n
    at t = 1, where all the variance of the integrand lives, is fully
    resolved; Brownian increments are exact on any grid, so the only
    discretization error is the O(1/resolution) Riemann bias of the
    integrals.  Also reports the exact orthogonality quantity
    <g_n x_1 g_n, 1^{(x2)}> = 2n/((n+2)(2n+3)) -> 0 that drives the
    asymptotic independence of the limit N from W.

    Replicas are processed slab by slab with :func:`chaoslab.rng.map_slabs`,
    one RNG block per worker thread, each thread reusing its own four scratch
    arrays of ``rng.slab_rows(resolution + 2)`` rows, so a slab's passes stay
    in cache at any resolution; every per-replica sum runs over one
    contiguous row, so the values do not depend on the thread count or the
    slab height.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    if m < 2:
        raise ValueError(
            f"need m >= 2 replicas (the z-scores take ddof=1 standard deviations), got m = {m}"
        )
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    started = time.perf_counter()
    t, dt = _brownian_grid(n, resolution)
    t_left = t[:-1]
    integrand = t_left**n  # t_k^n at the left endpoints
    sqrt_dt = np.sqrt(dt)
    root_n = math.sqrt(n)

    t_left_2n = t_left ** (2 * n)

    f_values = np.empty(m)
    inner_values = np.empty(m)
    ref_values = np.empty(m)
    s2_values = np.empty(m)
    scratch = threading.local()
    height = slab_rows(resolution + 2)  # the slabs map_slabs hands over

    def consume(start: int, raw: np.ndarray) -> None:
        rows = slice(start, start + len(raw))
        buffers = getattr(scratch, "buffers", None)
        if buffers is None:
            # four separate arrays: slices of one stacked array lie a power of
            # two of bytes apart at resolution 8192 (2**24 with 256-row slabs),
            # which made cumsum 2.4x slower
            buffers = scratch.buffers = [np.empty((height, resolution)) for _ in range(4)]
        dw, w_left, weighted_w, product = (buffer[: len(raw)] for buffer in buffers)

        np.multiply(raw[:, :resolution], sqrt_dt, out=dw)
        w_left[:, 0] = 0.0
        np.cumsum(dw[:, :-1], axis=1, out=w_left[:, 1:])
        w1 = w_left[:, -1] + dw[:, -1]
        np.multiply(integrand, w_left, out=weighted_w)
        f_values[rows] = root_n * np.multiply(weighted_w, dw, out=product).sum(axis=1)

        # <u_n, DF_n> = n int t^{2n} W_t^2 dt + n int t^n W_t (int_t^1 s^n dW_s) dt
        np.multiply(w_left, w_left, out=product)
        np.multiply(t_left_2n, product, out=product)
        term1 = n * np.multiply(product, dt, out=product).sum(axis=1)
        # before[:, j] = int_0^{t_j} s^n W_s ds, left-endpoint sums; reuses w_left
        before = w_left
        np.multiply(weighted_w, dt, out=product)
        before[:, 0] = 0.0
        np.cumsum(product[:, :-1], axis=1, out=before[:, 1:])
        np.multiply(integrand, dw, out=product)
        term2 = n * np.multiply(product, before, out=product).sum(axis=1)
        inner_values[rows] = term1 + term2

        s2_values[rows] = 0.5 * w1**2
        ref_values[rows] = raw[:, resolution] * raw[:, resolution + 1] / math.sqrt(2.0)

    map_slabs(derive_seed(seed, "brownian-example"), resolution + 2, m, consume)

    z_inner = abs(inner_values.mean() - 0.5) / (inner_values.std(ddof=1) / math.sqrt(m))
    second = f_values**2
    z_var = abs(second.mean() - 0.5) / (second.std(ddof=1) / math.sqrt(m))
    ks = ks_two_sample(f_values, ref_values, alpha)
    cf = conditional_cf_test(f_values, s2_values)
    condition_a = 2.0 * n / ((n + 2.0) * (2.0 * n + 3.0))

    statistic = max(z_inner / 3.0, z_var / 3.0, ks.statistic / ks.threshold, cf.statistic / cf.threshold)
    report = TestReport(
        name=f"brownian-example-n{n}",
        statistic=statistic,
        threshold=1.0,
        sample_sizes=(int(m),),
        seeds=(int(seed),),
        extras={
            "mean_inner": float(inner_values.mean()),
            "inner_z_score": float(z_inner),
            "mean_f_squared": float(second.mean()),
            "f_squared_z_score": float(z_var),
            "ks_statistic": ks.statistic,
            "ks_threshold": ks.threshold,
            "ks_p_value": ks.extras["p_value"],
            "cf_ratio": cf.statistic,
            "cf_threshold": cf.threshold,
            "condition_a_exact": condition_a,
            "resolution": resolution,
        },
        meta={"runtime_seconds": time.perf_counter() - started},
    )
    arrays = {"f": f_values, "inner": inner_values, "s2": s2_values, "reference": ref_values}
    return report, arrays

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
  Toeplitz trace identities (tr M^4 by one compensated recursion along the
  diagonals of M^2), the associated Berry–Esseen-type bound, and a Monte
  Carlo check that the observed CDF distance respects it,
- the classical Brownian example F_n = sqrt(n) int t^n W_t dW_t, whose limit
  (1/sqrt(2)) W_1 N exercises the whole stable-convergence pipeline at H=1/2;
  like the experiments it returns ``(TestReport, arrays)``.

fBm paths are reduced batch by batch by consumers of
:func:`chaoslab.fbm.map_paths`, and the mixing normals and the Brownian
example's raw normals slab by slab with :func:`chaoslab.rng.map_slabs`, the
thread pool under both.  Slabs of long rows are capped in bytes
(``rng.SLAB_BYTES``), so memory does not grow with the grid size.  Each
consumer writes its replicas' rows of preallocated arrays, and every replica
draws counter-based randomness addressed by its index, so results are
reproducible bit-for-bit whatever the thread count.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fbm import FbmGrid, FbmPathBatch, map_paths, rho
from .report import TestReport
from .rng import derive_seed, map_slabs, slab_rows
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

CHAOS2_MAX_N = 1 << 16
KS_ALPHA = 0.01
KOLMOGOROV_TERMS = 100  # terms of the asymptotic Kolmogorov tail series
KOLMOGOROV_DUAL_BELOW = 0.2  # below this lam the tail comes from the theta dual
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
    z = np.empty(m)

    def fill(start: int, slab: np.ndarray) -> None:
        z[start : start + len(slab)] = slab[:, 0]

    map_slabs(derive_seed(seed, "mixture-z"), 1, m, fill)
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
    summed over the first ``KOLMOGOROV_TERMS`` terms.

    Below ``KOLMOGOROV_DUAL_BELOW`` that series has not converged by then, so
    Q comes from its Jacobi theta dual, 1 - (sqrt(2 pi)/lam) sum_{k>=1}
    e^{-(2k-1)^2 pi^2 / (8 lam^2)}, whose fourth term is below 1e-300 there.
    """
    if lam <= 0:
        return 1.0
    if lam < KOLMOGOROV_DUAL_BELOW:
        tail = sum(math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam**2)) for k in (1, 2, 3))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * tail
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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a and Dekker's split a = hi + lo into 26-bit halves, whose products are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return a, hi, a - hi


def _two_product(u, w, p: np.ndarray, e: np.ndarray, work: np.ndarray) -> None:
    """p = fl(u w) and e = u w - p exactly (TwoProduct), u and w from ``_split``."""
    np.multiply(u[0], w[0], out=p)
    np.subtract(np.multiply(u[1], w[1], out=e), p, out=e)
    for a, b in ((u[1], w[2]), (u[2], w[1]), (u[2], w[2])):
        e += np.multiply(a, b, out=work)


def _two_sum_error(a, b, s, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(a + b) - s exactly for s = fl(a + b) (TwoSum), written to ``out``."""
    np.subtract(s, a, out=work)
    np.subtract(a, np.subtract(s, work, out=out), out=out)
    return np.add(out, np.subtract(b, work, out=work), out=out)


def _trace_m4(r: np.ndarray) -> float:
    """tr(M^4) = ||M^2||_F^2 for the symmetric Toeplitz M with first row r.

    M^2 is symmetric and centrosymmetric, so the first halves of its diagonals
    d >= 0 suffice.  Row 0 is a ``numpy.fft`` Toeplitz product, and down a
    diagonal (M^2)[a+1, b+1] - (M^2)[a, b] = r(a+1) r(b+1) - r(n-1-a) r(n-1-b).
    Each increment is an exact sum of two floats (TwoProduct, TwoSum), TwoSum
    recovers the cumulative sum's rounding errors, and Sum2 adds the squares
    in blocks of ``rng.slab_rows`` diagonals, whose partials ``math.fsum``
    adds: a few ulps from the exact trace at any block height.
    """
    n = len(r)
    length = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1
    embedding = np.concatenate([r, np.zeros(length - 2 * n + 1), r[:0:-1]])
    first = np.fft.irfft(np.fft.rfft(embedding) * np.fft.rfft(r, length), length)[:n]
    ahead = _split(np.concatenate([r, np.zeros(n)]))  # r(k), 0 past the end
    behind = _split(np.concatenate([[0.0], r[::-1], np.zeros(n)]))  # r(n - k)
    starts = [0]  # blocks of rng.slab_rows diagonals of the block's longest half
    while starts[-1] < n:
        starts.append(min(starts[-1] + slab_rows((n - starts[-1] + 1) // 2), n))
    blocks = list(zip(starts, starts[1:]))
    buffers = np.empty((6, max((d1 - d0) * ((n - d0 + 1) // 2) for d0, d1 in blocks)))

    def block_sums(d0: int, d1: int) -> list[float]:
        width = (n - d0 + 1) // 2  # first half of diagonal d0, the longest here
        window = lambda v: np.lib.stride_tricks.sliding_window_view(v, width)[d0:d1]
        p, q, e, comp, out, work = (b[: (d1 - d0) * width].reshape(-1, width) for b in buffers)
        # column u: the increment from entry u - 1 to entry u of its diagonal, as s + comp
        _two_product([v[:width] for v in ahead], [window(v) for v in ahead], p, comp, work)
        _two_product([v[:width] for v in behind], [window(v) for v in behind], q, e, work)
        comp -= e
        s = np.add(p, np.negative(q, out=q), out=e)
        comp += _two_sum_error(p, q, s, out, work)
        s[:, 0], comp[:, 0] = first[d0:d1], 0.0
        x = np.cumsum(s, axis=1, out=p)
        comp[:, 1:] += _two_sum_error(x[:, :-1], s[:, 1:], x[:, 1:], out[:, 1:], work[:, 1:])
        x += np.cumsum(comp, axis=1, out=comp)
        np.square(x, out=x)
        # a quarter of each count: 1 in a first half, 1/2 at a middle, 0 past it; halved on d = 0
        d = np.arange(d0, d1)[:, None]
        x *= np.clip(n - d - 2 * np.arange(width), 0, 2) * np.where(d > 0, 0.5, 0.25)
        x, sums = x.reshape(-1), np.cumsum(x, out=q.reshape(-1))
        errors = _two_sum_error(sums[:-1], x[1:], sums[1:], out.reshape(-1)[1:], work.reshape(-1)[1:])
        return [float(sums[-1]), float(np.sum(errors))]

    return 4.0 * math.fsum(v for d0, d1 in blocks for v in block_sums(d0, d1))


def chaos2_fourth_moment_exact(H: float, n: int) -> Chaos2Moments:
    """Exact moments of G = n^{-1/2} sum_k He_2(n^H dB_k) from Toeplitz traces.

    With M the n x n matrix rho_H(k - j):  E[G^2] = 2 tr(M^2)/n and
    E[G^4] = (12 tr(M^2)^2 + 48 tr(M^4))/n^2, so the kurtosis of the
    variance-normalized statistic is normalized_m4 = 3 + 12 tr(M^4)/tr(M^2)^2.
    tr(M^2) is a lag sum; tr(M^4) is ``_trace_m4``'s compensated recursion
    along the diagonals of M^2 at every H and n, in O(n^2) time, without BLAS.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CHAOS2_MAX_N:
        raise ValueError(f"n = {n} exceeds CHAOS2_MAX_N = {CHAOS2_MAX_N}")
    lags = np.arange(n)
    r = np.asarray(rho(H, lags), dtype=float)
    weights = np.concatenate([[float(n)], 2.0 * (n - lags[1:])])
    tr_m2 = float(weights @ (r**2))  # a BLAS ddot, whose bits the recorded moments hold
    tr_m4 = _trace_m4(r)
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
    so the check runs on numpy alone, and its one BLAS call is tr(M^2)'s
    length-n dot product, so no BLAS thread competes with the sampling pool.
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

"""Weighted Hermite variations of fBm and their exact pathwise decomposition.

The central statistic, for a weight f, order q and n grid increments, is

    G_n = n^{-1/2} sum_{k=0}^{n-1} f(B_{k/n}) He_q(n^H (B_{(k+1)/n} - B_{k/n}))

with He_q monic by default ("monic" normalization) or divided by q! ("scaled").
Everything else here is exact structure around G_n:

- the (q, H) regime classification with its renormalization factors,
- the limit standard deviation sigma_{H,q} = sqrt(q! sum_r rho_H(r)^q),
- the q-th-derivative correction term and its constant c_q,
- the closed-form evaluation of the one-increment Skorohod integrals
  delta^p(g(B_{k/n}) del^{tensor p}), and the resulting exact decomposition of
  G_n into a top-order divergence, middle divergences, and a remainder —
  an algebraic identity holding path by path, not an asymptotic statement,
- the quadratic functional A_n whose limit is sigma^2 int f(B)^2.

:func:`full_variation` computes G_n and everything above that is taken per
path, and returns it as one :class:`VariationResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fbm import FbmPathBatch, alpha_diag, del_norm, rho, signed_rho_power_sum
from .hermite import hermite_eval, normalization_scale
from .weights import WeightFunction

__all__ = [
    "RegimeSpec",
    "SigmaHq",
    "VariationResult",
    "a_n_statistic",
    "classify_regime",
    "correction_constant",
    "decompose_gn",
    "full_variation",
    "sigma_hq",
    "skorohod_weighted_closed_form",
]

REGIME_BOUNDARY_TOL = 1e-12
A_N_LAG_CUTOFF = 1e-14
A_N_DIRECT_MAX_LAGS = 64


# ---------------------------------------------------------------------------
# regimes and limit constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeSpec:
    """Asymptotic regime of (q, H): label, renormalization, limit description.

    ``corrected`` marks the regime whose limit statement applies to G_n minus
    the q-th-derivative correction term.  ``renormalization_factor(n)`` maps
    the (possibly corrected) statistic to its O(1) scale.
    """

    q: int
    H: float
    label: str
    exponent: float | None  # factor n^exponent, or None for the log scaling
    corrected: bool
    limit: str

    def renormalization_factor(self, n: int) -> float:
        if n < 2:
            raise ValueError("renormalization needs n >= 2")
        if self.exponent is None:
            return 1.0 / math.sqrt(math.log(n))
        return float(n) ** self.exponent


def classify_regime(q: int, H: float) -> RegimeSpec:
    """Classify (q, H) into the five-regime map with 1e-12 boundary detection."""
    if q < 2:
        raise ValueError("regime classification needs q >= 2")
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {H}")
    lower_critical = 1.0 / (2 * q)
    upper_critical = 1.0 - 1.0 / (2 * q)
    if abs(H - lower_critical) <= REGIME_BOUNDARY_TOL:
        return RegimeSpec(
            q, H, "critical_lower", 0.0, False,
            "combined: independent Gaussian mixture plus a deterministic-shift integral",
        )
    if abs(H - upper_critical) <= REGIME_BOUNDARY_TOL:
        return RegimeSpec(
            q, H, "critical_upper", None, False,
            "Gaussian mixture at the 1/sqrt(log n) scale",
        )
    if H < lower_critical:
        return RegimeSpec(
            q, H, "lower", q * H - 0.5, False,
            "deterministic integral of the q-th derivative weight",
        )
    if H < upper_critical:
        return RegimeSpec(
            q, H, "mixed_clt", 0.0, True,
            "Gaussian mixture sigma_{H,q} * sqrt(int f(B)^2) * N after correction",
        )
    return RegimeSpec(
        q, H, "hermite", q * (1.0 - H) - 0.5, False,
        "higher-order limit; only the variance scaling is checked here",
    )


class SigmaHq(NamedTuple):
    sigma: float
    sigma_sq: float


def sigma_hq(H: float, q: int, tol: float = 1e-10) -> SigmaHq:
    """Limit standard deviation: sigma^2 = q! sum_{r in Z} rho_H(r)^q.

    The lag series is truncated once the certified tail bound drops below
    ``tol`` (see :func:`chaoslab.fbm.signed_rho_power_sum`).  Requires
    H < 1 - 1/(2q); raises "divergent series" otherwise.  The result is
    checked for positivity, which holds throughout the summable range but is
    asserted rather than assumed.
    """
    series = signed_rho_power_sum(H, q, tol)
    sigma_sq = math.factorial(q) * series
    if sigma_sq <= 0:
        raise ValueError(f"sigma^2 = {sigma_sq} is not positive at H={H}, q={q}")
    return SigmaHq(sigma=math.sqrt(sigma_sq), sigma_sq=sigma_sq)


# ---------------------------------------------------------------------------
# the statistic, its correction, and the exact decomposition
# ---------------------------------------------------------------------------


def correction_constant(q: int, normalization: str) -> float:
    """c_q = (-1)^q / 2^q under monic normalization, divided by q! under scaled."""
    return (-1.0) ** q / 2.0**q / normalization_scale(q, normalization)


@dataclass(frozen=True)
class VariationResult:
    """Per-path variation values plus the configuration that produced them.

    ``mean_square_weight`` is the per-path mean of f(B_{k/n})^2 over the n
    left endpoints, taken while G_n's weight values are at hand so that the
    conditional variance of the limit needs no second weight evaluation.
    ``mean_weight_derivative`` is the per-path mean of f^(q)(B_{k/n}), taken
    with the correction term, for the shift at the lower critical point.
    ``regime`` and ``renormalized`` are None only at q = 1; ``components``
    and ``max_residual`` (the largest |G_n - sum of components|) are None
    unless the decomposition was asked for.
    """

    q: int
    H: float
    n: int
    normalization: str
    seed: int
    weight: str
    gn: np.ndarray
    correction: np.ndarray
    mean_square_weight: np.ndarray
    mean_weight_derivative: np.ndarray
    regime: RegimeSpec | None
    renormalized: np.ndarray | None
    components: dict[str, np.ndarray] | None
    max_residual: float | None

    @property
    def m(self) -> int:
        return self.gn.shape[0]

    def component_names(self) -> list[str]:
        return sorted(self.components) if self.components else []

    def csv_header(self) -> list[str]:
        head = ["path", "gn", "correction", "renormalized"]
        head.extend(self.component_names())
        return head

    def csv_rows(self):
        ren = self.renormalized
        comps = self.components or {}
        names = self.component_names()
        for i in range(self.m):
            row: list[float | int | str] = [i, float(self.gn[i]), float(self.correction[i])]
            row.append(float(ren[i]) if ren is not None else "")
            row.extend(float(comps[name][i]) for name in names)
            yield row

    def summary(self) -> dict:
        out: dict = {
            "q": self.q,
            "H": self.H,
            "n": self.n,
            "m": self.m,
            "normalization": self.normalization,
            "seed": self.seed,
            "weight": self.weight,
            "gn_mean": float(np.mean(self.gn)) if self.m else 0.0,
            "gn_var": float(np.var(self.gn)) if self.m else 0.0,
        }
        if self.regime is not None:
            out["regime"] = self.regime.label
        if self.renormalized is not None and self.m:
            out["renormalized_mean"] = float(np.mean(self.renormalized))
            out["renormalized_var"] = float(np.var(self.renormalized))
        if self.components:
            out["component_max_residual"] = self.max_residual
        return out


def _weight_values(batch: FbmPathBatch, f: WeightFunction, order: int = 0) -> np.ndarray:
    return np.asarray(f(batch.levels_at_increment_start(), order))


def _correction(
    batch: FbmPathBatch, q: int, f: WeightFunction, normalization: str
) -> tuple[np.ndarray, np.ndarray]:
    """The q-th-derivative compensator c_q n^{-1/2-qH} sum_k f^(q)(B_{k/n}), and
    the per-path mean of f^(q)(B_{k/n}), from one evaluation of f^(q)."""
    grid = batch.grid
    deriv_sums = _weight_values(batch, f, q).sum(axis=1)
    scale = correction_constant(q, normalization) * float(grid.n) ** (-0.5 - q * grid.hurst)
    # sum / n is what np.mean(f^(q), axis=1) computes, bit for bit
    return scale * deriv_sums, deriv_sums / grid.n


def skorohod_weighted_closed_form(level, increment, alpha: float, del_norm: float, q: int, f: WeightFunction, r: int):
    """Pathwise value of delta^{q-r}( f^(r)(B_a) del^{tensor (q-r)} ).

    Uses the closed form (proved by induction on p = q - r, and validated
    against the exact small-dimension Skorohod oracle):

        delta^p(g(B_a) del^{tensor p})
            = sum_{j=0}^{p} C(p,j) (-alpha)^j g^(j)(B_a)
              del_norm^{p-j} He_{p-j}(increment / del_norm)

    where alpha = <eps_a, del> and del_norm = ||del||.  Broadcasts over array
    arguments.  Monic Hermite polynomials; normalization-free by design (the
    q! bookkeeping of the scaled mode lives in the G_n-level callers).
    """
    if r < 0 or r > q:
        raise ValueError("need 0 <= r <= q")
    p = q - r
    level = np.asarray(level, dtype=float)
    increment = np.asarray(increment, dtype=float)
    alpha_arr = np.asarray(alpha, dtype=float)
    if del_norm <= 0:
        raise ValueError("del_norm must be positive")
    unit = increment / del_norm
    total = None
    for j in range(p + 1):
        term = (
            math.comb(p, j)
            * (-alpha_arr) ** j
            * np.asarray(f(level, r + j))
            * del_norm ** (p - j)
            * np.asarray(hermite_eval(p - j, unit))
        )
        total = term if total is None else total + term
    assert total is not None
    return total if np.ndim(total) else float(total)


def decompose_gn(
    batch: FbmPathBatch,
    q: int,
    f: WeightFunction,
    normalization: str = "monic",
) -> dict[str, np.ndarray]:
    """Exact pathwise decomposition of G_n into divergence components.

    Inverting the closed form above gives, for every increment k,

        f(B_k) ||del||^q He_q(dB_k/||del||)
            = sum_{r=0}^{q} C(q,r) alpha_k^r delta^{q-r}(f^(r)(B_k) del^{tensor(q-r)})

    so G_n = main + middle_1 + ... + middle_{q-1} + remainder with

        main      = n^{qH-1/2} sum_k delta^q(f(B_k) del^{tensor q})
        middle_r  = n^{qH-1/2} C(q,r) sum_k alpha_k^r delta^{q-r}(f^(r)(B_k) ...)
        remainder = n^{qH-1/2} sum_k alpha_k^q f^(q)(B_k)

    (alpha_k = <eps_{k/n}, del_{k/n}>).  Under scaled normalization every
    component is divided by q!.  The components sum to G_n exactly (an
    algebraic identity; residuals are floating-point only).
    """
    grid = batch.grid
    n, H = grid.n, grid.hurst
    levels = batch.levels_at_increment_start()
    increments = batch.increments
    alphas = np.asarray(alpha_diag(H, n, np.arange(n)))
    dnorm = del_norm(H, n)
    outer_scale = float(n) ** (q * H - 0.5) / normalization_scale(q, normalization)

    components: dict[str, np.ndarray] = {}
    for r in range(q + 1):
        per_increment = skorohod_weighted_closed_form(
            levels, increments, alphas[None, :], dnorm, q, f, r
        )
        weighted = math.comb(q, r) * alphas[None, :] ** r * np.asarray(per_increment)
        value = outer_scale * weighted.sum(axis=1)
        if r == 0:
            components["main"] = value
        elif r == q:
            components["remainder"] = value
        else:
            components[f"middle_{r}"] = value
    return components


def full_variation(
    batch: FbmPathBatch,
    q: int,
    f: WeightFunction,
    normalization: str = "monic",
    decompose: bool = False,
) -> VariationResult:
    """Per-path G_n with its correction, regime renormalization, weight means
    and, with ``decompose``, its exact decomposition."""
    if q < 1:
        raise ValueError("q must be >= 1")
    grid = batch.grid
    scaled_increments = grid.n**grid.hurst * batch.increments
    hermites = hermite_eval(q, scaled_increments, normalization=normalization)
    weights = _weight_values(batch, f)
    gn = np.multiply(weights, hermites, out=hermites).sum(axis=1) / math.sqrt(grid.n)
    mean_square_weight = np.mean(np.square(weights, out=weights), axis=1)
    gn = np.asarray(gn, dtype=float).reshape(batch.m)
    correction, mean_weight_derivative = _correction(batch, q, f, normalization)
    regime = None
    renormalized = None
    if q >= 2:
        regime = classify_regime(q, grid.hurst)
        centered = gn - correction if regime.corrected else gn
        renormalized = regime.renormalization_factor(grid.n) * centered
    components = None
    max_residual = None
    if decompose:
        components = decompose_gn(batch, q, f, normalization)
        residual = gn - sum(components.values())
        max_residual = float(np.max(np.abs(residual))) if batch.m else 0.0
    return VariationResult(
        q=q,
        H=grid.hurst,
        n=grid.n,
        normalization=normalization,
        seed=batch.seed,
        weight=f.describe(),
        gn=gn,
        correction=correction,
        mean_square_weight=mean_square_weight,
        mean_weight_derivative=mean_weight_derivative,
        regime=regime,
        renormalized=renormalized,
        components=components,
        max_residual=max_residual,
    )


def _fast_len(target: int) -> int:
    """The smallest 5-smooth integer >= ``target`` (the next fast real-FFT
    length); below 2**64 the 5-smooth integers are exactly the divisors of 30**64."""
    size = target
    while 30**64 % size:
        size += 1
    return size


def a_n_statistic(batch: FbmPathBatch, q: int, f: WeightFunction) -> np.ndarray:
    """The quadratic functional A_n = n^{2qH-1} q! sum_{l,j} beta_{l,j}^q f(B_l) f(B_j).

    Since beta_{l,j} = n^{-2H} rho(l-j), this reduces to
    (q!/n) sum_{l,j} rho(l-j)^q f_l f_j, computed per path over the lag band
    where |rho|^q >= 1e-14 (direct banded sums for narrow bands, one
    ``numpy.fft`` autocorrelation per path at a 5-smooth length otherwise;
    both exact to well below tolerance).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    grid = batch.grid
    n = grid.n
    weights = _weight_values(batch, f)
    lag_rho = np.asarray(rho(grid.hurst, np.arange(n)), dtype=float)
    lag_weights = lag_rho**q
    significant = np.nonzero(np.abs(lag_weights) >= A_N_LAG_CUTOFF)[0]
    max_lag = int(significant.max()) if significant.size else 0

    if max_lag <= A_N_DIRECT_MAX_LAGS:
        total = lag_weights[0] * (weights * weights).sum(axis=1)
        for lag in range(1, max_lag + 1):
            if abs(lag_weights[lag]) < A_N_LAG_CUTOFF:
                continue
            overlap = (weights[:, lag:] * weights[:, :-lag]).sum(axis=1)
            total = total + 2.0 * lag_weights[lag] * overlap
    else:
        size = _fast_len(2 * n)
        spectrum = np.fft.rfft(weights, size, axis=1)
        autocorr = np.fft.irfft(np.abs(spectrum) ** 2, size, axis=1)[:, :n]
        total = lag_weights[0] * autocorr[:, 0] + 2.0 * (autocorr[:, 1:] @ lag_weights[1:])
    return np.asarray(math.factorial(q) / n * total, dtype=float).reshape(batch.m)

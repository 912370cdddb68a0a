"""The scaled Dirichlet reserving model.

Incremental loss ratios of accident year i, divided by a per-year scale
phi_i, follow a Dirichlet distribution jointly with a tail remainder:

    (Y_i1/phi_i, ..., Y_in/phi_i, 1 - sum_j Y_ij/phi_i) ~ Dir(a_1..a_n, b_n)

This module provides the log-density and log-likelihood, moments of
cumulative ratios, development factors and quotas, the credibility
predictor blending Chain-Ladder with the expected method, conditional
allocations, and sampling. All probability math stays in log space.
Development-year and accident-year indices in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .special import log_gamma
from .triangle import LossRatioTriangle


class SupportError(NumericalError):
    """A loss-ratio configuration lies outside the model's support."""


@dataclass(frozen=True)
class DirichletParams:
    """Full parameter vector of the reserving model.

    a : positive shape parameter per development year (length n).
    b_n : tail shape parameter, at least 1.
    phi : per-accident-year scale, the all-time expected ultimate loss
        ratio (length m).
    """

    a: np.ndarray
    b_n: float
    phi: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        phi = np.array(self.phi, dtype=float)
        a.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_n", float(self.b_n))
        object.__setattr__(self, "phi", phi)
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a) & (a > 0)):
            raise ValueError("every development shape parameter must be positive and finite")
        if not np.isfinite(self.b_n) or self.b_n < 1.0:
            raise ValueError("the tail shape parameter must be >= 1")
        if phi.ndim != 1 or phi.size == 0 or not np.all(np.isfinite(phi) & (phi > 0)):
            raise ValueError("every accident-year scale must be positive and finite")

    @property
    def a0(self) -> float:
        """Sum of the development shape parameters."""
        return float(self.a.sum())

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def m(self) -> int:
        return self.phi.size


@dataclass(frozen=True)
class ReservePrediction:
    """Point prediction of an accident year's n-year cumulative loss ratio
    and the implied reserve (predicted ultimate minus paid-to-date), with
    optional interval bounds."""

    year: int
    method: str
    ultimate: float
    reserve: float
    lo: float | None = None
    hi: float | None = None


def _check_row(params: DirichletParams, t: LossRatioTriangle, i: int) -> int:
    if params.n != t.n or params.m != t.m:
        raise ValueError(
            f"parameter dimensions (n={params.n}, m={params.m}) do not match "
            f"triangle (n={t.n}, m={t.m})"
        )
    if not 1 <= i <= t.m:
        raise IndexError(f"accident year index {i} out of range 1..{t.m}")
    return int(t.k[i - 1])


def row_log_density(params: DirichletParams, t: LossRatioTriangle, i: int) -> float:
    """Log density of accident year i's observed loss ratios.

    Returns -inf when the scale phi_i does not dominate the observed
    cumulative ratio (a support violation, as opposed to invalid
    parameters, which raise at construction).
    """
    k = _check_row(params, t, i)
    a, b = params.a, params.b_n
    a0 = params.a0
    phi = float(params.phi[i - 1])
    y = t.ratios[i - 1, :k]
    s = float(y.sum())
    ck = float(a[:k].sum())
    close = a0 + b - ck  # closing shape of the unobserved remainder
    # at phi == s the density degenerates unless the remainder exponent vanishes
    if phi < s or (phi == s and close != 1.0):
        return -np.inf
    tail = 0.0 if phi == s else (close - 1.0) * np.log1p(-s / phi)
    val = log_gamma(a0 + b) - log_gamma(a[:k]).sum() - log_gamma(close)
    val += float(((a[:k] - 1.0) * np.log(y)).sum())
    val -= ck * np.log(phi)
    return float(val + tail)


def total_loglik(params: DirichletParams, t: LossRatioTriangle) -> float:
    """Sum of row log densities over all accident years; -inf propagates."""
    return float(sum(row_log_density(params, t, i) for i in range(1, t.m + 1)))


def cumulative_moments(params: DirichletParams, i: int, k: int, k2: int):
    """Mean and variance of the cumulative loss ratio of accident year i
    over development years k..k2."""
    if not 1 <= i <= params.m:
        raise IndexError(f"accident year index {i} out of range 1..{params.m}")
    if not 1 <= k <= k2 <= params.n:
        raise IndexError(f"need 1 <= k <= k2 <= {params.n}")
    phi = float(params.phi[i - 1])
    tot = params.a0 + params.b_n
    block = float(params.a[k - 1 : k2].sum())
    mean = block / tot * phi
    var = block * (tot - block) / (tot**2 * (tot + 1.0)) * phi**2
    return mean, var


def dev_factor(params: DirichletParams, k: int) -> float:
    """Expected development factor from year k to k + 1."""
    if not 1 <= k <= params.n - 1:
        raise IndexError(f"development factor index {k} out of range 1..{params.n - 1}")
    c = np.cumsum(params.a)
    return float(c[k] / c[k - 1])


def dev_quota(params: DirichletParams, k: int) -> float:
    """Expected fraction of n-year losses paid by development year k."""
    if not 1 <= k <= params.n:
        raise IndexError(f"development quota index {k} out of range 1..{params.n}")
    return float(params.a[:k].sum() / params.a0)


def credibility_weight(params: DirichletParams, k: int) -> float:
    """Weight given to the Chain-Ladder prediction after k observed years.

    Equals the squared ratio of the coefficients of variation of the
    n-year and k-year cumulative ratios.
    """
    if not 1 <= k <= params.n:
        raise IndexError(f"credibility index {k} out of range 1..{params.n}")
    a0, b = params.a0, params.b_n
    ck = float(params.a[:k].sum())
    return float(b / (a0 - ck + b) * ck / a0)


def tail_factor(params: DirichletParams) -> float:
    """Multiplier for development beyond the n-th year."""
    return 1.0 + params.b_n / params.a0


def predict_dirichlet(params: DirichletParams, t: LossRatioTriangle, i: int) -> ReservePrediction:
    """Credibility prediction of accident year i's n-year cumulative ratio.

    Blends the Chain-Ladder projection (observed cumulative scaled by the
    inverse development quota) with the model's expected cumulative,
    weighted by :func:`credibility_weight`. Identical to the conditional
    expectation of the cumulative ratio given the observed prefix.
    """
    k = _check_row(params, t, i)
    s = float(t.observed_cumulative()[i - 1])
    v = credibility_weight(params, k)
    s_cl = s / dev_quota(params, k)
    s_ex = params.a0 / (params.a0 + params.b_n) * float(params.phi[i - 1])
    ult = v * s_cl + (1.0 - v) * s_ex
    return ReservePrediction(t.years[i - 1], "dirichlet", ult, ult - s)


def conditional_allocation(params: DirichletParams, k: int):
    """Dirichlet parameters of the paid and unpaid splits after k years.

    Returns the parameter vector of the within-paid allocation
    (a_1..a_k) and of the future allocation including the tail component
    (a_{k+1}..a_n, b_n).
    """
    if not 1 <= k <= params.n - 1:
        raise IndexError(f"allocation index {k} out of range 1..{params.n - 1}")
    paid = params.a[:k].copy()
    future = np.append(params.a[k:], params.b_n)
    return paid, future


def sample_row(params: DirichletParams, i: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one full loss-ratio row (n cells plus the tail remainder).

    Components are positive and sum to phi_i. Uses the gamma
    normalization construction for robustness at small shapes.
    """
    if not 1 <= i <= params.m:
        raise IndexError(f"accident year index {i} out of range 1..{params.m}")
    shapes = np.append(params.a, params.b_n)
    g = rng.gamma(shapes)
    return g / g.sum() * float(params.phi[i - 1])


def simulate_masked(params: DirichletParams, k, rng: np.random.Generator) -> np.ndarray:
    """Draw every row as :func:`sample_row` does, in row order, and zero
    each row beyond its first ``k[i]`` cells.

    Returns an (m, n) array: a simulated triangle with the observed mask
    ``k``, the unobserved cells zero-filled.
    """
    n = params.n
    shapes = np.append(params.a, params.b_n)
    g = rng.gamma(shapes, size=(params.m, n + 1))
    comp = g[:, :n] / g.sum(axis=1, keepdims=True) * params.phi[:, None]
    return np.where(np.arange(n) < np.asarray(k)[:, None], comp, 0.0)


def sample_future_row(
    params: DirichletParams, t: LossRatioTriangle, i: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the unpaid cells of accident year i given its observed prefix.

    Returns an empty array for a fully observed row. The draw allocates
    the outstanding amount phi_i - S_{i,1:k} across development years
    k+1..n and the tail, returning the n - k within-horizon cells.
    """
    k = _check_row(params, t, i)
    if k == t.n:
        return np.empty(0)
    s = float(t.ratios[i - 1, :k].sum())
    phi = float(params.phi[i - 1])
    if phi <= s:
        raise SupportError(
            f"scale {phi:.6g} does not exceed observed cumulative {s:.6g} "
            f"for accident year {t.years[i - 1]}"
        )
    shapes = np.append(params.a[k:], params.b_n)
    g = rng.gamma(shapes)
    frac = g[:-1] / g.sum()
    return (phi - s) * frac


def unpaid_totals(a, b_n, phi, k, observed, rng) -> np.ndarray:
    """Draw every accident year's unpaid sum within the horizon, given its
    observed prefix, for R parameter draws: ``a`` (R, n), ``b_n`` scalar or
    (R,), ``phi`` (R, m), prefix lengths ``k`` and cumulatives ``observed``.

    By the aggregation property, :func:`sample_future_row`'s cells sum to
    (phi_i - s_i) times one Beta(sum_{j > k_i} a_j, b_n) variate, so each
    partial row costs one beta draw; fully developed rows get exactly 0.
    ``rng`` is one generator, which draws the whole (R, partial rows)
    matrix in one call, or R generators, each drawing its own draw's row.
    """
    rows = np.flatnonzero(np.asarray(k) < a.shape[1])
    excess = phi[:, rows] - observed[rows]
    if not (excess > 0.0).all():
        raise SupportError("a scale does not exceed its row's observed cumulative")
    alpha = np.cumsum(a[:, ::-1], axis=1)[:, ::-1][:, np.asarray(k)[rows]]
    beta = np.broadcast_to(np.reshape(b_n, (-1, 1)), alpha.shape)
    if isinstance(rng, np.random.Generator):
        frac = rng.beta(alpha, beta)
    else:
        frac = np.stack([g.beta(al, be) for g, al, be in zip(rng, alpha, beta)])
    out = np.zeros(phi.shape)
    out[:, rows] = excess * frac
    return out

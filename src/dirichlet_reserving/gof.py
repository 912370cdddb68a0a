"""Goodness-of-fit test for the Dirichlet reserving model.

Sequential probability integral transforms: under the model, each
observed cell divided by the remaining scale of its row follows a Beta
distribution, so the fitted Beta CDF values over the triangle are iid
uniform. A Kolmogorov-Smirnov statistic on those values is compared
against its bootstrap null distribution (simulate from the fit, refit,
retransform), with a two-sided decision region.

The last development year's cell of accident years i <= m - n (1-based)
is excluded, its transform being degenerate at 1. A staircase has m - n + 1
fully developed rows, so the newest of them keeps its last cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mle
from .bootstrap import refit_replicates
from .errors import InputError
from .model import DirichletParams, SupportError
from .triangle import LossRatioTriangle


@dataclass(frozen=True)
class GofResult:
    """KS statistic of the observed data, its bootstrap null sample, the
    two-sided decision region and the verdict."""

    t_obs: float
    null_sample: np.ndarray
    lower: float
    upper: float
    alpha: float
    reject: bool
    n_cells: int


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Continued-fraction evaluation of the regularized incomplete beta
    function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    # evaluate on whichever side keeps the continued fraction fast-converging
    if x < (a + 1.0) / (a + b + 2.0):
        val = front * _beta_continued_fraction(a, b, x) / a
    else:
        val = 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
    return float(min(1.0, max(0.0, val)))


def pit_transform(params: DirichletParams, t: LossRatioTriangle) -> np.ndarray:
    """Fitted Beta CDF values of the sequential cell ratios over the
    included index set, row by row then by development year."""
    a, b = params.a, params.b_n
    a0 = params.a0
    m, n = t.m, t.n
    out = []
    for i in range(m):
        ki = int(t.k[i])
        remaining = float(params.phi[i])
        for j in range(ki):
            y = float(t.ratios[i, j])
            if remaining <= 0.0 or y > remaining * (1.0 + 1e-9):
                raise SupportError(
                    f"cell ratio outside the model support at accident year "
                    f"{t.years[i]}, development year {j + 1}"
                )
            if not (j == n - 1 and i + 1 <= m - n):
                ratio = min(1.0, y / remaining)
                tail_shape = a0 - a[: j + 1].sum() + b
                out.append(
                    regularized_incomplete_beta(ratio, float(a[j]), float(tail_shape))
                )
            remaining -= y
    return np.array(out)


def ks_statistic(u) -> float:
    """Sup distance between the empirical CDF of ``u`` and uniform(0, 1)."""
    u = np.sort(np.asarray(u, dtype=float))
    if u.size == 0:
        raise ValueError("empty sample")
    N = u.size
    grid = np.arange(1, N + 1) / N
    return float(max(np.max(grid - u), np.max(u - (grid - 1.0 / N))))


def gof_test(
    t: LossRatioTriangle,
    alpha: float = 0.05,
    n_boot: int = 500,
    seed: int = 0,
) -> GofResult:
    """Bootstrap-calibrated two-sided KS test of model fit.

    Fits the model, computes the KS statistic of the transformed data,
    rebuilds the null distribution from ``n_boot`` simulated datasets
    (each refitted before transforming), and rejects when the observed
    statistic falls outside the central 1 - alpha region of the null.
    Null replicate ``idx`` draws from its own stream derived from
    (seed, idx); the refits run in the bootstrap's lockstep batches
    (:func:`bootstrap.refit_replicates`), so the chunk size changes no
    statistic. More than 10 failed refits of one replicate raise
    ``ConvergenceError``.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("significance level must be inside (0, 1)")
    if n_boot < 1:
        raise InputError(f"n_boot must be at least 1, got {n_boot}")
    fit = mle.fit_mle(t)
    u_obs = pit_transform(fit.theta_hat, t)
    t_obs = ks_statistic(u_obs)

    mask = np.arange(t.n) < t.k[:, None]
    null = []
    batches = refit_replicates(fit.theta_hat, t.k, seed, 3, n_boot, error=mle.ConvergenceError)
    for a, phi, sims, _, _ in batches:
        for a_r, phi_r, sim in zip(a, phi, sims):
            sim_t = LossRatioTriangle(t.years, t.premiums, np.where(mask, sim, np.nan))
            null.append(ks_statistic(pit_transform(DirichletParams(a_r, 1.0, phi_r), sim_t)))
    null = np.array(null)
    lower = float(np.quantile(null, alpha / 2.0))
    upper = float(np.quantile(null, 1.0 - alpha / 2.0))
    reject = bool(t_obs < lower or t_obs > upper)
    return GofResult(t_obs, null, lower, upper, alpha, reject, int(u_obs.size))


def to_json_dict(r: GofResult) -> dict:
    """JSON-ready summary of a test result."""
    return {
        "t_obs": r.t_obs,
        "lower": r.lower,
        "upper": r.upper,
        "alpha": r.alpha,
        "n_boot": int(r.null_sample.size),
        "reject": r.reject,
    }

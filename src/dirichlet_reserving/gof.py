"""Goodness-of-fit test for the Dirichlet reserving model.

Sequential probability integral transforms: under the model, each
observed cell divided by the remaining scale of its row follows a Beta
distribution, so the fitted Beta CDF values over the triangle are iid
uniform. A Kolmogorov-Smirnov statistic on those values is compared
against its bootstrap null distribution (simulate from the fit, refit and
retransform, in slices of ``_SLICE``), with a two-sided decision region.

The last development year's cell of accident years i <= m - n (1-based)
is excluded, its transform being degenerate at 1. A staircase has m - n + 1
fully developed rows, so the newest of them keeps its last cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle
from .bootstrap import _SLICE, refit_replicates
from .errors import InputError
from .model import DirichletParams, SupportError
from .special import regularized_incomplete_beta
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


def _pit(a, b, phi, ratios, k, years) -> np.ndarray:
    """Fitted Beta CDF values (R, N) of R datasets sharing the observed
    mask ``k``: shapes ``a`` (R, n), tail shape ``b``, scales ``phi``
    (R, m), ratios (R, m, n). A cell's remaining scale is phi minus its
    row's cumulative before it; its shapes are a_j and a0 - c_j + b."""
    m, n = ratios.shape[1:]
    mask = np.arange(n) < np.asarray(k)[:, None]
    y = np.where(mask, ratios, 0.0)
    remaining = phi[:, :, None] - (np.cumsum(y, axis=2) - y)
    bad = mask & ((remaining <= 0.0) | (y > remaining * (1.0 + 1e-9)))
    if bad.any():
        _, i, j = np.argwhere(bad)[0]
        raise SupportError(
            f"cell ratio outside the model support at accident year "
            f"{years[i]}, development year {j + 1}"
        )
    # the last cell of the first m - n rows is degenerate at 1
    included = mask.copy()
    included[: max(m - n, 0), n - 1] = False
    x = np.minimum(1.0, np.divide(y, remaining, out=np.zeros(y.shape), where=included))
    tail = a.sum(axis=1, keepdims=True) - np.cumsum(a, axis=1) + b
    return regularized_incomplete_beta(x, a[:, None, :], tail[:, None, :])[:, included]


def pit_transform(params: DirichletParams, t: LossRatioTriangle) -> np.ndarray:
    """Fitted Beta CDF values of the sequential cell ratios over the
    included index set, row by row then by development year."""
    return _pit(params.a[None], params.b_n, params.phi[None], t.ratios[None], t.k, t.years)[0]


def ks_statistic(u):
    """Sup distance between the empirical CDF of ``u`` and uniform(0, 1),
    along the last axis; a float for a 1-d sample."""
    u = np.sort(np.asarray(u, dtype=float), axis=-1)
    N = u.shape[-1]
    if N == 0:
        raise ValueError("empty sample")
    grid = np.arange(1, N + 1) / N
    d = np.maximum(np.max(grid - u, axis=-1), np.max(u - (grid - 1.0 / N), axis=-1))
    return float(d) if d.ndim == 0 else d


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
    (:func:`bootstrap.refit_replicates`), transformed in stacks of
    ``_SLICE``, so neither size changes a statistic. More than 10 failed
    refits of one replicate raise ``BootstrapError`` naming stage 3.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("significance level must be inside (0, 1)")
    if n_boot < 1:
        raise InputError(f"n_boot must be at least 1, got {n_boot}")
    fit = mle.fit_mle(t)
    u_obs = pit_transform(fit.theta_hat, t)
    t_obs = ks_statistic(u_obs)

    null = np.concatenate([
        ks_statistic(_pit(a[s:s + _SLICE], 1.0, phi[s:s + _SLICE], sims[s:s + _SLICE], t.k, t.years))
        for a, phi, sims, _, _ in refit_replicates(fit.theta_hat, t.k, seed, 3, n_boot)
        for s in range(0, len(a), _SLICE)
    ])
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

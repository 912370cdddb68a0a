"""Parametric bootstrap predictive distribution with two-stage bias correction.

Each replicate simulates a dataset with the triangle's observed mask from
a generating parameter vector, refits the model, and simulates the unpaid
cells of every partially developed accident year from the refitted
conditional model anchored at the real observed cumulatives.

Concentration estimates of Dirichlet-type models are biased upward on
small triangles, so the predictive run uses two stages: the first
bootstraps from the MLE to measure the bias, the MLE is then scaled
componentwise by (MLE / bootstrap mean), and the second stage bootstraps
from the scaled vector.

Replicate randomness comes from per-replicate streams derived from
(seed, stage, replicate index), so every replicate is reproducible on its
own, whatever replicates precede it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle
from .model import DirichletParams, simulate_masked
from .triangle import LossRatioTriangle


class BootstrapError(RuntimeError):
    """Too many replicates failed to refit."""


@dataclass(frozen=True)
class BiasCorrection:
    """First-stage bootstrap mean and the scaled generator derived from it."""

    theta_avg: DirichletParams
    theta_mod: DirichletParams


@dataclass(frozen=True)
class PredictiveDistribution:
    """Replicate-level output of the predictive bootstrap.

    ``a_samples`` and ``phi_samples`` hold the refitted parameters per
    replicate; ``ultimate_samples`` and ``reserve_samples`` are the per
    accident year n-year cumulative ratio and its excess over the observed
    cumulative. ``failed_refits`` counts resampled replicates.
    """

    years: tuple
    seed: int
    n_sim: int
    a_samples: np.ndarray        # (n_sim, n)
    phi_samples: np.ndarray      # (n_sim, m)
    ultimate_samples: np.ndarray  # (n_sim, m)
    reserve_samples: np.ndarray   # (n_sim, m)
    observed: np.ndarray          # (m,)
    correction: BiasCorrection | None
    failed_refits: int


def bootstrap_once(
    theta_gen: DirichletParams, t: LossRatioTriangle, rng: np.random.Generator
) -> DirichletParams:
    """Simulate one dataset with t's mask from ``theta_gen`` and refit."""
    return mle._fit_arrays(simulate_masked(theta_gen, t.k, rng), t.k)


def _replicate(theta_gen, t, seed, stage, idx, observed, want_future):
    """One replicate: refit on simulated data, then simulate unpaid cells
    of the real triangle at the refitted parameters and sum them per
    accident year. Resamples on refit failure or support violation,
    reporting the number of retries."""
    k, n, m = t.k, t.n, t.m
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage, idx)))
    failures = 0
    while True:
        try:
            theta = bootstrap_once(theta_gen, t, rng)
        except (mle.ConvergenceError, mle.IdentificationError, np.linalg.LinAlgError):
            failures += 1
            if failures > 10:
                raise BootstrapError(f"replicate {idx} failed refit more than 10 times")
            continue
        if not want_future:
            return theta, None, failures
        # conditional simulation must respect phi_i > observed cumulative
        partial = k < n
        if np.any(theta.phi[partial] <= observed[partial]):
            failures += 1
            if failures > 10:
                raise BootstrapError(f"replicate {idx} violated support more than 10 times")
            continue
        unpaid = np.zeros((m, n))
        for i in range(m):
            if k[i] == n:
                continue
            shapes = np.append(theta.a[k[i]:], theta.b_n)
            g = rng.gamma(shapes)
            unpaid[i, k[i]:] = (theta.phi[i] - observed[i]) * g[:-1] / g.sum()
        return theta, unpaid.sum(axis=1), failures


def _run_stage(theta_gen, t, n_sim, seed, stage, observed, want_future):
    results = [
        _replicate(theta_gen, t, seed, stage, idx, observed, want_future)
        for idx in range(n_sim)
    ]
    a = np.stack([r[0].a for r in results])
    phi = np.stack([r[0].phi for r in results])
    future = np.stack([r[1] for r in results]) if want_future else None
    failures = sum(r[2] for r in results)
    return a, phi, future, failures


def bias_corrected_bootstrap(
    theta_mle: DirichletParams,
    t: LossRatioTriangle,
    n_sim: int = 1000,
    seed: int = 0,
) -> PredictiveDistribution:
    """Two-stage bias-corrected predictive bootstrap.

    Requires at least 100 replicates for stable tail quantiles. The
    componentwise correction ratio applies to shapes and scales alike;
    the tail shape is pinned at 1 because every refit returns 1.
    """
    if n_sim < 100:
        raise ValueError("n_sim below 100 gives unstable interval quantiles")
    observed = t.observed_cumulative()
    a1, phi1, _, fail1 = _run_stage(theta_mle, t, n_sim, seed, 1, observed, False)
    theta_avg = DirichletParams(a1.mean(axis=0), 1.0, phi1.mean(axis=0))
    theta_mod = DirichletParams(
        theta_mle.a * theta_mle.a / theta_avg.a,
        1.0,
        theta_mle.phi * theta_mle.phi / theta_avg.phi,
    )
    a2, phi2, future, fail2 = _run_stage(theta_mod, t, n_sim, seed, 2, observed, True)

    ultimate = np.tile(observed, (n_sim, 1)) + future
    reserve = ultimate - observed[None, :]
    return PredictiveDistribution(
        t.years, seed, n_sim, a2, phi2, ultimate, reserve, observed,
        BiasCorrection(theta_avg, theta_mod), fail1 + fail2,
    )


def summarize(pd: PredictiveDistribution, level: float = 0.95):
    """Equal-tailed predictive intervals per accident year.

    Returns one record per accident year with the predictive mean and the
    interval endpoints at the requested level, computed by linear
    interpolation of order statistics. The mean is clamped into
    [lo, hi]: the mean of equal values can round one ulp below them.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("interval level must be inside (0, 1)")
    if pd.n_sim == 0:
        raise ValueError("no replicates to summarize")
    lo_q, hi_q = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    out = []
    for i, year in enumerate(pd.years):
        sample = pd.ultimate_samples[:, i]
        lo, hi = float(np.quantile(sample, lo_q)), float(np.quantile(sample, hi_q))
        point = min(max(float(sample.mean()), lo), hi)
        out.append({"accident_year": year, "point": point, "lo": lo, "hi": hi})
    return out


def samples_to_csv(pd: PredictiveDistribution, path) -> None:
    """Write the replicate-level ultimates in long CSV form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,accident_year,ultimate_ratio,reserve_ratio\n")
        for s in range(pd.n_sim):
            for i, year in enumerate(pd.years):
                fh.write(
                    f"{s},{year},{float(pd.ultimate_samples[s, i])!r},"
                    f"{float(pd.reserve_samples[s, i])!r}\n"
                )

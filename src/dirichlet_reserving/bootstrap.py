"""Parametric bootstrap predictive distribution with two-stage bias correction.

Each replicate simulates a dataset with the triangle's observed mask from
a generating parameter vector, refits the model, and draws the unpaid sum
of every partially developed accident year from the refitted conditional
model anchored at the real observed cumulatives. By the Dirichlet
aggregation property that sum is (phi_i - s_i) times one
Beta(sum_{j > k_i} a_j, b_n) variate, drawn by ``model.unpaid_totals``.

Concentration estimates of Dirichlet-type models are biased upward on
small triangles, so the predictive run uses two stages: the first
bootstraps from the MLE to measure the bias, the MLE is then scaled
componentwise by (MLE / bootstrap mean), and the second stage bootstraps
from the scaled vector.

Replicate randomness comes from per-replicate streams derived from
(seed, stage, replicate index), so every replicate is reproducible on its
own, whatever replicates precede it. :func:`refit_replicates`, which the
goodness-of-fit null shares, draws ``_CHUNK`` replicates (a fixed
constant, not an option) into one stack and refits them in one lockstep
``mle._fit_batch`` run. Each dataset is bit-identical to its own
``simulate_masked`` draw and each refit to fitting it alone, so the batch
size changes no output; :func:`bootstrap_once` is that one-replicate oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle
from .errors import InputError, NumericalError
from .model import DirichletParams, simulate_masked, unpaid_totals
from .triangle import LossRatioTriangle


class BootstrapError(NumericalError):
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
    replicate; ``ultimate_samples`` holds the per accident year n-year
    cumulative ratio, whose excess over ``observed`` is the reserve.
    ``failed_refits`` counts resampled replicates.
    """

    years: tuple
    seed: int
    n_sim: int
    a_samples: np.ndarray        # (n_sim, n)
    phi_samples: np.ndarray      # (n_sim, m)
    ultimate_samples: np.ndarray  # (n_sim, m)
    observed: np.ndarray          # (m,)
    correction: BiasCorrection | None
    failed_refits: int


def bootstrap_once(
    theta_gen: DirichletParams, t: LossRatioTriangle, rng: np.random.Generator
) -> DirichletParams:
    """Simulate one dataset with t's mask from ``theta_gen`` and refit it."""
    return mle._fit_arrays(simulate_masked(theta_gen, t.k, rng), t.k, t.years).theta_hat


# Replicates per lockstep batch. A batch's Newton run pays about 10 ms of numpy
# call overhead whatever its width (12 ms at 128 replicates, 14 ms at 256), so
# a 400-replicate stage (validate's default) is one batch. The GOF null's PIT
# runs in slices: a 500-null gof call traces 5.8 MiB at its peak unsliced, 2.4 at 128.
_CHUNK = 400
_SLICE = 128


def _simulate(theta_gen, k, rngs):
    """:func:`simulate_masked` of each generator in ``rngs``, bit for bit, as
    one (R, m, n) stack: the gamma rows share one buffer, freed on return."""
    shapes = np.append(theta_gen.a, theta_gen.b_n)
    g = np.empty((len(rngs), theta_gen.m, shapes.size))
    for row, rng in zip(g, rngs):
        rng.standard_gamma(shapes, out=row)  # rng.gamma(shapes, size=(m, n + 1)), word for word
    sims = g[:, :, :-1] / g.sum(axis=2, keepdims=True)
    sims *= theta_gen.phi[:, None]
    sims[:, np.arange(theta_gen.n) >= k[:, None]] = 0.0
    return sims


def refit_replicates(theta_gen, k, seed, stage, count, observed=None):
    """Simulate and refit ``count`` replicates from ``theta_gen`` with the
    observed mask ``k``, ``_CHUNK`` at a time.

    Replicate ``idx`` draws from its own generator
    ``SeedSequence(seed, spawn_key=(stage, idx))``. A batch's datasets are
    drawn into one (R, m, n) stack and refitted together by
    ``mle._fit_batch``. A replicate whose refit fails, or, when
    ``observed`` is given, whose scale of a partially developed row is not
    above ``observed``, draws again from its own generator in the next
    round, and its new dataset overwrites its row of the stack; so its
    sequence of RNG calls does not depend on the batch. More than 10
    failures of one replicate raise :class:`BootstrapError`, naming the
    stage (1 and 2: the predictive stages; 3: the goodness-of-fit null) and
    the lowest such replicate index.

    Yields ``(a, phi, sims, rngs, failures)`` per batch, in replicate
    order: refitted shapes (R, n) and scales (R, m), the stack of kept
    datasets (R, m, n), each replicate's generator, for draws that follow
    its refit, and the batch's number of redraws.
    """
    k = np.asarray(k)
    m, n = theta_gen.m, theta_gen.n
    partial = k < n
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage, start + j)))
                for j in range(size)]
        sims, pending = _simulate(theta_gen, k, rngs), np.arange(size)
        a, phi = np.empty((size, n)), np.empty((size, m))
        failures = np.zeros(size, dtype=int)
        while pending.size:
            a_p, phi_p, _, _, _, ok = mle._fit_batch(sims if pending.size == size else sims[pending], k)
            if observed is not None:
                # conditional simulation must respect phi_i > observed cumulative
                ok &= (phi_p[:, partial] > observed[partial]).all(axis=1)
            kept = pending[ok]
            a[kept], phi[kept] = a_p[ok], phi_p[ok]
            pending = pending[~ok]
            failures[pending] += 1
            if pending.size:
                if failures[pending[0]] > 10:
                    raise BootstrapError(f"stage {stage} replicate {start + pending[0]} failed to "
                                         "refit more than 10 times")
                sims[pending] = _simulate(theta_gen, k, [rngs[j] for j in pending])
        yield a, phi, sims, rngs, int(failures.sum())


def _run_stage(theta_gen, t, n_sim, seed, stage, observed=None):
    """Refit one stage's replicates; with ``observed`` (stage 2), check
    their support and draw their unpaid sums."""
    a, phi, future, failures = [], [], [], 0
    for a_c, phi_c, sims, rngs, fails in refit_replicates(theta_gen, t.k, seed, stage, n_sim, observed):
        a.append(a_c)
        phi.append(phi_c)
        if observed is not None:
            future.append(unpaid_totals(a_c, 1.0, phi_c, t.k, observed, rngs))
        failures += fails
        del sims, rngs  # so that the next batch is refitted without this one
    future = np.concatenate(future) if observed is not None else None
    return np.concatenate(a), np.concatenate(phi), future, failures


def bias_corrected_bootstrap(
    theta_mle: DirichletParams,
    t: LossRatioTriangle,
    n_sim: int = 1000,
    seed: int = 0,
) -> PredictiveDistribution:
    """Two-stage bias-corrected predictive bootstrap.

    Requires at least 100 replicates for stable tail quantiles. The
    componentwise correction ratio applies to shapes and scales alike;
    the tail shape is pinned at 1 because every refit returns 1. More than
    10 failed refits of one replicate raise :class:`BootstrapError` naming
    its stage, 1 or 2.
    """
    if n_sim < 100:
        raise InputError("n_sim below 100 gives unstable interval quantiles")
    observed = t.observed_cumulative()
    a1, phi1, _, fail1 = _run_stage(theta_mle, t, n_sim, seed, 1)
    theta_avg = DirichletParams(a1.mean(axis=0), 1.0, phi1.mean(axis=0))
    theta_mod = DirichletParams(theta_mle.a * theta_mle.a / theta_avg.a, 1.0,
                                theta_mle.phi * theta_mle.phi / theta_avg.phi)
    a2, phi2, future, fail2 = _run_stage(theta_mod, t, n_sim, seed, 2, observed)

    return PredictiveDistribution(
        t.years, seed, n_sim, a2, phi2, observed + future, observed,
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
        raise InputError("interval level must be inside (0, 1)")
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

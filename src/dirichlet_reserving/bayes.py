"""Bayesian hierarchical inference for the Dirichlet reserving model.

Priors: per-year scales iid uniform(0, phi_hyper) with a flat hyper prior
on phi_hyper, and flat priors on the development shapes and the tail
shape. The tail shape support is [1, inf), optionally raised to
alpha/(1-alpha) times the shape total when an expected-tail-quota lower
bound alpha is imposed. Flat priors on unbounded parameters are made
proper for sampling by caps (``phi_hyper_cap`` and ``TAIL_SHAPE_CAP_MULT``);
draws near a cap are flagged.

Sampling is Metropolis within Gibbs: random-walk blocks on log shapes and
the log tail-shape excess over its lower bound, with step adaptation in
warmup only; each scale is an exact draw of a Beta truncated above
s_i/phi_hyper, by plain rejection with an exact envelope-rejection fallback.

The total log-likelihood is grouped by observed prefix length (see
``_Data``), and each chain carries its terms, so a block pays only for the
``math.lgamma`` terms its move changes: 2 + j for the shape a_(j+1), 1 + G
for the tail and ridge blocks (G prefix lengths), n + 1 + G for the joint
rescaling, none for the scale draw. ``_Data.loglik`` is the from-scratch
oracle of the carried total, and the scalar ``model.total_loglik`` its own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from math import lgamma, log
from operator import add, mul, sub

import numpy as np

from . import mle
from .bootstrap import PredictiveDistribution
from .errors import InputError, NumericalError
from .model import unpaid_totals
from .triangle import LossRatioTriangle

# the tail shape's cap, as a multiple of the development shapes' total
TAIL_SHAPE_CAP_MULT = 10.0


class McmcError(NumericalError):
    """Sampler divergence or convergence-diagnostic failure."""


@dataclass(frozen=True)
class BayesSpec:
    """Configuration of one Bayesian run.

    tail_alpha, when set, imposes the expected-tail-quota lower bound
    b_n/(a0 + b_n) >= tail_alpha on the support.
    """

    tail_alpha: float | None = None
    iterations: int = 20000
    warmup: int = 5000
    chains: int = 4
    phi_hyper_cap: float = 10.0

    def __post_init__(self):
        if self.tail_alpha is not None and not 0.0 <= self.tail_alpha < 1.0:
            raise InputError("tail_alpha must lie in [0, 1)")
        if self.tail_alpha is not None and self.tail_alpha >= TAIL_SHAPE_CAP_MULT / (1.0 + TAIL_SHAPE_CAP_MULT):
            raise InputError(f"tail_alpha {self.tail_alpha} leaves the tail shape no support below its "
                             f"cap: tail_alpha/(1 - tail_alpha) must stay below {TAIL_SHAPE_CAP_MULT:g}")
        if self.iterations - self.warmup < 4:  # the split R-hat needs 4 kept draws
            raise InputError("iterations must exceed warmup by at least 4")
        if self.warmup < 1 or self.chains < 1:
            raise InputError("need warmup >= 1 and chains >= 1")
        if not 0.0 < self.phi_hyper_cap < np.inf:
            raise InputError("phi_hyper_cap must be positive and finite")

    @property
    def tail_ratio(self) -> float:
        return 0.0 if self.tail_alpha is None else self.tail_alpha / (1.0 - self.tail_alpha)


@dataclass(frozen=True)
class BayesState:
    """One point of the posterior's parameter space."""

    a: np.ndarray
    b_n: float
    phi: np.ndarray
    phi_hyper: float


@dataclass(frozen=True)
class PosteriorSample:
    """Post-warmup draws of all chains plus sampler diagnostics."""

    years: tuple
    seed: int
    spec: BayesSpec
    a: np.ndarray          # (chains, kept, n)
    b_n: np.ndarray        # (chains, kept)
    phi: np.ndarray        # (chains, kept, m)
    phi_hyper: np.ndarray  # (chains, kept)
    acceptance: dict
    rhat: dict
    warnings: tuple = field(default=())

    @property
    def n_draws(self) -> int:
        return self.a.shape[0] * self.a.shape[1]


class _Data:
    """Sufficient statistics of one triangle for the total log-likelihood.

    ``N``, ``L`` and the prefix-length counts come from ``mle._one``:
    ``inv`` maps each row to its prefix-length group, ``kidx`` holds each
    group's last observed development year (0-based), ``cnt`` its row count.
    With c the cumulative shapes, the total over the m rows is

        m lnG(a0+b) - sum_j N_j lnG(a_j) + sum_j a_j L_j - const
        - sum_k cnt_k lnG(a0+b-c_k) - sum_k c_k P_k + sum_k (a0+b-c_k-1) Q_k

    where N_j counts the rows observing development year j, L_j sums their
    log ratios in that year, const = sum_j L_j, and P_k and Q_k sum
    ln(phi_i) and log1p(-s_i/phi_i) over the rows of group k. Only P and Q
    depend on the scales, so :meth:`phi_sums` recomputes them when the
    scales move. :meth:`loglik` evaluates the total from scratch, in
    n + 1 + G ``math.lgamma`` calls (G = len(kidx)) in plain floats.

    A chain carries the terms of its current state instead, set by
    ``move(b, a, sums)`` and :meth:`accept`: lnG(a_j), lnG(a0+b), each group's
    closing shape a0+b-c_k and its lnG, each year's a_j L_j - N_j lnG(a_j),
    and w_g = sum_{k<g} Q_k - sum_{k>=g} P_k over the groups, so that a move of
    a_j has the coefficient L_j + w_g with g the groups closing before j.
    A proposal returns its total and keeps its terms until :meth:`accept`;
    ``ll`` is the current total. As a move of a_j leaves a0+b-c_k alone for
    every group that observes year j, :meth:`shape` pays 2 + (groups closing
    before j) lgamma calls, :meth:`move` 1 + G (n more with new shapes) and
    :meth:`scales` none.
    """

    def __init__(self, t: LossRatioTriangle):
        stats = mle._one(t)
        self.m, self.n = t.m, t.n
        self.s = t.observed_cumulative()
        lengths = np.flatnonzero(stats.cnt)
        self.inv = np.searchsorted(lengths, t.k)
        self.kidx = (lengths - 1).tolist()
        self.cnt = stats.cnt[lengths].tolist()
        self.N = stats.N.tolist()
        self.L = stats.L[0].tolist()
        self.const = float(stats.L[0].sum())
        self.before = [bisect_left(self.kidx, j) for j in range(self.n)]  # groups closing before j

    def phi_sums(self, phi):
        """Per-group sums (P, Q) of ln(phi_i) and log1p(-s_i/phi_i)."""
        return (
            np.bincount(self.inv, weights=np.log(phi)).tolist(),
            np.bincount(self.inv, weights=np.log1p(-self.s / phi)).tolist(),
        )

    def loglik(self, a, b, sums) -> float:
        """Total log density of the observed cells (phi inside support)."""
        a = a.tolist()
        c = list(accumulate(a))
        ab = c[-1] + float(b)
        val = self.m * lgamma(ab) - self.const
        for aj, Nj, Lj in zip(a, self.N, self.L):
            val += aj * Lj - Nj * lgamma(aj)
        for j, cnt, p, q in zip(self.kidx, self.cnt, *sums):
            close = ab - c[j]
            val += (close - 1.0) * q - c[j] * p - cnt * lgamma(close)
        return val

    def accept(self):
        """Make the last proposal the current state."""
        self._commit()

    def shape(self, j, aj) -> float:
        """Total with a_j moved to aj."""
        d, g = aj - self.a[j], self.before[j]
        ab, lgaj = self.ab + d, lgamma(aj)
        lg = [lgamma(y + d) for y in self.close[:g]]
        lgab = lgamma(ab)
        ll = (self.ll + self.m * (lgab - self.lgab) - self.N[j] * (lgaj - self.lga[j])
              + d * (self.L[j] + self.w[g]) - sum(map(mul, self.cnt, map(sub, lg, self.lg))))
        self._new, self._commit = (j, aj, d, lgaj, ab, lgab, lg, ll), self._take_shape
        return ll

    def _take_shape(self):
        j, aj, d, lgaj, self.ab, self.lgab, lg, self.ll = self._new
        g = len(lg)  # the groups closing before j, whose closing shapes move with a_j
        self.a[j], self.lga[j], self.at[j] = aj, lgaj, aj * self.L[j] - self.N[j] * lgaj
        self.close[:g], self.lg[:g] = [y + d for y in self.close[:g]], lg
        self.shp = sum(self.at) - self.const

    def move(self, b, a=None, sums=None) -> float:
        """Total with the tail shape moved to b and, when given, the shapes to a
        and the scale sums to ``sums``."""
        new = self._new = {"b": b}
        if a is None:
            a, shp = self.a, self.shp
        else:
            a = a.tolist()
            lga = list(map(lgamma, a))
            at = list(map(sub, map(mul, a, self.L), map(mul, self.N, lga)))
            shp = sum(at) - self.const
            new.update(a=a, lga=lga, at=at, shp=shp)
        if sums is None:
            sums = self.P, self.Q
        else:
            new["P"], new["Q"] = sums
        c = list(accumulate(a))
        ab = new["ab"] = c[-1] + b
        close = new["close"] = [ab - c[k] for k in self.kidx]
        lg = new["lg"] = list(map(lgamma, close))
        lgab = new["lgab"] = lgamma(ab)
        ll = new["ll"] = self._total(shp, ab, lgab, close, lg, *sums)
        self._commit = self._take
        return ll

    def _take(self):
        vars(self).update(self._new)
        if "P" in self._new:  # the shape moves' w follows the scale sums
            self.scales((self.P, self.Q))

    def scales(self, sums):
        """Take new scale sums, a Gibbs draw that is always kept."""
        self.P, self.Q = sums
        self.w = list(accumulate(map(add, *sums), initial=-sum(self.P)))
        self.ll = self._total(self.shp, self.ab, self.lgab, self.close, self.lg, *sums)

    def _total(self, shp, ab, lgab, close, lg, P, Q) -> float:
        # sum_k (close_k - 1) Q_k - (ab - close_k) P_k - cnt_k lnG(close_k), in maps
        return (shp + self.m * lgab + sum(map(mul, close, map(add, P, Q))) - sum(Q) - ab * sum(P)
                - sum(map(mul, self.cnt, lg)))


def _support_lower(a0: float, tail_ratio: float) -> float:
    return max(1.0, tail_ratio * a0)


def log_posterior(state: BayesState, t: LossRatioTriangle, spec: BayesSpec) -> float:
    """Log of the unnormalized posterior density; -inf outside support."""
    a = np.asarray(state.a, dtype=float)
    phi = np.asarray(state.phi, dtype=float)
    data = _Data(t)
    if a.size != t.n or phi.size != t.m:
        raise ValueError("state dimensions do not match the triangle")
    a0 = float(a.sum())
    if (
        np.any(a <= 0)
        or not np.isfinite(state.b_n)
        or state.b_n < _support_lower(a0, spec.tail_ratio)
        or state.b_n > TAIL_SHAPE_CAP_MULT * a0
        or state.phi_hyper <= 0
        or state.phi_hyper > spec.phi_hyper_cap
        or np.any(phi <= data.s)
        or np.any(phi >= state.phi_hyper)
    ):
        return -np.inf
    ll = data.loglik(a, float(state.b_n), data.phi_sums(phi))
    return ll - t.m * np.log(float(state.phi_hyper))


def _sample_truncated_beta(alpha, beta, lo, rng):
    """Vector of Beta(alpha_i, beta_i) draws conditioned on u_i > lo_i.

    Plain rejection covers the common case where the truncation point sits
    below the Beta bulk. Components still rejected after 50 redraws take exact
    envelope rejection in lockstep (Devroye 1986, ch. VII): as beta >= 1, the
    log density h(v) = (alpha-1) ln v + (beta-1) ln(1-v) lies on (lo, 1) below
    the line through h(lo) of slope max(alpha-1, 0)/lo - (beta-1)/(1-lo), so a
    round proposes lo + e, e from that line's exponential truncated to
    (0, 1-lo), and keeps it with probability exp(h - line).
    """
    if np.count_nonzero(alpha <= 0.0):
        raise McmcError("degenerate scale conditional: a shape prefix sum fell below 1")
    u = rng.beta(alpha, beta)
    bad = u <= lo
    for _ in range(50):
        if not np.count_nonzero(bad):
            return u
        u[bad] = rng.beta(alpha[bad], beta[bad])
        bad = u <= lo
    live = np.flatnonzero(bad)
    while live.size:
        a1, b1, x, w = alpha[live] - 1.0, beta[live] - 1.0, lo[live], 1.0 - lo[live]
        slope = np.maximum(a1, 0.0) / x - b1 / w
        # e = w t, t inverted from the line's low end; a zero slope is uniform
        fall, p = -np.abs(slope * w), rng.random(live.size)
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 or 1 fails `ok`
            t = np.where(fall < 0.0, np.log1p(p * np.expm1(fall)) / fall, p)
            t = np.where(slope > 0.0, 1.0 - t, t)
            gap = a1 * np.log1p(w * t / x) + b1 * np.log1p(-t) - slope * w * t
        v = x + w * t
        ok = (rng.random(live.size) < np.exp(gap)) & (v > x) & (v < 1.0)
        u[live[ok]] = v[ok]
        live = live[~ok]
    return u


def _param_names(n: int, m: int) -> list:
    """Sampled parameter names in draw order: a_j, b_n, phi_i, phi_hyper."""
    shapes = [f"a_{j}" for j in range(1, n + 1)]
    return shapes + ["b_n"] + [f"phi_{i}" for i in range(1, m + 1)] + ["phi_hyper"]


def _split_rhat(chains_draws: np.ndarray) -> float:
    """Potential scale reduction on split chains for one scalar parameter."""
    C, L = chains_draws.shape
    half = L // 2
    seqs = np.concatenate([chains_draws[:, :half], chains_draws[:, half : 2 * half]])
    W = seqs.var(axis=1, ddof=1).mean()
    B = half * seqs.mean(axis=1).var(ddof=1)
    if W == 0.0:
        return 1.0 if B == 0.0 else np.inf
    vhat = (half - 1) / half * W + B / half
    return float(np.sqrt(vhat / W))


def run_mcmc(t: LossRatioTriangle, spec: BayesSpec, seed: int = 0) -> PosteriorSample:
    """Sample the posterior with adaptive Metropolis-within-Gibbs chains.

    Raises :class:`InputError`, before any fitting, when ``phi_hyper_cap``
    does not exceed the largest observed cumulative loss ratio, which every
    scale must exceed. Raises :class:`McmcError` when a block stops moving
    entirely or the split-chain diagnostic exceeds 1.05 for any parameter.
    """
    data = _Data(t)
    top = int(np.argmax(data.s))
    if spec.phi_hyper_cap <= data.s[top]:
        raise InputError(
            f"phi_hyper_cap {spec.phi_hyper_cap} does not exceed the largest cumulative "
            f"loss ratio {data.s[top]:.4f} (accident year {t.years[top]})"
        )
    m, n = data.m, data.n
    row_k = t.k - 1  # index of each row's last observed development year
    fit = mle.fit_mle(t)
    a_ref = fit.theta_hat.a

    kept = spec.iterations - spec.warmup
    A = np.empty((spec.chains, kept, n))
    B = np.empty((spec.chains, kept))
    PHI = np.empty((spec.chains, kept, m))
    HYP = np.empty((spec.chains, kept))
    # random-walk blocks: one per development shape, one joint rescaling of
    # the shape vector (which mixes the weakly identified concentration),
    # and the tail shape; the scales and the hyper scale are drawn exactly
    # from their full conditionals; every block proposes once per
    # iteration, so a window's acceptance rate is its count over the window
    n_blocks = n + 3
    window = 50
    accepted = np.zeros((spec.chains, n_blocks))
    ratio, b_cap, cap = spec.tail_ratio, TAIL_SHAPE_CAP_MULT, spec.phi_hyper_cap
    add = np.add.reduce  # a.sum() without its wrapper: the same pairwise sum

    for chain in range(spec.chains):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain,)))
        a = a_ref * np.exp(0.05 * rng.standard_normal(n))
        a0 = float(add(a))
        lower = _support_lower(a0, ratio)
        b = lower * (1.05 + 0.05 * rng.random()) if lower > 1.0 else 1.0 + 0.1 + 0.1 * rng.random()
        if b > b_cap * a0:  # a start above the tail cap: take the support's midpoint
            b = 0.5 * (lower + b_cap * a0)
        phi_prof = mle._scales(a[None], b, data.s[None], t.k)[0]
        phi = data.s + (phi_prof - data.s) * np.exp(0.1 * rng.standard_normal(m))
        hyp = min(cap * 0.999, float(phi.max()) * 1.25)
        if hyp <= phi.max():
            # no room above the drawn scales: start midway from the data to the cap
            hyp = 0.5 * (float(data.s.max()) + cap)
            phi = np.minimum(phi, 0.5 * (data.s + hyp))

        data.move(b, a, data.phi_sums(phi))  # the chain's first state
        data.accept()
        shape, accept = data.shape, data.accept
        scales = [0.1] * n_blocks
        acc = [0] * n_blocks  # accepted proposals per block, this window

        for it in range(spec.iterations):
            warm = it < spec.warmup
            # development shape blocks, each paying only for the terms it moves.
            # As b >= 1, the support is ratio*a0 <= b <= b_cap*a0: a running
            # total judges it, the pairwise a.sum() within 1e-12 of a bound
            total, moved = a0, False
            for j in range(n):
                step = scales[j] * rng.standard_normal()
                aj = a[j]
                a[j] = a_new = aj * np.exp(step)
                a0_new = total + float(a_new - aj)
                if not ratio * a0_new < b * (1.0 - 1e-12) or not b * (1.0 + 1e-12) < b_cap * a0_new:
                    a0_new = float(add(a))
                    if b < ratio * a0_new or b > b_cap * a0_new:
                        a[j] = aj
                        continue
                logr = shape(j, float(a_new)) - data.ll + step  # step = log-scale Jacobian delta
                if logr >= 0 or log(rng.random()) < logr:
                    total, moved = a0_new, True
                    accept()
                    acc[j] += 1
                else:
                    a[j] = aj
            if moved:  # the state's shape total is the pairwise a.sum()
                a0 = float(add(a))
            # joint rescaling of the shape vector and the tail shape's
            # excess over its bound: scaling n+1 flat-prior coordinates
            # contributes a lambda^(n+1) volume term
            js = n
            step = scales[js] * rng.standard_normal()
            lam = float(np.exp(step))
            a0_new = a0 * lam
            b_new = _support_lower(a0_new, ratio) + lam * (b - _support_lower(a0, ratio))
            if b_new <= b_cap * a0_new:
                a_new = a * lam
                logr = data.move(b_new, a_new) - data.ll + (n + 1) * step
                if logr >= 0 or log(rng.random()) < logr:
                    a, b, a0 = a_new, b_new, a0_new
                    accept()
                    acc[js] += 1
            # tail shape block, parameterized as log excess over its bound
            jb = n + 1
            lower = _support_lower(a0, ratio)
            w = np.log(b - lower)
            step = scales[jb] * rng.standard_normal()
            b_new = float(lower + np.exp(w + step))
            if b_new <= b_cap * a0:
                logr = data.move(b_new) - data.ll + step
                if logr >= 0 or log(rng.random()) < logr:
                    b = b_new
                    accept()
                    acc[jb] += 1
            # ridge block: the flat priors leave the posterior nearly flat
            # along the direction that grows the tail shape together with
            # every scale, so a dedicated reversible map traverses it:
            # b -> lam*b, each scale excess grows by the conditional-mean
            # ratio, the hyper scale by lam; the Jacobian is lam^2 times
            # the product of the per-row excess ratios
            jt = n + 2
            c = a.cumsum()
            ck = c[row_k]
            step = scales[jt] * rng.standard_normal()
            lam = float(np.exp(step))
            b_new = lam * b
            hyp_new = lam * hyp
            close, close_new = a0 + b - ck, a0 + b_new - ck
            g = close_new / close
            phi_new = data.s + g * (phi - data.s)
            if (b_new >= lower and b_new <= b_cap * a0 and hyp_new <= cap
                    and np.maximum.reduce(phi_new) < hyp_new):
                sums_new = data.phi_sums(phi_new)
                logr = (data.move(b_new, sums=sums_new) - data.ll - m * (log(hyp_new) - log(hyp))
                        + 2.0 * step + np.log(g).sum())
                if logr >= 0 or log(rng.random()) < logr:
                    b, phi, hyp, close = b_new, phi_new, hyp_new, close_new
                    accept()
                    acc[jt] += 1
            # per-year scales: the conditional of u_i = s_i / phi_i is a
            # Beta(c_k - 1, a0 + b - c_k) truncated to u_i > s_i / hyper,
            # drawn exactly (rejection with a lockstep envelope fallback)
            lo_u = data.s / hyp
            u = _sample_truncated_beta(ck - 1.0, close, lo_u, rng)
            phi = data.s / u
            data.scales(data.phi_sums(phi))
            # hyper scale: conditional density proportional to hyp^(-m) on
            # (max phi, cap], inverted in closed form
            top = float(np.maximum.reduce(phi))
            v = rng.random()
            if m == 1:
                hyp = top * np.exp(v * (np.log(cap) - np.log(top)))
            else:
                q = 1.0 - m
                hyp = (top**q + v * (cap**q - top**q)) ** (1.0 / q)
            # warmup-only step adaptation toward 25-40% acceptance; the
            # post-warmup counts start from zero
            if warm and (it + 1) % window == 0:
                scales = [x * (1.26 if k / window > 0.40 else 0.79 if k / window < 0.25 else 1.0)
                          for x, k in zip(scales, acc)]
                acc = [0] * n_blocks
            if it + 1 == spec.warmup:
                acc = [0] * n_blocks
            if not warm:
                kept_idx = it - spec.warmup
                A[chain, kept_idx] = a
                B[chain, kept_idx] = b
                PHI[chain, kept_idx] = phi
                HYP[chain, kept_idx] = hyp
        accepted[chain] = acc

    rates = accepted / kept
    blocks = [f"a_{j + 1}" for j in range(n)] + ["a_scale", "b_n", "tail_scale"]
    if np.any(rates.max(axis=0) == 0.0):
        block = blocks[int(np.argmax(rates.max(axis=0) == 0.0))]
        raise McmcError(f"sampler diverged: block {block} accepted no proposals after warmup")

    columns = [A[:, :, j] for j in range(n)] + [B] + [PHI[:, :, i] for i in range(m)] + [HYP]
    rhat = {name: _split_rhat(col) for name, col in zip(_param_names(n, m), columns)}
    worst = max(rhat, key=rhat.get)
    if spec.chains > 1 and rhat[worst] > 1.05:
        raise McmcError(f"split-chain diagnostic failed: rhat[{worst}] = {rhat[worst]:.3f}")

    warn = []
    if np.any(HYP > 0.99 * spec.phi_hyper_cap):
        warn.append("phi_hyper draws within 1% of the configured cap")
    if np.any(B > 0.99 * TAIL_SHAPE_CAP_MULT * A.sum(axis=2)):
        warn.append("tail shape draws within 1% of the configured cap")

    acc_out = {name: rates[:, jj].tolist() for jj, name in enumerate(blocks)}
    return PosteriorSample(t.years, seed, spec, A, B, PHI, HYP, acc_out, rhat, tuple(warn))


def posterior_predict(ps: PosteriorSample, t: LossRatioTriangle, seed: int = 0):
    """Posterior predictive distribution of the unpaid sums.

    For every retained draw, each partial accident year's unpaid sum within
    the horizon is (phi_i - s_i) times one Beta(sum_{j > k_i} a_j, b_n)
    variate, by the Dirichlet aggregation property; ``model.unpaid_totals``
    draws all of them in one beta call. Returns the same
    predictive-distribution type as the bootstrap module.
    """
    if ps.n_draws == 0:
        raise ValueError("no posterior draws")
    if ps.a.shape[2] != t.n or ps.phi.shape[2] != t.m:
        raise ValueError("posterior dimensions do not match the triangle")
    n_draws = ps.n_draws
    a = ps.a.reshape(n_draws, t.n)
    b = ps.b_n.reshape(n_draws)
    phi = ps.phi.reshape(n_draws, t.m)
    observed = t.observed_cumulative()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    ultimate = observed + unpaid_totals(a, b, phi, t.k, observed, rng)
    return PredictiveDistribution(t.years, seed, n_draws, a, phi, ultimate, observed, None, 0)


def draws_to_csv(ps: PosteriorSample, path) -> None:
    """Write draws in long form: chain, post-warmup iteration, param, value."""
    names = _param_names(ps.a.shape[2], ps.phi.shape[2])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("chain,iteration,param,value\n")
        for chain in range(ps.a.shape[0]):
            draws = zip(ps.a[chain], ps.b_n[chain], ps.phi[chain], ps.phi_hyper[chain])
            for it, (a, b, phi, hyp) in enumerate(draws, start=1):
                row = a.tolist() + [float(b)] + phi.tolist() + [float(hyp)]
                fh.write("".join(
                    [f"{chain + 1},{it},{name},{val!r}\n" for name, val in zip(names, row)]
                ))

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

One ``_Data`` instance holds the whole state of a chain, each Gibbs block is
one of its methods, and ``_run_chain`` restarts it for each chain. The state
carries the terms of the log-likelihood, grouped by observed prefix length,
so a block pays only for the ``math.lgamma`` terms its move changes.
``_Data.loglik`` is the from-scratch oracle of the carried total.
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
    """The whole state of one chain, and the likelihood terms of that state.

    The parameters are the list ``a``, ``b``, ``phi`` and ``hyp``, and ``a0``:
    numpy's pairwise sum of ``a`` after a shape sweep that moved, which the
    joint move scales instead of summing again. The support checks read it,
    and so do the ridge and the scale draw, whose per-row closing shapes are
    a0 + b - c_k with c numpy's cumulative sum of ``a``. ``steps`` and ``acc``
    hold each random-walk block's step scale and accepted proposals.

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

    The state carries the terms instead, set by ``move(b, a, sums)`` and
    :meth:`accept`, with a0 the running sum of ``a`` here: lnG(a_j),
    lnG(a0+b), each group's closing shape a0+b-c_k and its lnG, each year's
    a_j L_j - N_j lnG(a_j), and w_g = sum_{k<g} Q_k - sum_{k>=g} P_k over the
    groups, so that a move of a_j has the coefficient L_j + w_g with g the
    groups closing before j. A proposal returns its total and keeps its terms
    until :meth:`accept`; ``ll`` is the current total. As a move of a_j leaves
    a0+b-c_k alone for every group that observes year j, :meth:`shape` pays
    2 + (groups closing before j) lgamma calls, :meth:`move` 1 + G (n more
    with new shapes) and :meth:`scales` none.
    """

    def __init__(self, t: LossRatioTriangle):
        stats = mle._one(t)
        self.m, self.n = t.m, t.n
        self.s = t.observed_cumulative()
        self.row_k = t.k - 1  # each row's last observed development year
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
        """Total with the tail shape moved to b and, when given, the shapes to
        the list a and the scale sums to ``sums``."""
        new = self._new = {"b": b}
        if a is None:
            a, shp = self.a, self.shp
        else:
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

    def start(self, spec: BayesSpec, a_ref, rng):
        """Draw a chain's first state around the MLE shapes ``a_ref``, with new step scales and counts."""
        n, m, s, cap = self.n, self.m, self.s, spec.phi_hyper_cap
        self.ratio, self.cap = spec.tail_ratio, cap
        a = a_ref * np.exp(0.05 * rng.standard_normal(n))
        self.a0 = float(np.add.reduce(a))
        lower = _support_lower(self.a0, self.ratio)
        b = lower * (1.05 + 0.05 * rng.random()) if lower > 1.0 else 1.0 + 0.1 + 0.1 * rng.random()
        if b > TAIL_SHAPE_CAP_MULT * self.a0:  # a start above the tail cap: take the support's midpoint
            b = 0.5 * (lower + TAIL_SHAPE_CAP_MULT * self.a0)
        phi_prof = mle._scales(a[None], b, s[None], self.row_k + 1)[0]
        phi = s + (phi_prof - s) * np.exp(0.1 * rng.standard_normal(m))
        hyp = min(cap * 0.999, float(phi.max()) * 1.25)
        if hyp <= phi.max():
            # no room above the drawn scales: start midway from the data to the cap
            hyp = 0.5 * (float(s.max()) + cap)
            phi = np.minimum(phi, 0.5 * (s + hyp))
        self.phi, self.hyp = phi, hyp
        self.move(b, a.tolist(), self.phi_sums(phi))
        self.accept()
        # blocks 0..n-1 move the shapes, n the joint rescaling, n+1 the tail, n+2 the ridge
        self.steps, self.acc = [0.1] * (n + 3), [0] * (n + 3)

    def _metropolis(self, block, logr, rng) -> bool:
        """Accept with probability min(1, exp(logr)); the uniform is drawn only when logr < 0."""
        if logr >= 0 or log(rng.random()) < logr:
            self.accept()
            self.acc[block] += 1
            return True
        return False

    def shapes(self, rng):
        """Move each log shape in turn. As b >= 1, the support is ratio*a0 <= b <= 10*a0:
        a running total of the shapes judges it, the pairwise sum within 1e-12 of a bound."""
        a, ratio, b, total, moved = self.a, self.ratio, self.b, self.a0, False  # a moves in place
        for j, scale in enumerate(self.steps[:self.n]):
            step = scale * rng.standard_normal()
            aj = a[j]
            a_new = aj * np.exp(step)
            a0_new = total + float(a_new - aj)
            if (not ratio * a0_new < b * (1.0 - 1e-12)
                    or not b * (1.0 + 1e-12) < TAIL_SHAPE_CAP_MULT * a0_new):
                a0_new = float(np.add.reduce(a[:j] + [a_new] + a[j + 1:]))
                if b < ratio * a0_new or b > TAIL_SHAPE_CAP_MULT * a0_new:
                    continue
            # step is the log-scale Jacobian term
            if self._metropolis(j, self.shape(j, float(a_new)) - self.ll + step, rng):
                total, moved = a0_new, True
        if moved:
            self.a0 = float(np.add.reduce(a))

    def joint(self, rng):
        """Rescale the shapes and the tail shape's excess over its bound by one
        factor lam, which mixes the weakly identified concentration; scaling
        n+1 flat-prior coordinates contributes a lam^(n+1) volume term."""
        n, a0 = self.n, self.a0
        step = self.steps[n] * rng.standard_normal()
        lam = float(np.exp(step))
        a0_new = a0 * lam
        b = _support_lower(a0_new, self.ratio) + lam * (self.b - _support_lower(a0, self.ratio))
        if b <= TAIL_SHAPE_CAP_MULT * a0_new:
            logr = self.move(b, [x * lam for x in self.a]) - self.ll + (n + 1) * step
            if self._metropolis(n, logr, rng):
                self.a0 = a0_new

    def tail(self, rng):
        """A random-walk move of the tail shape's log excess over its bound."""
        lower = _support_lower(self.a0, self.ratio)
        w = np.log(self.b - lower)
        step = self.steps[self.n + 1] * rng.standard_normal()
        b = float(lower + np.exp(w + step))
        if b <= TAIL_SHAPE_CAP_MULT * self.a0:
            self._metropolis(self.n + 1, self.move(b) - self.ll + step, rng)

    def _closing(self):
        """Each row's shape prefix sum c_k and closing shape a0 + b - c_k."""
        ck = np.add.accumulate(self.a)[self.row_k]
        return ck, self.a0 + self.b - ck

    def ridge(self, rng):
        """The flat priors leave the posterior nearly flat along the direction
        that grows the tail shape together with every scale, so a reversible
        map traverses it: b -> lam*b, each scale's excess over s_i by the ratio
        g_i of its row's closing shapes, the hyper scale by lam. The Jacobian is
        lam^2 prod g_i; the log ratio adds ((ll - ll0) - m dlog hyp) + 2 step + sum log g.
        """
        ck, close = self._closing()
        step = self.steps[self.n + 2] * rng.standard_normal()
        lam = float(np.exp(step))
        b, hyp_new = lam * self.b, lam * self.hyp
        g = (self.a0 + b - ck) / close
        phi = self.s + g * (self.phi - self.s)
        if (b >= _support_lower(self.a0, self.ratio) and b <= TAIL_SHAPE_CAP_MULT * self.a0
                and hyp_new <= self.cap and np.maximum.reduce(phi) < hyp_new):
            logr = (self.move(b, sums=self.phi_sums(phi)) - self.ll - self.m * (log(hyp_new) - log(self.hyp))
                    + 2.0 * step + np.log(g).sum())
            if self._metropolis(self.n + 2, logr, rng):
                self.phi, self.hyp = phi, hyp_new

    def draw_scales(self, rng):
        """Exact draws of the scales: u_i = s_i/phi_i from a Beta(c_k - 1, a0 + b - c_k)
        truncated to u_i > s_i/hyp; then of the hyper scale, whose conditional
        density is proportional to hyp^(-m) on (max phi, cap], in closed form."""
        ck, close = self._closing()
        self.phi = phi = self.s / _sample_truncated_beta(ck - 1.0, close, self.s / self.hyp, rng)
        self.scales(self.phi_sums(phi))
        top = float(np.maximum.reduce(phi))
        v = rng.random()
        if self.m == 1:
            self.hyp = top * np.exp(v * (np.log(self.cap) - np.log(top)))
        else:
            q = 1.0 - self.m
            self.hyp = (top**q + v * (self.cap**q - top**q)) ** (1.0 / q)


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


def _run_chain(data: _Data, spec: BayesSpec, a_ref, seed: int, chain: int, out) -> list:
    """Restart ``data`` and run chain ``chain``, writing its kept draws into
    ``out``, rows of the sample's a, b_n, phi and phi_hyper (no copy to raise
    the peak memory). Returns each block's accepted proposals after warmup."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain,)))
    data.start(spec, a_ref, rng)
    A, B, PHI, HYP = out
    window = 50
    sweep = (data.shapes, data.joint, data.tail, data.ridge, data.draw_scales)
    for it in range(spec.iterations):
        for block in sweep:
            block(rng)
        if it < spec.warmup and (it + 1) % window == 0:  # toward 25-40% acceptance
            data.steps = [x * (1.26 if k / window > 0.40 else 0.79 if k / window < 0.25 else 1.0)
                          for x, k in zip(data.steps, data.acc)]
            data.acc = [0] * len(data.acc)
        if it + 1 == spec.warmup:  # the post-warmup counts start from zero
            data.acc = [0] * len(data.acc)
        if it >= spec.warmup:
            i = it - spec.warmup
            A[i], B[i], PHI[i], HYP[i] = data.a, data.b, data.phi, data.hyp
    return data.acc


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
    try:
        a_ref = mle.fit_mle(t).theta_hat.a
    except mle.ConvergenceError as exc:
        raise mle.ConvergenceError(f"start of the chains: {exc}") from None
    n, m, kept = data.n, data.m, spec.iterations - spec.warmup
    A, B, PHI, HYP = (np.empty((spec.chains, kept, *shape)) for shape in ((n,), (), (m,), ()))
    accepted = np.array([_run_chain(data, spec, a_ref, seed, c, (A[c], B[c], PHI[c], HYP[c]))
                         for c in range(spec.chains)])

    rates = accepted / kept  # a block proposes once per iteration
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
    # past every chain's stream, as chain c draws from spawn_key (c,)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(max(9, ps.spec.chains),)))
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

"""Maximum likelihood estimation for the Dirichlet reserving model.

The tail shape is fixed at its boundary optimum of 1, the per-year scales
are profiled out in closed form, and the development shapes are found by
Newton-Raphson on the profiled log-likelihood with an analytic gradient
and Hessian. Iterations run on log shapes to enforce positivity, with
backtracking step halving and a gradient-step fallback.

One fit path serves every fit: :func:`_fit_batch` runs R datasets that
share one observed mask through one Newton implementation in lockstep on
(R, n) arrays, each with its own step, line search and stopping tests.
:func:`fit_mle` and ``bootstrap.bootstrap_once`` are batches of one,
through :func:`_fit_arrays`; the bootstrap and the goodness-of-fit null
refit their replicates in batches. Batch invariance: a dataset's fit is
bit-identical whatever other datasets share its batch.

Two row sums, which can differ in the last bits, are in play. The
likelihood reads ``_Stats.s``, the sum over all n columns with the
unobserved cells zeroed; switching it would move every fit's Newton path
in the last bits, and with it the refits that stop near the roundoff
floor. The scales (:func:`_scales`, for :func:`profile_phi` and every
fit) read ``triangle.prefix_sums``: the triangle's observed cumulative,
bit for bit, as the bootstrap and the hold-out evaluation use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .model import DirichletParams
from .special import digamma, log_gamma, trigamma
from .triangle import LossRatioTriangle, prefix_sums


class IdentificationError(InputError):
    """A development year is never observed, leaving its shape parameter free."""


class ConvergenceError(NumericalError):
    """Newton-Raphson failed to converge within the iteration budget."""


# Newton's iteration budget and stopping tolerances, shared by every fit
_MAX_ITERATIONS = 200
_STEP_TOL = 1e-8
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class FitResult:
    """MLE output: parameter estimates and convergence diagnostics."""

    theta_hat: DirichletParams
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float
    years: tuple


class _Stats:
    """Sufficient statistics of R datasets that share one staircase mask,
    for the profiled likelihood.

    Rows are grouped by observed prefix length so that evaluations cost
    O(n) / O(n^2) per dataset. The grouping (``N``, ``cnt``, ``kk``,
    ``ckk``) depends on the mask only and is shared; ``s``, ``L``, ``M``
    and ``start`` (Newton's start: column means over the mean complete
    row total, scaled to sum 100) carry a leading batch axis. ``loglik`` and
    ``grad`` take shapes of shape (R', n) for the datasets ``rows`` (all
    of them when None) and return (R',) and (R', n); ``hess`` depends on
    the mask only, takes any (R', n) and returns (R', n, n).
    Every reduction is elementwise or runs along a contiguous last axis,
    so a dataset's values do not depend on which others share its batch.
    """

    def __init__(self, ratios: np.ndarray, k: np.ndarray):
        _, m, n = ratios.shape
        self.m, self.n = m, n
        self.k = np.asarray(k, dtype=int)
        mask = np.arange(n)[None, :] < self.k[:, None]
        work = np.where(mask, ratios, 0.0)  # the one (R, m, n) buffer, reused below
        self.s = work.sum(axis=2)
        self.N = mask.sum(axis=0)
        if np.any(self.N == 0):
            j = int(np.argmax(self.N == 0)) + 1
            raise IdentificationError(f"development year {j} is never observed")
        mean_complete = np.take(self.s, np.flatnonzero(self.k == n), axis=1).mean(axis=1)
        base = work.sum(axis=1) / self.N / mean_complete[:, None]
        self.start = 100.0 * base / base.sum(axis=1, keepdims=True)
        work[:, ~mask] = 1.0
        self.L = np.log(work, out=work).sum(axis=1)
        self.M = np.multiply(mask, np.log(self.s)[:, :, None], out=work).sum(axis=1)
        self.cnt = np.bincount(self.k, minlength=n + 1).astype(float)
        # distinct partial prefix lengths (complete rows contribute nothing
        # to the profile terms)
        self.kk = np.nonzero(self.cnt[1:n])[0] + 1
        self.ckk = self.cnt[self.kk]
        self._lower = np.greater.outer(np.arange(n), np.arange(n))

    def _cumulative(self, a: np.ndarray):
        # np.take keeps the gathered columns C-ordered, so that row sums
        # over them run as they would on one dataset; a[:, idx] would not
        c = np.cumsum(a, axis=1)
        return c[:, -1:], np.take(c, self.kk - 1, axis=1)

    def loglik(self, a: np.ndarray, rows=None) -> np.ndarray:
        out = np.full(a.shape[0], -np.inf)
        ok = np.isfinite(a).all(axis=1) & (a > 0).all(axis=1) & (a.max(axis=1) <= 1e100)
        a = a[ok]
        a0, ck = self._cumulative(a)
        tail = a0 - ck  # exact: cumulative sums are monotone
        # a zero tail means later shapes vanished below float resolution
        fine = (tail > 0.0).all(axis=1)
        ok[ok] = fine
        if not fine.any():
            return out
        a, a0, ck, tail = a[fine], a0[fine], ck[fine], tail[fine]
        rows = np.flatnonzero(ok) if rows is None else np.asarray(rows)[ok]
        n = self.n
        lg = log_gamma(np.concatenate((a0 + 1.0, a, tail + 1.0), axis=1))
        val = self.m * lg[:, 0] - (self.N * lg[:, 1 : n + 1]).sum(axis=1)
        val += ((a - 1.0) * self.L[rows]).sum(axis=1) - (a * self.M[rows]).sum(axis=1)
        val += (
            self.ckk
            * (-lg[:, n + 1 :] + ck * np.log(ck / a0) + tail * np.log(tail / a0))
        ).sum(axis=1)
        out[ok] = val
        return out

    def grad(self, a: np.ndarray, rows=None) -> np.ndarray:
        rows = slice(None) if rows is None else rows
        R, n = a.shape
        a0, ck = self._cumulative(a)
        dg = digamma(np.concatenate((a0 + 1.0, a, (a0 - ck) + 1.0), axis=1))
        g = self.m * dg[:, :1] - self.N * dg[:, 1 : n + 1] + self.L[rows] - self.M[rows]
        t1 = np.zeros((R, n + 1))
        t1[:, self.kk] = self.ckk * np.log(ck / a0)
        t2 = np.zeros((R, n + 1))
        t2[:, self.kk] = self.ckk * (-dg[:, n + 1 :] + np.log((a0 - ck) / a0))
        # rows still developing at year j contribute t1; rows already closed
        # before j contribute t2
        g += np.cumsum(t1[:, ::-1], axis=1)[:, ::-1][:, 1:]
        g += np.concatenate((np.zeros((R, 1)), np.cumsum(t2, axis=1)[:, 1:n]), axis=1)
        return g

    def hess(self, a: np.ndarray) -> np.ndarray:
        R, n = a.shape
        a0, ck = self._cumulative(a)
        tg = trigamma(np.concatenate((a0 + 1.0, a, (a0 - ck) + 1.0), axis=1))
        t1 = np.zeros((R, n + 2))
        t1[:, self.kk] = self.ckk / ck
        t1[:, n] = self.cnt[n] / a0[:, 0]
        suf1 = np.cumsum(t1[:, ::-1], axis=1)[:, ::-1]  # suf1[q] = sum over prefixes >= q
        t2 = np.zeros((R, n + 1))
        t2[:, self.kk] = self.ckk * (1.0 / (a0 - ck) - tg[:, n + 1 :])
        pre2 = np.cumsum(t2, axis=1)  # pre2[q-1] = sum over prefixes < q
        # H[p, q] = suf1[max(p, q) + 1] + m (tg(a0 + 1) - 1/a0) + pre2[min(p, q)], per triangle
        later = suf1[:, 1 : n + 1] + (self.m * (tg[:, 0] - 1.0 / a0[:, 0]))[:, None]
        H = np.add(later[:, None, :], pre2[:, :n, None])  # exact where p <= q
        np.add(later[:, :, None], pre2[:, None, :n], out=H, where=self._lower)
        diag = np.arange(n)
        H[:, diag, diag] -= self.N * tg[:, 1 : n + 1]
        return H


def _solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system of the stack; a singular one gives a NaN row
    instead of failing the others."""
    try:
        return np.linalg.solve(H, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for r in range(b.shape[0]):
            try:
                out[r] = np.linalg.solve(H[r], b[r, :, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(stats: _Stats, a_start: np.ndarray):
    """Profiled Newton-Raphson on all of ``stats``' datasets in lockstep.

    Works on log shapes. Each dataset keeps its own gradient test, Newton
    step (the gradient direction when the Hessian gives no ascent),
    backtracking factor over at most 31 halvings, ``_STEP_TOL`` test and
    convergence flag; finished datasets drop out of the batch. A dataset
    also converges, whether or not its line search then finds an increase,
    when the predicted gain of its Newton step, half the Newton decrement
    -g'H^-1 g in log coordinates, is below 1e-13 max(1, |ll|): the profiled
    value carries rounding error at that scale from its largest terms
    (m lgamma(a0 + 1) and the like), so no line search can show a gain
    that small.

    Returns shapes (R, n), log-likelihoods (R,), the total iteration count
    over the batch as an int, gradient max-norms (R,) and convergence
    flags (R,).
    """
    R, n = a_start.shape
    x = np.log(a_start)
    ll = stats.loglik(np.exp(x))
    iterations = np.zeros(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    active = np.ones(R, dtype=bool)
    diag = np.arange(n)
    for it in range(1, _MAX_ITERATIONS + 1):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        iterations[act] = it
        a = np.exp(x[act])
        g = stats.grad(a, act)
        small = np.max(np.abs(g), axis=1) < _GRAD_TOL
        converged[act[small]] = True
        active[act[small]] = False
        act, a, g = act[~small], a[~small], g[~small]
        if act.size == 0:
            break
        gl = a * g
        Hl = stats.hess(a)
        Hl *= a[:, :, None] * a[:, None, :]
        Hl[:, diag, diag] += gl
        step = _solve(Hl, -gl)
        del Hl  # the next Hessian is built without this one
        slope = (step * gl).sum(axis=1)
        newton = np.isfinite(step).all(axis=1) & (slope > 0.0)
        if not newton.all():
            fallback = ~newton
            step[fallback] = gl[fallback] / np.linalg.norm(gl[fallback], axis=1)[:, None]
        flat = newton & (0.5 * slope < 1e-13 * np.maximum(1.0, np.abs(ll[act])))

        xa = x[act]
        xn, lln = np.empty_like(xa), np.empty(act.size)
        accepted = np.zeros(act.size, dtype=bool)
        t = np.ones(act.size)
        search = np.arange(act.size)
        for _ in range(31):
            xt = xa[search] + t[search, None] * step[search]
            with np.errstate(over="ignore"):
                lt = stats.loglik(np.exp(xt), act[search])
            up = np.isfinite(lt) & (lt > ll[act[search]])
            hit = search[up]
            xn[hit], lln[hit], accepted[hit] = xt[up], lt[up], True
            search = search[~up]
            if search.size == 0:
                break
            t[search] *= 0.5
        rel = np.zeros(act.size)
        rel[accepted] = np.max(np.abs(np.exp(xn[accepted]) - a[accepted]) / a[accepted], axis=1)
        x[act[accepted]], ll[act[accepted]] = xn[accepted], lln[accepted]
        done = flat | (accepted & (rel < _STEP_TOL))
        converged[act[done]] = True
        active[act[done | ~accepted]] = False
    a = np.exp(x)
    gnorm = np.max(np.abs(stats.grad(a)), axis=1)
    converged |= gnorm < _GRAD_TOL
    return a, ll, int(iterations.sum()), gnorm, converged


def _scales(a: np.ndarray, b_n: float, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Profiled scales (c_n + b_n - 1) / c_{k_i} * s_i (R, m), c the cumulative
    shapes ``a`` (R, n), ``s`` (R, m) the observed cumulatives."""
    c = np.cumsum(a, axis=1)
    return (c[:, -1:] + b_n - 1.0) / np.take(c, k - 1, axis=1) * s


def _fit_batch(ratios: np.ndarray, k: np.ndarray):
    """Fit R datasets of shape (R, m, n) that share the mask ``k`` (cells
    beyond each row's prefix ignored) in one lockstep Newton run.

    Returns shapes (R, n), profiled scales (R, m), log-likelihoods (R,),
    the iteration total over the batch, gradient max-norms (R,) and
    convergence flags (R,). Each dataset's result is bit-identical to
    fitting it alone.
    """
    k = np.asarray(k)
    stats = _Stats(ratios, k)
    a, ll, iterations, gnorm, converged = _newton(stats, stats.start)
    return a, _scales(a, 1.0, prefix_sums(ratios, k), k), ll, iterations, gnorm, converged


def _fit_arrays(ratios: np.ndarray, k: np.ndarray, years: tuple) -> FitResult:
    """Fit one (m, n) dataset with prefix lengths ``k`` (later cells ignored,
    but finite) as a batch of one; raise :class:`ConvergenceError` unless it converges."""
    a, phi, ll, iterations, gnorm, converged = _fit_batch(ratios[None], k)
    if not converged[0]:
        raise ConvergenceError(f"MLE fit did not converge after {iterations} iterations "
                               f"(gradient norm {gnorm[0]:.3g})")
    return FitResult(DirichletParams(a[0], 1.0, phi[0]), float(ll[0]), iterations, True,
                     float(gnorm[0]), years)


def profile_phi(a: np.ndarray, b_n: float, t: LossRatioTriangle) -> np.ndarray:
    """Closed-form maximizing scales given the shape parameters.

    For a fully developed row the scale is (a0 + b_n - 1)/a0 times the
    observed ultimate; for a partial row the denominator is the sum of
    shapes over its observed development years.
    """
    a = np.asarray(a, dtype=float)
    if a.size != t.n or not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError(f"need {t.n} positive finite shape parameters")
    if not np.isfinite(b_n) or b_n < 1.0:
        raise ValueError("the tail shape parameter must be finite and >= 1")
    return _scales(a[None], b_n, t.observed_cumulative()[None], t.k)[0]


def fit_mle(t: LossRatioTriangle) -> FitResult:
    """Fit the reserving model by profiled Newton-Raphson.

    Raises
    ------
    IdentificationError
        If some development year is observed by no accident year.
    ConvergenceError
        If the iteration budget is exhausted, or the line search fails,
        before the step or gradient tolerance is met or the predicted gain
        falls below the log-likelihood's roundoff floor.
    """
    return _fit_arrays(np.nan_to_num(t.ratios, nan=0.0), t.k, t.years)


def _one(t: LossRatioTriangle) -> _Stats:
    """``t``'s statistics as a batch of one, for the ``profiled_*`` helpers
    and for ``bayes._Data``'s prefix-length grouping (``N``, ``L``, ``cnt``)."""
    return _Stats(np.nan_to_num(t.ratios, nan=0.0)[None], t.k)


def profiled_loglik(a: np.ndarray, t: LossRatioTriangle) -> float:
    """Log-likelihood at shapes ``a`` with the tail shape at 1 and the
    scales at their profiled optimum."""
    return float(_one(t).loglik(np.asarray(a, dtype=float)[None])[0])


def profiled_gradient(a: np.ndarray, t: LossRatioTriangle) -> np.ndarray:
    """Analytic gradient of :func:`profiled_loglik` in the shape parameters."""
    return _one(t).grad(np.asarray(a, dtype=float)[None])[0]


def profiled_hessian(a: np.ndarray, t: LossRatioTriangle) -> np.ndarray:
    """Analytic Hessian of :func:`profiled_loglik` in the shape parameters."""
    return _one(t).hess(np.asarray(a, dtype=float)[None])[0]

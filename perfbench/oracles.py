"""Computations made apart from ``dirichlet_reserving``, used to check its
outputs: the profiled log-likelihood on ``scipy.special``, PIT values and
the KS statistic on ``scipy``, Chain-Ladder with Mack standard errors in
plain numpy, and rank-normalised bulk ESS.

Nothing here imports the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats


# -- maximum likelihood -----------------------------------------------------

def profiled_phi(a, ratios) -> np.ndarray:
    """Scales maximising the likelihood at shapes ``a`` with the tail shape
    at 1: phi_i = a0 / (a_1 + ... + a_k) * S_i."""
    a = np.asarray(a, dtype=float)
    c = np.cumsum(a)
    k = (~np.isnan(ratios)).sum(axis=1)
    return a.sum() / c[k - 1] * np.nansum(ratios, axis=1)


def profiled_loglik(a, ratios) -> float:
    """Sum over accident years of the scaled-Dirichlet log density of the
    observed prefix, tail shape 1, scales at ``profiled_phi``."""
    a = np.asarray(a, dtype=float)
    n = a.size
    a0 = a.sum()
    phi = profiled_phi(a, ratios)
    total = 0.0
    for i, row in enumerate(ratios):
        y = row[~np.isnan(row)]
        k = y.size
        ck = a[:k].sum()
        val = (
            special.gammaln(a0 + 1.0)
            - special.gammaln(a[:k]).sum()
            - special.gammaln(a0 + 1.0 - ck)
            + ((a[:k] - 1.0) * np.log(y)).sum()
            - ck * np.log(phi[i])
        )
        if k < n:
            val += (a0 - ck) * np.log1p(-y.sum() / phi[i])
        total += val
    return float(total)


def loglik_gradient(a, ratios, rel_step: float = 1e-5) -> np.ndarray:
    """Central finite differences of :func:`profiled_loglik` in the shapes."""
    a = np.asarray(a, dtype=float)
    g = np.empty(a.size)
    for j in range(a.size):
        h = rel_step * a[j]
        up, dn = a.copy(), a.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (profiled_loglik(up, ratios) - profiled_loglik(dn, ratios)) / (2.0 * h)
    return g


# -- goodness of fit --------------------------------------------------------

def pit_values(a, b_n, phi, ratios) -> np.ndarray:
    """Sequential Beta CDF values: cell j of year i over what remains of
    phi_i is Beta(a_j, a_{j+1} + ... + a_n + b_n). The last cell of a year
    observed through the final development year is left out when the year
    is fully developed at valuation, as its scale equals its ultimate."""
    a = np.asarray(a, dtype=float)
    m, n = ratios.shape
    out = []
    for i in range(m):
        remaining = float(phi[i])
        for j, y in enumerate(ratios[i][~np.isnan(ratios[i])]):
            if not (j == n - 1 and i + 1 <= m - n):
                tail = a[j + 1 :].sum() + b_n
                out.append(special.betainc(a[j], tail, min(1.0, y / remaining)))
            remaining -= y
    return np.array(out)


def ks_uniform(u) -> float:
    return float(stats.kstest(u, "uniform").statistic)


# -- Chain-Ladder -----------------------------------------------------------

@dataclass(frozen=True)
class ChainLadder:
    factors: np.ndarray
    factor_se: np.ndarray
    ultimates: np.ndarray
    prediction_se: np.ndarray

    def interval(self, level: float = 0.95):
        z = stats.norm.ppf(0.5 + level / 2.0)
        return self.ultimates - z * self.prediction_se, self.ultimates + z * self.prediction_se

    def quota(self, k: int) -> float:
        return float(1.0 / np.prod(self.factors[k - 1 :]))


def chain_ladder(ratios) -> ChainLadder:
    """Volume-weighted factors over all years observing both ages, Mack's
    sigma^2 with his extrapolation for the last age, and Mack's mean
    squared error of prediction (process plus estimation)."""
    m, n = ratios.shape
    observed = ~np.isnan(ratios)
    k = observed.sum(axis=1)
    C = np.where(observed, np.cumsum(np.nan_to_num(ratios), axis=1), np.nan)
    both = observed[:, 1:]  # year observes ages j and j + 1
    Cj = np.where(both, C[:, :-1], 0.0)
    Cj1 = np.where(both, C[:, 1:], 0.0)
    volume = Cj.sum(axis=0)
    factors = Cj1.sum(axis=0) / volume
    count = both.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.where(both, C[:, 1:] / C[:, :-1] - factors, 0.0)
        sigma2 = np.where(count > 1, (Cj * dev**2).sum(axis=0) / (count - 1), np.nan)
    if np.isnan(sigma2[-1]):
        sigma2[-1] = min(sigma2[-2] ** 2 / sigma2[-3], sigma2[-3], sigma2[-2])
    factor_se = np.sqrt(sigma2 / volume)

    latest = C[np.arange(m), k - 1]
    ultimates = np.empty(m)
    mse = np.empty(m)
    for i in range(m):
        ages = np.arange(k[i], n)  # ages still to develop (1-based start)
        path = latest[i] * np.concatenate(([1.0], np.cumprod(factors[ages - 1])))
        ultimates[i] = path[-1]
        terms = sigma2[ages - 1] / factors[ages - 1] ** 2 * (1.0 / path[:-1] + 1.0 / volume[ages - 1])
        mse[i] = path[-1] ** 2 * terms.sum()
    return ChainLadder(factors, factor_se, ultimates, np.sqrt(mse))


# -- MCMC -------------------------------------------------------------------

def _autocov(x: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centred, n=2 * n, axis=1)
    return np.fft.irfft(f * np.conjugate(f), n=2 * n, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    chains, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = np.zeros(n)
    rho[0] = rho_even = 1.0
    rho[1] = rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    t = 1
    # Geyer's initial positive sequence
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # Geyer's initial monotone sequence
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1 : max_t + 2].sum()
    total = chains * n
    return total / max(tau, 1.0 / np.log10(total))


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalised split-chain bulk ESS of one scalar parameter
    (Vehtari, Gelman, Simpson, Carpenter and Buerkner 2021), ``draws``
    shaped (chains, iterations)."""
    half = draws.shape[1] // 2
    split = np.concatenate((draws[:, :half], draws[:, -half:]))
    if np.ptp(split) < np.finfo(float).resolution:
        return float(split.size)
    ranks = stats.rankdata(split, method="average").reshape(split.shape)
    z = stats.norm.ppf((ranks - 0.375) / (split.size + 0.25))
    return float(_ess(z))

"""Industry benchmark methods on loss-ratio triangles.

Chain-Ladder with volume-weighted (all-year) development factors and
distribution-free standard errors, normal-approximation prediction
intervals, the expected loss-ratio method, and Bornhuetter-Ferguson.
The expected ultimate for Bornhuetter-Ferguson and the expected method is
external information and must always be supplied by the caller. Every
method starts from the paid-to-date ``observed_cumulative()``, which is
also a fully developed year's realized ultimate in ``validation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InputError
from .model import ReservePrediction
from .triangle import LossRatioTriangle


@dataclass(frozen=True)
class ClFit:
    """Chain-Ladder fit: factors with standard errors, variance
    parameters, projected ultimates and their prediction standard errors."""

    years: tuple
    factors: np.ndarray      # length n-1, factor from dev k to k+1
    factor_se: np.ndarray    # length n-1
    sigma2: np.ndarray       # length n-1, variance scale per development year
    ultimates: np.ndarray    # length m, projected n-year cumulative ratio
    prediction_se: np.ndarray  # length m, sqrt of mean squared error of prediction
    observed: np.ndarray     # length m, cumulative ratio through last observed year
    k: np.ndarray            # length m, observed prefix length per accident year

    @property
    def n(self) -> int:
        return self.factors.size + 1

    def quota(self, k: int) -> float:
        """Implied fraction of the n-year ultimate paid by development year k."""
        if not 1 <= k <= self.n:
            raise IndexError(f"quota index {k} out of range 1..{self.n}")
        return float(1.0 / np.prod(self.factors[k - 1 :]))

    def predictions(self, level: float = 0.95) -> list[ReservePrediction]:
        """Per-year point predictions with normal-approximation intervals."""
        if not 0.0 < level < 1.0:
            raise InputError("interval level must be inside (0, 1)")
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        out = []
        for i, year in enumerate(self.years):
            half = z * self.prediction_se[i]
            out.append(
                ReservePrediction(
                    year,
                    "chain-ladder",
                    float(self.ultimates[i]),
                    float(self.ultimates[i] - self.observed[i]),
                    float(self.ultimates[i] - half),
                    float(self.ultimates[i] + half),
                )
            )
        return out


def cl_fit(t: LossRatioTriangle) -> ClFit:
    """Volume-weighted Chain-Ladder estimation with Mack standard errors.

    Each factor is the ratio of column sums of cumulative ratios over the
    accident years observing both development years. The variance scale of
    the last factor, unestimable when a single year observes it, uses the
    standard log-extrapolation fallback.
    """
    m, n = t.m, t.n
    k = t.k
    C = np.cumsum(t.ratios, axis=1)  # NaN past each row's prefix, never read

    factors = np.empty(n - 1)
    sigma2 = np.full(n - 1, np.nan)
    col_volume = np.empty(n - 1)  # denominator of each factor
    for j in range(n - 1):
        rows = k >= j + 2
        if not rows.any():
            raise InputError(f"development factor {j + 1} is unestimable: no year observes it")
        num = C[rows, j + 1].sum()
        den = C[rows, j].sum()
        factors[j] = num / den
        col_volume[j] = den
        if rows.sum() > 1:
            resid = C[rows, j + 1] / C[rows, j] - factors[j]
            sigma2[j] = (C[rows, j] * resid**2).sum() / (rows.sum() - 1)
    if np.isnan(sigma2[n - 2]):
        if n >= 4 and not np.isnan(sigma2[n - 3]) and not np.isnan(sigma2[n - 4]):
            sigma2[n - 2] = min(
                sigma2[n - 3] ** 2 / sigma2[n - 4],
                min(sigma2[n - 4], sigma2[n - 3]),
            )
        elif n == 3 and not np.isnan(sigma2[n - 3]):
            sigma2[n - 2] = sigma2[n - 3]
        # otherwise variances stay NaN: factors and ultimates are still
        # valid, standard errors and intervals are undefined
    with np.errstate(invalid="ignore"):
        factor_se = np.sqrt(sigma2 / col_volume)

    observed = t.observed_cumulative()
    ultimates = np.empty(m)
    msep = np.empty(m)
    for i in range(m):
        proj, acc = observed[i], 0.0  # proj: cumulative ratio at the current age
        for age in range(int(k[i]), n):
            acc += (sigma2[age - 1] / factors[age - 1] ** 2) * (
                1.0 / proj + 1.0 / col_volume[age - 1]
            )
            proj = proj * factors[age - 1]
        ultimates[i] = proj
        msep[i] = proj**2 * acc
    return ClFit(t.years, factors, factor_se, sigma2, ultimates, np.sqrt(msep), observed, k)


def cl_predict_incremental(fit: ClFit, t: LossRatioTriangle, i: int, k2: int) -> float:
    """Chain-Ladder prediction of the incremental ratio of accident year
    ``i`` (1-based) in future development year ``k2``: the observed
    cumulative times the difference of consecutive factor products."""
    if not 1 <= i <= len(fit.years):
        raise IndexError(f"accident year index {i} out of range")
    ki = int(fit.k[i - 1])
    if not ki < k2 <= fit.n:
        raise IndexError(f"development year {k2} is not beyond the observed prefix ({ki})")
    grow_to = np.prod(fit.factors[ki - 1 : k2 - 1])
    grow_before = np.prod(fit.factors[ki - 1 : k2 - 2])
    return float(fit.observed[i - 1] * (grow_to - grow_before))


def expected_method(t: LossRatioTriangle, i: int, expected_ultimate: float) -> ReservePrediction:
    """Reserve as externally expected ultimate minus paid-to-date. The
    reserve may be negative when payments already exceed the expectation."""
    if not 1 <= i <= t.m:
        raise IndexError(f"accident year index {i} out of range 1..{t.m}")
    s = float(t.observed_cumulative()[i - 1])
    return ReservePrediction(t.years[i - 1], "expected", float(expected_ultimate), expected_ultimate - s)


def bf_predict(
    fit: ClFit, t: LossRatioTriangle, i: int, expected_ultimate: float
) -> ReservePrediction:
    """Bornhuetter-Ferguson blend of the Chain-Ladder projection and the
    externally expected ultimate, weighted by the development quota at the
    accident year's observed age."""
    if expected_ultimate <= 0:
        raise InputError("the expected ultimate loss ratio must be positive")
    if not 1 <= i <= t.m:
        raise IndexError(f"accident year index {i} out of range 1..{t.m}")
    eta = fit.quota(int(fit.k[i - 1]))
    s = float(fit.observed[i - 1])
    ult = eta * float(fit.ultimates[i - 1]) + (1.0 - eta) * float(expected_ultimate)
    return ReservePrediction(t.years[i - 1], "bornhuetter-ferguson", ult, ult - s)

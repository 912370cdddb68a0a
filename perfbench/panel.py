"""Synthetic hold-out panel for the ``panel`` workload.

Insurers come in two shapes drawn from the bundled insurer's fits as the
paper reports them (``REF_A_*`` and ``REF_PHI_*``; for the eight accident
years before 1997 the 18-year scale is the observed ultimate, which is
where the profiled scale of a fully developed year sits): 10 accident years
by 10 development years, and 18 by 10. Each row is a full Dirichlet draw
scaled by its year's phi and multiplied by the bundled premium of that
year; the training file keeps the staircase, the hold-out file the rest,
and the true full rows are returned so that the realized ultimates are
known apart from ``dirichlet_reserving.validation``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from inputs import Triangle

# The 18x10 insurers are fixed: random 18x10 draws make ``fit_mle`` stop
# with a ConvergenceError on about 2% of seeds, which would make the share
# of failed operations depend on the run seed. Generator seed 0 fits; on
# generator seed 122 ``fit_mle`` stops with "no convergence after 6
# iterations (gradient norm 1.79e-06)": backtracking stalls at the optimum.
FIXED_18 = {"s18_seed0": 0, "s18_seed122": 122}


def generating_params(bundled: Triangle, refs: dict) -> dict:
    """Shape name -> (shapes a, scales phi, years, premiums)."""
    ten = bundled.last(10)
    early = bundled.observed_cumulative()[: bundled.years.size - 10]
    return {
        "s10": (refs["REF_A_10"], refs["REF_PHI_10"], ten.years, ten.premiums),
        "s18": (
            refs["REF_A_18"],
            np.concatenate((early, refs["REF_PHI_18_LAST10"])),
            bundled.years,
            bundled.premiums,
        ),
    }


def draw_ratios(a, phi, rng: np.random.Generator) -> np.ndarray:
    """Full rows of loss ratios: (a_1..a_n, b_n = 1) Dirichlet times phi_i."""
    g = rng.gamma(np.append(a, 1.0), size=(phi.size, a.size + 1))
    return g[:, :-1] / g.sum(axis=1, keepdims=True) * phi[:, None]


def write_insurer(directory: Path, name: str, years, premiums, ratios) -> dict:
    """Write ``<name>.csv`` and ``<name>_holdout.csv``; return accident
    year -> true ultimate loss ratio at the last development year."""
    m, n = ratios.shape
    header = "accident_year,premium," + ",".join(f"dev_{j}" for j in range(1, n + 1))
    train, hold = [header], [header]
    for i in range(m):
        k = min(n, m - i)
        losses = ratios[i] * premiums[i]
        cells = [repr(float(v)) for v in losses]
        lead = f"{int(years[i])},{float(premiums[i])!r},"
        train.append(lead + ",".join(cells[:k] + [""] * (n - k)))
        if k < n:
            hold.append(lead + ",".join([""] * k + cells[k:]))
    (directory / f"{name}.csv").write_text("\n".join(train) + "\n", encoding="utf-8")
    (directory / f"{name}_holdout.csv").write_text("\n".join(hold) + "\n", encoding="utf-8")
    return {int(y): float(r.sum()) for y, r in zip(years, ratios)}


def write_panel(directory: Path, seed: int, bundled: Triangle, refs: dict, count_10: int) -> dict:
    """Write ``count_10`` 10x10 insurers drawn from ``seed`` and the fixed
    18x10 insurers; return insurer name -> realized ultimates."""
    directory.mkdir(parents=True, exist_ok=True)
    params = generating_params(bundled, refs)
    truth = {}
    for idx in range(count_10):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        name = f"s10_{idx:02d}"
        a, phi, years, premiums = params["s10"]
        truth[name] = write_insurer(directory, name, years, premiums, draw_ratios(a, phi, rng))
    for name, generator_seed in FIXED_18.items():
        a, phi, years, premiums = params["s18"]
        rng = np.random.default_rng(generator_seed)
        truth[name] = write_insurer(directory, name, years, premiums, draw_ratios(a, phi, rng))
    return truth

"""Hold-out evaluation of reserving predictions.

Actual outcomes come from a second wide-format CSV holding the cells that
were unobserved at valuation; joining it with the training triangle gives
each accident year's realized cumulative loss ratio at the final
development year. Metrics per accident year and method:

* rmse  - root of the mean (over insurers) squared deviation of the
  realized ratio from the point prediction;
* cov95 - share of insurers whose 95% interval contains the realized ratio;
* len95 - mean interval length.

For a single insurer the rows reduce to the absolute deviation, a 0/1
containment flag, and the interval length.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import benchmarks, bootstrap, mle
from .errors import InputError
from .triangle import (
    RunOffTriangle,
    TriangleError,
    _read_wide_csv,
    load_triangle,
    most_recent_years,
    to_loss_ratios,
)


@dataclass(frozen=True)
class PredictionRecord:
    """One interval prediction keyed by insurer, accident year and method."""

    insurer: str
    accident_year: int
    method: str
    point: float
    lo: float
    hi: float


@dataclass(frozen=True)
class EvalRow:
    insurer: str
    accident_year: int
    method: str
    rmse: float
    cov95: float
    len95: float


@dataclass(frozen=True)
class EvalReport:
    """Per-insurer evaluation rows plus per-year aggregates over insurers
    (aggregate rows carry insurer label ``ALL``)."""

    rows: tuple
    aggregates: tuple
    failures: tuple  # (insurer, message) pairs for isolated per-insurer errors


def load_holdout(path) -> dict:
    """Read a holdout CSV, in the triangle file format with only the
    unobserved cells filled; returns accident year -> (premium, {dev: loss})."""
    out = {}
    for year, premium, cells in _read_wide_csv(path):
        filled = {j: v for j, v in enumerate(cells, start=1) if not np.isnan(v)}
        if any(v <= 0 for v in filled.values()):
            raise TriangleError(f"{path}: nonpositive holdout loss for year {year}")
        out[year] = (premium, filled)
    return out


def realized_ultimates(t: RunOffTriangle, holdout: dict) -> dict:
    """Realized final-development cumulative loss ratio per accident year.

    Fully observed training rows need no holdout row; every partially
    observed row must have exactly its unobserved cells in the holdout.
    """
    # the triangle's own observed cumulative, so a fully developed year's
    # realized ultimate is both endpoints of its zero-width interval
    paid = to_loss_ratios(t).observed_cumulative()
    out = {}
    for i, year in enumerate(t.years):
        ki = int(t.k[i])
        out[year] = float(paid[i])
        if ki == t.n:
            continue
        if year not in holdout:
            raise TriangleError(f"holdout data missing for accident year {year}")
        premium, cells = holdout[year]
        if premium != t.premiums[i]:
            raise TriangleError(f"holdout premium mismatch for accident year {year}")
        expect = set(range(ki + 1, t.n + 1))
        if set(cells) != expect:
            raise TriangleError(
                f"holdout cells for accident year {year} must cover development "
                f"years {min(expect)}..{t.n}"
            )
        out[year] += sum(cells.values()) / float(t.premiums[i])
    return out


def evaluate(predictions, actuals) -> EvalReport:
    """Score interval predictions against realized outcomes.

    ``predictions`` is an iterable of :class:`PredictionRecord`;
    ``actuals`` maps (insurer, accident_year) to the realized ratio.
    Every prediction must have a matching actual.
    """
    preds = list(predictions)
    if not preds:
        raise ValueError("no predictions to evaluate")
    rows = []
    for p in preds:
        key = (p.insurer, p.accident_year)
        if key not in actuals:
            raise KeyError(f"no realized outcome for insurer {p.insurer!r}, year {p.accident_year}")
        actual = actuals[key]
        rows.append(
            EvalRow(
                p.insurer,
                p.accident_year,
                p.method,
                abs(actual - p.point),
                1.0 if p.lo <= actual <= p.hi else 0.0,
                p.hi - p.lo,
            )
        )
    # |d|**2 == d**2 bit for bit, so the rows' absolute deviations serve
    groups = {}
    for r in rows:
        groups.setdefault((r.method, r.accident_year), []).append(r)
    aggregates = [
        EvalRow(
            "ALL",
            year,
            method,
            float(np.sqrt(np.mean(np.array([r.rmse for r in group]) ** 2))),
            float(np.mean([r.cov95 for r in group])),
            float(np.mean([r.len95 for r in group])),
        )
        for (method, year), group in sorted(groups.items())
    ]
    return EvalReport(tuple(rows), tuple(aggregates), ())


PANEL_METHODS = ("dirichlet", "cl")


def predict_intervals(lr, method, n_sim, seed, level):
    """Per accident year interval records, as :func:`bootstrap.summarize`
    gives them, of one panel method: ``dirichlet`` is the bias-corrected
    bootstrap of the MLE, ``cl`` is Chain-Ladder with Mack intervals."""
    if method == "dirichlet":
        fit = mle.fit_mle(lr)
        pd = bootstrap.bias_corrected_bootstrap(fit.theta_hat, lr, n_sim=n_sim, seed=seed)
        return bootstrap.summarize(pd, level)
    if method == "cl":
        return [
            {"accident_year": p.year, "point": p.ultimate, "lo": p.lo, "hi": p.hi}
            for p in benchmarks.cl_fit(lr).predictions(level)
        ]
    raise InputError(f"unknown panel method {method!r}")


def run_panel(
    panel_dir,
    methods=("dirichlet", "cl"),
    years: int | None = None,
    n_sim: int = 400,
    seed: int = 0,
) -> EvalReport:
    """Fit and score every insurer in a directory.

    The directory holds ``<name>.csv`` training triangles with matching
    ``<name>_holdout.csv`` files. A failing insurer is reported in the
    result's ``failures`` and does not stop the rest of the panel.
    """
    panel_dir = Path(panel_dir)
    train_files = sorted(
        p for p in panel_dir.glob("*.csv") if not p.stem.endswith("_holdout")
    )
    if not train_files:
        raise TriangleError(f"{panel_dir}: no triangle files found")
    predictions = []
    actuals = {}
    failures = []
    for path in train_files:
        name = path.stem
        try:
            tri = load_triangle(path)
            holdout = load_holdout(path.with_name(f"{name}_holdout.csv"))
            use = most_recent_years(tri, years) if years is not None else tri
            realized = realized_ultimates(use, holdout)
            lr = to_loss_ratios(use)
            preds = [
                PredictionRecord(name, r["accident_year"], method, r["point"], r["lo"], r["hi"])
                for method in methods
                for r in predict_intervals(lr, method, n_sim, seed, 0.95)
            ]
        except Exception as exc:  # isolate per-insurer failures
            failures.append((name, str(exc)))
            continue
        predictions.extend(preds)
        for year, val in realized.items():
            actuals[(name, year)] = val
    if not predictions:
        raise TriangleError("every insurer in the panel failed")
    report = evaluate(predictions, actuals)
    return EvalReport(report.rows, report.aggregates, tuple(failures))


REPORT_HEADER = "insurer,accident_year,method,rmse,cov95,len95"


def report_lines(report: EvalReport) -> list:
    """CSV lines, without the header, of the per-insurer rows then the
    aggregate rows."""
    return [
        f"{r.insurer},{r.accident_year},{r.method},"
        f"{float(r.rmse)!r},{float(r.cov95)!r},{float(r.len95)!r}"
        for r in report.rows + report.aggregates
    ]

"""Reading the benchmark's inputs without the package under test: triangle
and hold-out CSV files, and the paper's reference values from the test
suite's ``conftest.py``. Needs only numpy, so it can run before anything
else is imported."""

from __future__ import annotations

import ast
import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Triangle:
    """Wide-format triangle as written on disk: NaN marks an empty cell."""

    years: np.ndarray
    premiums: np.ndarray
    losses: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.losses / self.premiums[:, None]

    @property
    def k(self) -> np.ndarray:
        return (~np.isnan(self.losses)).sum(axis=1)

    def last(self, count: int) -> "Triangle":
        return Triangle(self.years[-count:], self.premiums[-count:], self.losses[-count:])

    def observed_cumulative(self) -> np.ndarray:
        return np.nansum(self.ratios, axis=1)


def read_triangle(path) -> Triangle:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if any(tok.strip() for tok in r)]
    body = rows[1:]
    years = np.array([int(float(r[0])) for r in body])
    premiums = np.array([float(r[1]) for r in body])
    losses = np.array([[float(t) if t.strip() else np.nan for t in r[2:]] for r in body])
    return Triangle(years, premiums, losses)


def read_holdout(path) -> dict:
    """Accident year -> sum of the hold-out losses over the premium."""
    tri = read_triangle(path)
    return {int(y): float(np.nansum(row)) / p for y, p, row in zip(tri.years, tri.premiums, tri.losses)}


def realized_ultimates(tri: Triangle, holdout: dict) -> dict:
    paid = tri.observed_cumulative()
    return {int(y): float(paid[i]) + holdout.get(int(y), 0.0) for i, y in enumerate(tri.years)}


# -- the paper's reference values ------------------------------------------

def reference_values(conftest_path) -> dict:
    """The ``REF_*`` constants of the test suite's conftest, as float arrays
    (``np.array([...])`` literals or plain numbers)."""
    tree = ast.parse(open(conftest_path, encoding="utf-8").read())
    out = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        name = getattr(node.targets[0], "id", "")
        if name.startswith("REF_"):
            value = node.value.args[0] if isinstance(node.value, ast.Call) else node.value
            out[name] = np.array(ast.literal_eval(value), dtype=float)
    return out

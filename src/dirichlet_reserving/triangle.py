"""Run-off triangle data model and CSV ingestion.

A triangle holds earned premiums and incremental paid losses per accident
year (rows) and development year (columns). Only a staircase of cells is
observed at valuation; unobserved cells are NaN. Loss ratios are losses
divided by the accident year's premium. Both triangle classes run one set
of checks and store every array, ``k`` included, read-only.
:func:`prefix_sums` is the package's one paid-to-date sum, except for
``mle._Stats.s`` (the likelihood's zero-padded sum) and the scalar oracles
``model.row_log_density`` and ``model.sample_future_row``.

Triangle CSV format: UTF-8, comma separated, header row
``accident_year,premium,dev_1,...,dev_n``, one data row per accident year
in ascending year order, unobserved cells left empty.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


class TriangleError(InputError):
    """Raised on malformed triangle files or invalid triangle data."""


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class _Triangle:
    """The checks both triangle dataclasses run on their years, premiums
    and (m, n) cell array, named by ``_cells``; errors name the accident
    year and, for a cell, the development year."""

    _cells = ("losses", "incremental loss")  # (field name, noun in errors)

    def __post_init__(self):
        name, noun = self._cells
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "premiums", _freeze(self.premiums))
        values = _freeze(getattr(self, name))
        object.__setattr__(self, name, values)
        m, _ = values.shape
        if len(self.years) != m or len(self.premiums) != m:
            raise TriangleError(f"years, premiums and {name} disagree on row count")
        if np.any(self.premiums <= 0):
            bad = self.years[int(np.argmax(self.premiums <= 0))]
            raise TriangleError(f"nonpositive premium for accident year {bad}")
        obs = ~np.isnan(values)
        k = obs.sum(axis=1)
        for i in range(m):
            if k[i] == 0:
                raise TriangleError(f"{name}: accident year {self.years[i]} has no observed cells")
            if not obs[i, : k[i]].all():
                raise TriangleError(
                    f"{name}: accident year {self.years[i]} mask is not staircase-shaped "
                    "(observed cells must form a prefix)"
                )
        with np.errstate(invalid="ignore"):
            if np.any(values <= 0):
                i, j = np.argwhere(values <= 0)[0]
                raise TriangleError(
                    f"nonpositive {noun} at accident year {self.years[i]}, "
                    f"development year {j + 1}"
                )
        object.__setattr__(self, "k", _freeze(k, int))

    @property
    def m(self) -> int:
        return getattr(self, self._cells[0]).shape[0]

    @property
    def n(self) -> int:
        return getattr(self, self._cells[0]).shape[1]


@dataclass(frozen=True)
class RunOffTriangle(_Triangle):
    """Premiums and incremental paid losses with an observed-cell mask.

    Parameters
    ----------
    years : sequence of int
        Accident year labels, ascending.
    premiums : array of shape (m,)
        Earned premium per accident year, strictly positive.
    losses : array of shape (m, n)
        Incremental paid losses; NaN marks unobserved cells. Observed
        cells must be strictly positive and form a prefix of each row.
    """

    years: tuple
    premiums: np.ndarray
    losses: np.ndarray
    k: np.ndarray = field(init=False, repr=False)


@dataclass(frozen=True)
class LossRatioTriangle(_Triangle):
    """Incremental loss ratios (losses over premium), same mask as the source."""

    _cells = ("ratios", "loss ratio")

    years: tuple
    premiums: np.ndarray
    ratios: np.ndarray
    k: np.ndarray = field(init=False, repr=False)

    def observed_cumulative(self) -> np.ndarray:
        """Cumulative observed loss ratio per accident year (through each
        row's last observed development year)."""
        return prefix_sums(self.ratios, self.k)


def prefix_sums(values: np.ndarray, k) -> np.ndarray:
    """Each row's ``values[..., i, :k[i]].sum()`` on an (m, n) triangle or an
    (R, m, n) stack, bit for bit: each row is summed along a last axis of
    exactly its prefix length (a zero-padded sum can differ)."""
    out = np.empty(values.shape[:-1])
    for i, length in enumerate(k):
        out[..., i] = values[..., i, :length].sum(axis=-1)
    return out


def _parse_cell(token: str, where: str, column: str) -> float:
    token = token.strip()
    if "," in token or " " in token or "'" in token:
        raise TriangleError(f"{where}, {column}: thousands separators are not accepted ({token!r})")
    try:
        value = float(token)
    except ValueError:
        raise TriangleError(f"{where}, {column}: cannot parse number {token!r}") from None
    if not math.isfinite(value):
        raise TriangleError(f"{where}, {column}: non-finite value {token!r}")
    return value


def _read_wide_csv(path):
    """Parse a wide-format CSV (the triangle format above) into one
    (year, premium, cells) tuple per non-blank data row, empty cells as NaN.

    Checks the header, the column count of every row, every cell and that
    no accident year repeats; errors name the file, the line and the
    column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TriangleError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "accident_year" or header[1] != "premium":
        raise TriangleError(f"{path}: header must be accident_year,premium,dev_1,...,dev_n")
    n = len(header) - 2
    for j, name in enumerate(header[2:], start=1):
        if name != f"dev_{j}":
            raise TriangleError(
                f"{path}:1, {name}: development columns must be dev_1,...,dev_{n}"
            )

    out, seen = [], {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not any(tok.strip() for tok in row):
            continue
        if len(row) != n + 2:
            raise TriangleError(f"{path}:{lineno}: expected {n + 2} columns, got {len(row)}")
        where = f"{path}:{lineno}"
        year = _parse_cell(row[0], where, "accident_year")
        if not year.is_integer():
            raise TriangleError(f"{where}, accident_year: not an integer year ({row[0].strip()!r})")
        year = int(year)
        if year in seen:
            raise TriangleError(
                f"{where}, accident_year: accident year {year} repeats line {seen[year]}"
            )
        seen[year] = lineno
        out.append((
            year,
            _parse_cell(row[1], where, "premium"),
            [
                _parse_cell(tok, where, name) if tok.strip() else np.nan
                for name, tok in zip(header[2:], row[2:])
            ],
        ))
    if not out:
        raise TriangleError(f"{path}: no data rows")
    return out


def load_triangle(path) -> RunOffTriangle:
    """Read a wide-format triangle CSV and validate the canonical staircase.

    The expected mask is the standard valuation layout: row i observes all
    n cells when i <= m - n (fully developed historical years) and the
    first m + 1 - i cells otherwise.
    """
    years, premiums, cells = zip(*_read_wide_csv(path))
    if list(years) != sorted(years):
        raise TriangleError(f"{path}: accident years must be ascending")
    try:
        tri = RunOffTriangle(years, np.array(premiums), np.array(cells))
    except TriangleError as exc:
        raise TriangleError(f"{path}: {exc}") from None

    m = tri.m
    for i in range(m):
        expect = tri.n if i + 1 <= m - tri.n else m - i
        if tri.k[i] != expect:
            raise TriangleError(
                f"{path}: non-staircase mask: accident year {tri.years[i]} has "
                f"{tri.k[i]} observed cells, expected {expect}"
            )
    return tri


def to_loss_ratios(t: RunOffTriangle) -> LossRatioTriangle:
    """Divide each row of losses by its premium; the mask carries over."""
    return LossRatioTriangle(t.years, t.premiums, t.losses / t.premiums[:, None])


def cumulative(t: LossRatioTriangle, i: int, k: int, k2: int) -> float:
    """Partial sum of loss ratios for accident year index ``i`` (1-based)
    over development years ``k..k2`` (1-based, inclusive)."""
    if not 1 <= i <= t.m:
        raise IndexError(f"accident year index {i} out of range 1..{t.m}")
    if not 1 <= k <= k2 <= t.n:
        raise IndexError(f"need 1 <= k <= k2 <= {t.n}, got k={k}, k2={k2}")
    if k2 > t.k[i - 1]:
        raise TriangleError(
            f"development year {k2} of accident year {t.years[i - 1]} is unobserved"
        )
    return float(t.ratios[i - 1, k - 1 : k2].sum())


def restrict_years(t: RunOffTriangle, first_accident_year: int) -> RunOffTriangle:
    """Sub-triangle keeping accident years >= ``first_accident_year``."""
    keep = [i for i, y in enumerate(t.years) if y >= first_accident_year]
    if not keep:
        raise TriangleError(f"no accident years at or after {first_accident_year}")
    i0 = keep[0]
    return RunOffTriangle(t.years[i0:], t.premiums[i0:], t.losses[i0:])


def most_recent_years(t: RunOffTriangle, count: int) -> RunOffTriangle:
    """Sub-triangle of the most recent ``count`` accident years."""
    if not 1 <= count <= t.m:
        raise TriangleError(f"cannot select {count} of {t.m} accident years")
    return restrict_years(t, t.years[t.m - count])

"""Hold-out evaluation: joining training and holdout files, the metric
definitions, and the panel harness with failure isolation."""

import shutil

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.triangle import TriangleError
from dirichlet_reserving.validation import (
    EvalReport,
    REPORT_HEADER,
    PredictionRecord,
    realized_ultimates,
    report_lines,
    run_panel,
)

from conftest import ACTUAL_LAST10, REF_PRED_DIR_10, YEARS_LAST10


class TestHoldoutJoin:
    def test_realized_matches_reference_actuals(self, triangle18, holdout):
        realized = realized_ultimates(triangle18, holdout)
        got = np.array([realized[y] for y in YEARS_LAST10])
        np.testing.assert_allclose(got, ACTUAL_LAST10, atol=5e-4)

    def test_complete_years_need_no_holdout(self, triangle18, holdout):
        realized = realized_ultimates(triangle18, holdout)
        assert 1989 in realized
        assert realized[1989] == pytest.approx(
            float(np.nansum(triangle18.losses[0])) / triangle18.premiums[0]
        )

    @pytest.mark.parametrize("years", [10, 18])
    def test_complete_years_bit_equal_observed_cumulative(self, years, triangle18, holdout):
        t = dr.most_recent_years(triangle18, years)
        realized = realized_ultimates(t, holdout)
        observed = dr.to_loss_ratios(t).observed_cumulative()
        complete = [i for i in range(t.m) if t.k[i] == t.n]
        assert complete
        for i in complete:
            assert realized[t.years[i]] == observed[i]

    def test_missing_year_rejected(self, triangle18, holdout):
        partial = {y: v for y, v in holdout.items() if y != 2003}
        with pytest.raises(TriangleError, match="2003"):
            realized_ultimates(triangle18, partial)

    def test_premium_mismatch_rejected(self, triangle18, holdout):
        broken = dict(holdout)
        prem, cells = broken[2000]
        broken[2000] = (prem + 1.0, cells)
        with pytest.raises(TriangleError, match="premium"):
            realized_ultimates(triangle18, broken)

    def test_wrong_cells_rejected(self, triangle18, holdout):
        broken = dict(holdout)
        prem, cells = broken[2000]
        cells = dict(cells)
        cells.pop(10)
        broken[2000] = (prem, cells)
        with pytest.raises(TriangleError, match="cover"):
            realized_ultimates(triangle18, broken)


class TestLoadHoldout:
    HEADER = "accident_year,premium,dev_1,dev_2,dev_3"

    @pytest.mark.parametrize(
        "text, where, match",
        [
            (HEADER + '\n2006,100,,"1,000",5\n', ":2, dev_2", "separator"),
            (HEADER + "\n2006,100,,inf,5\n", ":2, dev_2", "non-finite"),
            (HEADER + "\n2006,100,,nan,5\n", ":2, dev_2", "non-finite"),
            (HEADER + "\n2006,100,,7\n", ":2: expected 5 columns", "columns"),
            ("accident_year,premium,dev_1,dev_3,dev_2\n2006,100,,,5\n", ":1, dev_3", "dev_1"),
            (HEADER + "\n2006,100,,,5\n2006,100,,,6\n", ":3, accident_year", "repeats line 2"),
        ],
    )
    def test_malformed_file_names_line_and_column(self, tmp_path, text, where, match):
        path = tmp_path / "h_holdout.csv"
        path.write_text(text)
        with pytest.raises(TriangleError, match=match) as info:
            dr.load_holdout(path)
        assert f"{path}{where}" in str(info.value)


class TestEvaluate:
    def test_exact_predictions_score_perfectly(self):
        actuals = {("x", 2000): 0.7, ("x", 2001): 0.8}
        preds = [
            PredictionRecord("x", 2000, "m", 0.7, 0.7, 0.7),
            PredictionRecord("x", 2001, "m", 0.8, 0.8, 0.8),
        ]
        rep = dr.evaluate(preds, actuals)
        for row in rep.aggregates:
            assert row.rmse == 0.0
            assert row.cov95 == 1.0
            assert row.len95 == 0.0

    def test_two_insurer_hand_arithmetic(self):
        actuals = {("a", 2000): 0.73, ("b", 2000): 0.74}
        preds = [
            PredictionRecord("a", 2000, "m", 0.70, 0.6, 0.8),
            PredictionRecord("b", 2000, "m", 0.70, 0.6, 0.7),
        ]
        rep = dr.evaluate(preds, actuals)
        agg = rep.aggregates[0]
        assert agg.rmse == pytest.approx(np.sqrt((0.03**2 + 0.04**2) / 2))
        assert agg.rmse == pytest.approx(0.035355, abs=1e-5)
        assert agg.cov95 == 0.5
        assert agg.len95 == pytest.approx(0.15)

    def test_reference_deviation_column(self, triangle18, holdout):
        # absolute deviations of the known ten-year point predictions
        realized = realized_ultimates(triangle18, holdout)
        preds = [
            PredictionRecord("ins", year, "dirichlet", float(p), 0.0, 2.0)
            for year, p in zip(YEARS_LAST10, REF_PRED_DIR_10)
        ]
        rep = dr.evaluate(preds, {("ins", y): realized[y] for y in YEARS_LAST10})
        ref_dev = [0.000, 0.001, 0.002, 0.007, 0.007, 0.004, 0.036, 0.020, 0.037, 0.052]
        for row, want in zip(rep.rows, ref_dev):
            assert abs(row.rmse - want) < 0.001

    def test_key_mismatch(self):
        with pytest.raises(KeyError):
            dr.evaluate([PredictionRecord("a", 2000, "m", 0.7, 0.6, 0.8)], {})

    def test_permutation_invariance(self):
        rng = np.random.default_rng(61)
        actuals = {(f"i{j}", 2000): float(rng.uniform(0.6, 0.8)) for j in range(6)}
        preds = [
            PredictionRecord(f"i{j}", 2000, "m", 0.7, 0.65, 0.75) for j in range(6)
        ]
        a = dr.evaluate(preds, actuals).aggregates[0]
        b = dr.evaluate(list(reversed(preds)), actuals).aggregates[0]
        assert (a.rmse, a.cov95, a.len95) == (b.rmse, b.cov95, b.len95)

    def test_exact_insurer_improves_metrics(self):
        actuals = {("a", 2000): 0.75, ("b", 2000): 0.70}
        base = [PredictionRecord("a", 2000, "m", 0.70, 0.72, 0.74)]
        more = base + [PredictionRecord("b", 2000, "m", 0.70, 0.69, 0.71)]
        r1 = dr.evaluate(base, actuals).aggregates[0]
        r2 = dr.evaluate(more, actuals).aggregates[0]
        assert r2.rmse <= r1.rmse
        assert r2.cov95 >= r1.cov95


@pytest.fixture()
def panel_dir(tmp_path):
    shutil.copy(dr.example_insurer_path(), tmp_path / "example.csv")
    shutil.copy(dr.example_holdout_path(), tmp_path / "example_holdout.csv")
    return tmp_path


class TestRunPanel:
    def test_single_insurer_panel(self, panel_dir):
        rep = run_panel(panel_dir, methods=("cl",), years=10)
        assert not rep.failures
        insurers = {r.insurer for r in rep.rows}
        assert insurers == {"example"}
        years = sorted({r.accident_year for r in rep.rows})
        assert years == YEARS_LAST10
        agg = {r.accident_year: r for r in rep.aggregates}
        row = {r.accident_year: r for r in rep.rows}
        for y in YEARS_LAST10:
            assert agg[y].rmse == pytest.approx(row[y].rmse)

    def test_cl_fully_developed_years_exact(self, panel_dir, triangle18):
        # zero-width Chain-Ladder intervals of fully developed years hold
        # their realized ultimates
        rep = run_panel(panel_dir, methods=("cl",))
        complete = [y for y, k in zip(triangle18.years, triangle18.k) if k == triangle18.n]
        row = {r.accident_year: r for r in rep.rows}
        assert complete
        for y in complete:
            assert (row[y].cov95, row[y].rmse, row[y].len95) == (1.0, 0.0, 0.0)

    def test_corrupt_file_isolated(self, panel_dir):
        (panel_dir / "broken.csv").write_text("not,a,triangle\n")
        rep = run_panel(panel_dir, methods=("cl",), years=10)
        assert [f[0] for f in rep.failures] == ["broken"]
        assert {r.insurer for r in rep.rows} == {"example"}

    def test_missing_dir(self, tmp_path):
        with pytest.raises(TriangleError):
            run_panel(tmp_path / "nothing")

    def test_csv_export(self, panel_dir):
        rep = run_panel(panel_dir, methods=("cl",), years=10)
        lines = [REPORT_HEADER, *report_lines(rep)]
        assert lines[0] == "insurer,accident_year,method,rmse,cov95,len95"
        assert len(lines) == 1 + 2 * len(YEARS_LAST10)
        assert lines[-1].startswith("ALL,")

    def test_unknown_method_fails_whole_panel(self, panel_dir):
        # a single-insurer panel where the only insurer fails has nothing
        # left to report
        with pytest.raises(TriangleError, match="every insurer"):
            run_panel(panel_dir, methods=("nonsense",))

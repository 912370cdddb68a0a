"""Command-line interface: subcommand outputs, exit statuses, embedded
config reproducibility, and the seed fallback."""

import importlib
import inspect
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.cli import main

from test_bayes import synthetic_small


@pytest.fixture(scope="module")
def fixture_path():
    return dr.example_insurer_path()


@pytest.fixture
def panel_dir(tmp_path):
    panel = tmp_path / "panel"
    panel.mkdir()
    shutil.copy(dr.example_insurer_path(), panel / "example.csv")
    shutil.copy(dr.example_holdout_path(), panel / "example_holdout.csv")
    return panel


def run(argv, capsys=None):
    return main([str(a) for a in argv])


class TestFit:
    def test_ten_year_json(self, fixture_path, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit", "--triangle", fixture_path, "--years", "10", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["subcommand"] == "fit"
        assert payload["config"]["seed"] == 0
        res = payload["result"]
        assert abs(res["a"][0] - 1293.81) / 1293.81 < 0.01
        assert res["b_n"] == 1.0
        assert res["converged"] is True
        assert len(res["dev_factors"]) == 9
        assert len(res["dev_quotas"]) == 10
        assert res["dev_quotas"][-1] == pytest.approx(1.0)
        assert res["tail_factor"] == pytest.approx(1.000222, abs=5e-7)

    def test_years_all_equals_explicit(self, fixture_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["fit", "--triangle", fixture_path, "--years", "all", "--out", a]) == 0
        assert run(["fit", "--triangle", fixture_path, "--years", "18", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = run(["fit", "--triangle", tmp_path / "absent.csv"])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("line, column, token, message", [
        (3, 1, "-168293", "nonpositive premium for accident year 1990"),
        (4, 3, "-39354", "nonpositive incremental loss at accident year 1991, development year 2"),
        (5, 4, "", "losses: accident year 1992 mask is not staircase-shaped"),
        (2, 0, "1989.7", ":2, accident_year: not an integer year ('1989.7')"),
    ], ids=["premium", "cell", "gap", "year"])
    def test_bad_triangle_names_file(self, fixture_path, tmp_path, capsys, line, column, token,
                                     message):
        # a copy of the bundled triangle with one field replaced
        lines = Path(fixture_path).read_text().splitlines()
        fields = lines[line - 1].split(",")
        fields[column] = token
        lines[line - 1] = ",".join(fields)
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run(["fit", "--triangle", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and message in err

    def test_bad_years(self, fixture_path, capsys):
        assert run(["fit", "--triangle", fixture_path, "--years", "99"]) == 2


class TestPredict:
    def test_chain_ladder_point(self, fixture_path, tmp_path):
        out = tmp_path / "cl.csv"
        assert run([
            "predict", "--triangle", fixture_path, "--method", "cl",
            "--years", "10", "--out", out,
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "accident_year,method,point,lo95,hi95"
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[4:]}
        assert abs(float(rows[1998][2]) - 0.719) < 0.002

    def test_bootstrap_reproducible_bytes(self, fixture_path, tmp_path):
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        argv = [
            "predict", "--triangle", fixture_path, "--method", "mle-boot",
            "--years", "10", "--seed", "7", "--nsim", "150",
        ]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bf_requires_elr(self, fixture_path, capsys):
        assert run([
            "predict", "--triangle", fixture_path, "--method", "bf", "--years", "10",
        ]) == 2
        assert "--elr" in capsys.readouterr().err

    def test_bf_with_elr(self, fixture_path, tmp_path):
        out = tmp_path / "bf.csv"
        assert run([
            "predict", "--triangle", fixture_path, "--method", "bf",
            "--years", "10", "--elr", "0.75", "--out", out,
        ]) == 0
        assert len(out.read_text().splitlines()) == 4 + 10

    def test_bayes_predict(self, tmp_path):
        t = synthetic_small()
        tri_path = tmp_path / "syn.csv"
        header = "accident_year,premium," + ",".join(f"dev_{j}" for j in range(1, 4))
        lines = [header]
        for i in range(t.m):
            cells = [
                f"{float(t.ratios[i, j])!r}" if j < t.k[i] else "" for j in range(t.n)
            ]
            lines.append(f"{t.years[i]},1," + ",".join(cells))
        tri_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "draws.csv"
        pred = tmp_path / "pred.csv"
        code = run([
            "bayes", "--triangle", tri_path, "--iterations", "9000", "--warmup", "5000",
            "--chains", "2", "--phi-hyper-cap", "1.2", "--seed", "21",
            "--out", out, "--predict-out", pred,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "chain,iteration,param,value"
        assert len(lines) == 1 + 2 * 4000 * (3 + 1 + 6 + 1)
        pred_lines = pred.read_text().splitlines()
        assert pred_lines[3] == "accident_year,method,point,lo95,hi95"
        assert json.loads(pred_lines[2].split("=", 1)[1])["phi_hyper_cap"] == 1.2


class TestBayes:
    def test_missing_out_exits_before_sampling(self, fixture_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("run_mcmc called without --out")

        monkeypatch.setattr(dr.bayes, "run_mcmc", forbidden)
        assert run(["bayes", "--triangle", fixture_path, "--years", "10"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_non_finite_cell_exits_two(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("accident_year,premium,dev_1,dev_2\n2005,100,50,inf\n2006,100,40,\n")
        assert run(["fit", "--triangle", path]) == 2
        assert "dev_2" in capsys.readouterr().err


class TestGof:
    def test_alpha_validation(self, fixture_path):
        assert run(["gof", "--triangle", fixture_path, "--alpha", "1.5"]) == 2

    def test_fixture_json(self, fixture_path, tmp_path):
        out = tmp_path / "gof.json"
        assert run([
            "gof", "--triangle", fixture_path, "--years", "10", "--alpha", "0.05",
            "--nboot", "200", "--seed", "1", "--out", out,
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["reject"] is False
        assert payload["result"]["n_boot"] == 200
        assert payload["config"]["seed"] == 1

    def test_support_error_exits_one(self, fixture_path, monkeypatch, capsys):
        def outside_support(*args, **kwargs):
            raise dr.model.SupportError("cell ratio outside the model support")

        monkeypatch.setattr(dr.gof, "gof_test", outside_support)
        assert run(["gof", "--triangle", fixture_path, "--years", "10"]) == 1
        assert "numerical failure" in capsys.readouterr().err


class TestBenchmark:
    def test_json_structure(self, fixture_path, tmp_path):
        out = tmp_path / "bench.json"
        assert run([
            "benchmark", "--triangle", fixture_path, "--years", "10",
            "--elr", "0.8", "--out", out,
        ]) == 0
        res = json.loads(out.read_text())["result"]
        assert abs(res["factors"][0] - 1.779) < 0.002
        assert len(res["chain_ladder"]) == 10
        assert len(res["bornhuetter_ferguson"]) == 10
        assert res["quotas"][-1] == pytest.approx(1.0)


class TestValidate:
    def test_panel_csv(self, panel_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert run([
            "validate", "--panel", panel_dir, "--methods", "cl", "--years", "10",
            "--out", out,
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "insurer,accident_year,method,rmse,cov95,len95"
        assert len(lines) == 4 + 20


class TestSeedFallback:
    def test_env_seed(self, fixture_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RESERVE_SEED", "42")
        out = tmp_path / "fit.json"
        assert run(["fit", "--triangle", fixture_path, "--years", "10", "--out", out]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 42

    def test_flag_beats_env(self, fixture_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RESERVE_SEED", "42")
        out = tmp_path / "fit.json"
        assert run([
            "fit", "--triangle", fixture_path, "--years", "10", "--seed", "1", "--out", out,
        ]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 1

    def test_bad_env_seed(self, fixture_path, monkeypatch):
        monkeypatch.setenv("RESERVE_SEED", "not-a-number")
        assert run(["fit", "--triangle", fixture_path, "--years", "10"]) == 2

    def test_negative_env_seed_exits_before_work(self, fixture_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started with a negative seed")

        monkeypatch.setattr(dr.mle, "fit_mle", forbidden)
        monkeypatch.setenv("RESERVE_SEED", "-4")
        assert run(["gof", "--triangle", fixture_path, "--years", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be non-negative")
        assert "RESERVE_SEED" in err and "-4" in err


def test_console_entry_point(fixture_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dirichlet_reserving.cli", "fit",
         "--triangle", fixture_path, "--years", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["b_n"] == 1.0


# (argv with {tri}, {panel} and {out} placeholders, the flag the error names)
BAD_ARGUMENTS = [
    (["predict", "--triangle", "{tri}", "--method", "mle-boot", "--level", "1.5"], "--level"),
    (["bayes", "--triangle", "{tri}", "--level", "1.5",
      "--out", "{out}/d.csv", "--predict-out", "{out}/p.csv"], "--level"),
    (["benchmark", "--triangle", "{tri}", "--level", "0"], "--level"),
    (["gof", "--triangle", "{tri}", "--alpha", "1.5"], "--alpha"),
    (["gof", "--triangle", "{tri}", "--nboot", "0"], "--nboot"),
    (["predict", "--triangle", "{tri}", "--method", "mle-boot", "--nsim", "50"], "--nsim"),
    (["validate", "--panel", "{panel}", "--nsim", "50"], "--nsim"),
    (["predict", "--triangle", "{tri}", "--method", "bf", "--elr", "-0.5"], "--elr"),
    (["benchmark", "--triangle", "{tri}", "--elr", "0"], "--elr"),
    (["benchmark", "--triangle", "{tri}", "--elr", "inf"], "--elr"),
    (["predict", "--triangle", "{tri}", "--method", "bf"], "--elr"),
    (["predict", "--triangle", "{tri}", "--method", "expected"], "--elr"),
    (["validate", "--panel", "{panel}", "--methods", "foo"], "--methods"),
    (["validate", "--panel", "{panel}", "--methods", " , "], "--methods"),
    (["validate", "--panel", "{panel}", "--years", "0"], "--years"),
    (["fit", "--triangle", "{tri}", "--years", "0"], "--years"),
    (["fit", "--triangle", "{tri}", "--years", "ten"], "--years"),
    (["fit", "--triangle", "{tri}", "--years", "99"], "--years"),
    (["bayes", "--triangle", "{tri}"], "--out"),
    (["bayes", "--triangle", "{tri}", "--tail-alpha", "1.0", "--out", "{out}/d.csv"], "--tail-alpha"),
    (["bayes", "--triangle", "{tri}", "--tail-alpha", "0.95", "--out", "{out}/d.csv"], "--tail-alpha"),
    (["bayes", "--triangle", "{tri}", "--iterations", "100", "--out", "{out}/d.csv"], "--iterations"),
    (["predict", "--triangle", "{tri}", "--method", "bayes", "--chains", "0"], "--chains"),
    (["bayes", "--triangle", "{tri}", "--phi-hyper-cap", "-1", "--out", "{out}/d.csv"],
     "--phi-hyper-cap"),
    (["fit", "--triangle", "{tri}", "--out", "{out}/missing/fit.json"], "--out"),
    (["fit", "--triangle", "{tri}", "--out", "{out}"], "--out"),
    (["bayes", "--triangle", "{tri}", "--out", "{out}/d.csv",
      "--predict-out", "{out}/missing/p.csv"], "--predict-out"),
    (["bayes", "--triangle", "{tri}", "--out", "{out}/d.csv",
      "--predict-out", "{out}/./d.csv"], "--predict-out"),
    (["bayes", "--triangle", "{tri}", "--years", "10", "--iterations", "1003", "--warmup", "1000",
      "--chains", "2", "--out", "{out}/d.csv"], "--iterations"),
    (["gof", "--triangle", "{tri}", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize(
    "argv, flag", BAD_ARGUMENTS, ids=lambda x: " ".join(x) if isinstance(x, list) else x
)
def test_bad_argument_exits_two_before_any_work(argv, flag, fixture_path, panel_dir, tmp_path,
                                               monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for module, name in ((dr.mle, "fit_mle"), (dr.bayes, "run_mcmc"),
                         (dr.validation, "run_panel"), (dr.benchmarks, "cl_fit")):
        monkeypatch.setattr(module, name, forbidden)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(tri=fixture_path, panel=panel_dir, out=out) for a in argv]
    if "--out" not in argv and argv[0] != "bayes":
        argv += ["--out", str(out / "result")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # BayesSpec names its fields, which are the flags with underscores
    assert flag in err or flag[2:].replace("-", "_") in err
    assert list(out.iterdir()) == []


def test_cap_below_the_data_exits_two(fixture_path, tmp_path, monkeypatch, capsys):
    # the cap is checked against the loaded triangle, before any fitting
    def forbidden(*args, **kwargs):
        raise AssertionError("fit started with a cap below the data")

    monkeypatch.setattr(dr.mle, "fit_mle", forbidden)
    out = tmp_path / "d.csv"
    assert run(["bayes", "--triangle", fixture_path, "--phi-hyper-cap", "0.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phi_hyper_cap 0.5 ")
    assert "0.8437 (accident year 1990)" in err
    assert not out.exists()


@pytest.mark.parametrize("error", [
    dr.mle.ConvergenceError, dr.bootstrap.BootstrapError, dr.bayes.McmcError,
    dr.model.SupportError, np.linalg.LinAlgError, FloatingPointError,
])
def test_numerical_failure_exits_one(error, fixture_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error("the fit broke")

    monkeypatch.setattr(dr.mle, "fit_mle", failing)
    assert run(["fit", "--triangle", fixture_path, "--years", "10"]) == 1
    assert capsys.readouterr().err == "numerical failure: the fit broke\n"


@pytest.mark.parametrize("argv, stage", [
    (["fit"], "MLE fit"),
    (["gof"], "MLE fit"),
    (["predict", "--method", "mle-boot"], "MLE fit"),
    (["bayes", "--iterations", "1000", "--warmup", "500", "--chains", "1"],
     "start of the chains: MLE fit"),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_numerical_failure_names_the_stage(argv, stage, tmp_path, capsys):
    # two accident years whose profiled likelihood has no finite optimum
    tri = tmp_path / "two_rows.csv"
    tri.write_text("accident_year,premium,dev_1,dev_2\n2001,100,30,20\n2002,100,25,\n")
    out = tmp_path / "out"
    assert run([argv[0], "--triangle", tri, *argv[1:], "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"numerical failure: {stage} did not converge after 200 iterations (gradient norm 0.00294)\n"
    )
    assert not out.exists()


def test_every_exception_class_has_exactly_one_base():
    found = set()
    for info in pkgutil.iter_modules(dr.__path__):
        module = importlib.import_module(f"dirichlet_reserving.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.add(cls.__name__)
                assert issubclass(cls, dr.InputError) != issubclass(cls, dr.NumericalError), cls
    assert found >= {
        "InputError", "NumericalError", "UsageError", "TriangleError", "IdentificationError",
        "ConvergenceError", "BootstrapError", "McmcError", "SupportError",
    }

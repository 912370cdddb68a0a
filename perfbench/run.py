#!/usr/bin/env python3
"""Benchmark of the ``dirichlet-reserve`` command line.

    python3 perfbench/run.py --workload reserve --seed 1 --seconds 1 --trace 0

Runs one workload's jobs (lists of CLI calls made through
``dirichlet_reserving.cli.main`` in this process, one job at a time) until
``--seconds`` have passed, at least one job. Then checks every output
against ``oracles`` and prints, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. A
traced run times its untraced jobs first, then one job under ``tracing``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "dirichlet_reserving" / "data"
BUNDLED = DATA / "example_insurer.csv"
BUNDLED_HOLDOUT = DATA / "example_insurer_holdout.csv"
CONFTEST = ROOT / "tests" / "conftest.py"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import panel  # noqa: E402

# Job shapes. They are fixed for every seed; see README.md for the scan
# behind the Bayes run length.
RESERVE_YEARS = ("10", "all")
PREDICT_YEARS = "10"
ELR = 0.75
GOF_YEARS = "10"
GOF_NBOOT, GOF_ALPHA = 500, 0.05
BAYES = {"tail_alpha": 0.19, "iterations": 12000, "warmup": 3000, "chains": 1, "phi_hyper_cap": 10.0}
PANEL_COUNT_10 = 1
PANEL_NSIM = 400
BOOT_NSIM = 1000
DETERMINISM_NSIM = 100
SETUP_REPEATS = 5
MICRO_REPEATS = 5

WORKLOADS = ("reserve", "gof", "bayes", "panel")


# -- the workloads ----------------------------------------------------------

class Context:
    """Inputs shared by the jobs and the checks of one run."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.refs = inputs.reference_values(CONFTEST)
        self.bundled = inputs.read_triangle(BUNDLED)
        self.realized = inputs.realized_ultimates(self.bundled, inputs.read_holdout(BUNDLED_HOLDOUT))
        self.panel_dir = out / "panel"
        self.truth = {}
        if workload == "panel":
            self.truth = panel.write_panel(self.panel_dir, seed, self.bundled, self.refs, PANEL_COUNT_10)

    def input_files(self) -> tuple:
        """(triangle files, hold-out files) that the workload's calls read."""
        if self.workload != "panel":
            return [str(BUNDLED)], []
        names = sorted(self.truth)
        return ([str(self.panel_dir / f"{n}.csv") for n in names],
                [str(self.panel_dir / f"{n}_holdout.csv") for n in names])

    def subset(self, years: str):
        return self.bundled if years == "all" else self.bundled.last(int(years))


def job_calls(ctx: Context, job: Path) -> list:
    """(label, argv) of every CLI call of one job, in order."""
    tri = ["--triangle", str(BUNDLED), "--seed", str(ctx.seed)]
    calls = []
    if ctx.workload == "reserve":
        for y in RESERVE_YEARS:
            calls.append((f"fit_{y}", ["fit", *tri, "--years", y, "--out", str(job / f"fit_{y}.json")]))
            calls.append((f"benchmark_{y}", ["benchmark", *tri, "--years", y, "--elr", str(ELR),
                                             "--out", str(job / f"benchmark_{y}.json")]))
        calls.append(("predict", ["predict", *tri, "--years", PREDICT_YEARS, "--method", "mle-boot",
                                  "--out", str(job / "predict.csv")]))
    elif ctx.workload == "gof":
        calls.append(("gof", ["gof", *tri, "--years", GOF_YEARS, "--out", str(job / "gof.json")]))
    elif ctx.workload == "bayes":
        calls.append(("bayes", [
            "bayes", *tri, "--tail-alpha", str(BAYES["tail_alpha"]),
            "--iterations", str(BAYES["iterations"]), "--warmup", str(BAYES["warmup"]),
            "--chains", str(BAYES["chains"]),
            "--out", str(job / "draws.csv"), "--predict-out", str(job / "predict.csv"),
        ]))
    else:
        calls.append(("validate", ["validate", "--panel", str(ctx.panel_dir), "--methods", "dirichlet,cl",
                                   "--seed", str(ctx.seed), "--out", str(job / "validate.csv")]))
    return calls


def run_job(ctx: Context, job: Path, main) -> dict:
    """Make one job's calls; return its wall and CPU seconds (this process,
    every thread), exit codes and stderr."""
    job.mkdir(parents=True)
    results = {}
    start, cpu = time.perf_counter(), time.process_time()
    for label, argv in job_calls(ctx, job):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:  # a crash of the CLI is a failed call, as in a shell
                traceback.print_exc()
                code = 1
        results[label] = (code, err.getvalue())
    return {
        "dir": job,
        "seconds": time.perf_counter() - start,
        "cpu_seconds": time.process_time() - cpu,
        "calls": results,
    }


def failed_insurers(stderr: str) -> list:
    prefix = "warning: insurer "
    return [line[len(prefix):].split(" failed:")[0] for line in stderr.splitlines() if line.startswith(prefix)]


UNITS = ("boot_replicates", "gof_nulls", "mcmc_iterations", "insurers")
PRIMARY_UNIT = {"reserve": "boot_replicates", "gof": "gof_nulls", "bayes": "mcmc_iterations",
                "panel": "insurers"}


def operations(ctx: Context, job: dict):
    """(attempted, failed, work done by unit) of one job. An operation is
    a CLI call; in ``panel`` each insurer is one more."""
    attempted = failed = 0
    work = dict.fromkeys(UNITS, 0)
    for label, (code, err) in job["calls"].items():
        attempted += 1
        failed += code != 0
        if code != 0:
            continue
        if label == "predict":
            work["boot_replicates"] += 2 * BOOT_NSIM
        elif label == "gof":
            work["gof_nulls"] += GOF_NBOOT
        elif label == "bayes":
            work["mcmc_iterations"] += BAYES["chains"] * BAYES["iterations"]
        elif label == "validate":
            bad = failed_insurers(err)
            attempted += len(ctx.truth)
            failed += len(bad)
            work["insurers"] += len(ctx.truth) - len(bad)
            work["boot_replicates"] += 2 * PANEL_NSIM * (len(ctx.truth) - len(bad))
    return attempted, failed, work


# -- checks -----------------------------------------------------------------

def check_job(ctx: Context, job: dict, main) -> tuple:
    import checks  # imports scipy; only after peak_rss_mib is read

    fails, figures = [], {}
    d, ok = job["dir"], {label for label, (code, _) in job["calls"].items() if code == 0}
    if ctx.workload == "reserve":
        for y in RESERVE_YEARS:
            tri, years = ctx.subset(y), 10 if y == "10" else 18
            if f"fit_{y}" in ok:
                fails += checks.check_fit(f"fit {y}", checks.read_json(d / f"fit_{y}.json"), tri, ctx.refs, years)
            if f"benchmark_{y}" in ok:
                fails += checks.check_benchmark(
                    f"benchmark {y}", checks.read_json(d / f"benchmark_{y}.json"), tri, ctx.refs, years, ELR
                )
        if "predict" in ok:
            f, worst = checks.check_bootstrap_intervals(
                "predict", checks.read_intervals(d / "predict.csv"), ctx.subset(PREDICT_YEARS), ctx.refs,
                int(PREDICT_YEARS),
            )
            fails += f
            figures["interval_deviation"] = worst
    elif ctx.workload == "gof":
        if "gof" in ok:
            fit_path = d / "fit_for_gof.json"
            code = main(["fit", "--triangle", str(BUNDLED), "--years", GOF_YEARS, "--out", str(fit_path)])
            if code != 0:
                return fails + [f"fit for the gof check exited {code}"], figures
            res = checks.read_json(d / "gof.json")
            fails += checks.check_gof("gof", res, checks.read_json(fit_path), ctx.subset(GOF_YEARS),
                                      GOF_NBOOT, GOF_ALPHA)
            figures["null_region_and_t_obs"] = [res["lower"], res["t_obs"], res["upper"]]
    elif ctx.workload == "bayes":
        if "bayes" in ok:
            f, fig = checks.check_bayes("bayes", d / "draws.csv", d / "predict.csv", ctx.bundled,
                                        ctx.realized, ctx.refs, BAYES)
            fails += f
            figures.update(fig)
    elif "validate" in ok:
        triangles = {name: inputs.read_triangle(ctx.panel_dir / f"{name}.csv") for name in ctx.truth}
        bad = failed_insurers(job["calls"]["validate"][1])
        f, fig = checks.check_panel("validate", d / "validate.csv", triangles, ctx.truth, bad)
        fails += f
        figures.update(fig, failed_insurers=bad)
    return fails, figures


def check_determinism(ctx: Context, main) -> list:
    """Two bootstrap calls with the same seed must write identical bytes."""
    paths = [ctx.out / f"determinism_{i}.csv" for i in range(2)]
    for path in paths:
        code = main(["predict", "--triangle", str(BUNDLED), "--years", "10", "--method", "mle-boot",
                     "--nsim", str(DETERMINISM_NSIM), "--seed", str(ctx.seed), "--out", str(path)])
        if code != 0:
            return [f"determinism call exited {code}"]
    if paths[0].read_bytes() != paths[1].read_bytes():
        return ["two predict calls with the same seed wrote different bytes"]
    return []


# -- measurement ------------------------------------------------------------

SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
from dirichlet_reserving import cli, triangle, validation
for path in {triangles!r}:
    triangle.to_loss_ratios(triangle.load_triangle(path))
for path in {holdouts!r}:
    validation.load_holdout(path)
"""


def measure_setup(ctx: Context) -> tuple:
    """Median CPU and wall seconds of a fresh interpreter that imports the
    package and loads the workload's input files."""
    triangles, holdouts = ctx.input_files()
    code = SETUP_CODE.format(src=str(SRC), triangles=triangles, holdouts=holdouts)
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=60)
        wall.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(cpu), statistics.median(wall)


def micro_timings(dr) -> dict:
    """Median time per call of isolated public functions, untraced."""
    from dirichlet_reserving import bootstrap, gof, mle, special

    lr10 = dr.to_loss_ratios(dr.most_recent_years(dr.load_triangle(str(BUNDLED)), 10))
    theta = mle.fit_mle(lr10).theta_hat
    a = theta.a
    tails = a.sum() + 1.0 - np.cumsum(a)[:-1]
    v22 = np.concatenate((a, [a.sum() + 1.0], tails, [2.0, 3.0]))  # 22 values of MCMC size
    v21000 = np.random.default_rng(0).uniform(0.5, 2000.0, size=(1000, 21))
    x = float(lr10.ratios[0, 0] / theta.phi[0])
    tail = float(a[1:].sum() + theta.b_n)

    def once_bootstrap():
        bootstrap.bootstrap_once(theta, lr10, np.random.default_rng(1))

    cases = {
        "special.log_gamma.us_n22": (lambda: special.log_gamma(v22), 1e6),
        "special.log_gamma.us_n21000": (lambda: special.log_gamma(v21000), 1e6),
        "special.digamma.us_n22": (lambda: special.digamma(v22), 1e6),
        "special.trigamma.us_n22": (lambda: special.trigamma(v22), 1e6),
        "gof.regularized_incomplete_beta.us": (
            lambda: gof.regularized_incomplete_beta(x, float(a[0]), tail), 1e6
        ),
        "mle.fit_mle.ms_10y": (lambda: mle.fit_mle(lr10), 1e3),
        "bootstrap.bootstrap_once.ms_10y": (once_bootstrap, 1e3),
        "gof.pit_transform.ms_10y": (lambda: gof.pit_transform(theta, lr10), 1e3),
    }
    out = {}
    for name, (fn, scale) in cases.items():
        fn()
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        reps = max(1, int(0.04 / max(once, 1e-7)))
        per_call = []
        for _ in range(MICRO_REPEATS):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            per_call.append((time.perf_counter() - start) / reps)
        out[name] = statistics.median(per_call) * scale
    return out


def layer_metrics(tracer, job: dict, figures: dict, untraced_seconds: float) -> dict:
    import tracing

    spans = tracer.spans()
    totals = tracing.layer_totals(spans)
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = (t["calls"], "count")
        out[f"{name}.self_s"] = (t["self_s"], "s")
        if name in tracing.SPECIAL:
            out[f"{name}.elements"] = (t["extra"], "count")
    events = {}
    for label, value in tracer.events:
        events.setdefault(label, []).append(value)
    boots = events.get("bootstrap", [])
    kept = sum(2 * n for n, _ in boots)
    attempts = totals["bootstrap.bootstrap_once"]["calls"]
    gof_refits = totals["mle._fit_arrays"]["calls"] if events.get("gof") else 0
    ess = figures.get("min_bulk_ess", 0.0)
    out.update({
        "mle.newton_iterations": (sum(events.get("newton_iterations", [])), "count"),
        "bootstrap.failed_refits": (sum(f for _, f in boots), "count"),
        "bootstrap.refit_yield": (kept / attempts if attempts else 0.0, "ratio"),
        "gof.refit_retries": (gof_refits - sum(events.get("gof", [])), "count"),
        "bayes.acceptance_min": (min(events.get("acceptance", [0.0])), "ratio"),
        "bayes.min_bulk_ess": (ess, "count"),
        "bayes.min_bulk_ess_per_s": (ess / untraced_seconds if ess else 0.0, "1/s"),
        "validation.failed_insurers": (sum(events.get("failed_insurers", [])), "count"),
        "trace.spans": (int(spans["id"].size), "count"),
        "trace.overhead_s": (job["seconds"] - untraced_seconds, "s"),
    })
    return out


# -- main -------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "dirichlet_reserving" / "__init__.py", BUNDLED, BUNDLED_HOLDOUT, CONFTEST)
               if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dirichlet_reserving as dr
    from dirichlet_reserving import cli

    if Path(dr.__file__).resolve().parent != (SRC / "dirichlet_reserving").resolve():
        print(f"error: imported {dr.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, out)
    setup_cpu_s, setup_wall_s = measure_setup(ctx)

    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < args.seconds:
        jobs.append(run_job(ctx, out / f"job{len(jobs)}", cli.main))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_s = statistics.median(j["seconds"] for j in jobs)
    job_cpu_s = statistics.median(j["cpu_seconds"] for j in jobs)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(dr)
        with tracer:
            jobs.append(run_job(ctx, out / "traced", tracer.wrap("cli.main", cli.main)))
        tracer.save(out / "spans.npz")

    counts = [operations(ctx, job) for job in jobs]
    attempted = sum(c[0] for c in counts)
    failed = sum(c[1] for c in counts)
    untraced = len(jobs) - bool(tracer)
    work = {unit: sum(c[2][unit] for c in counts[:untraced]) for unit in UNITS}
    wall_s = sum(j["seconds"] for j in jobs[:untraced])
    cpu_s = sum(j["cpu_seconds"] for j in jobs[:untraced])
    rates = {f"{unit}_per_s": count / wall_s for unit, count in work.items() if count}
    rates.update({f"{unit}_per_cpu_s": count / cpu_s for unit, count in work.items() if count})

    fails, figures = [], {}
    for job in jobs:
        try:
            f, figures = check_job(ctx, job, cli.main)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            f = [f"unreadable output in {job['dir'].name}: {exc!r}"]
        fails += f
    if args.workload == "reserve":
        fails += check_determinism(ctx, cli.main)

    if tracer:
        metrics = layer_metrics(tracer, jobs[-1], figures, job_s)
        metrics.update({name: (value, "us" if ".us" in name else "ms") for name, value in micro_timings(dr).items()})
    else:
        metrics = {
            "setup_s": (setup_cpu_s, "s"),
            "job_cpu_s": (job_cpu_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "work_per_cpu_s": (work[PRIMARY_UNIT[args.workload]] / cpu_s, "1/s"),
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "job_s": job_s,
        "setup_wall_s": setup_wall_s,
        "job_seconds": [round(j["seconds"], 4) for j in jobs],
        "job_cpu_seconds": [round(j["cpu_seconds"], 4) for j in jobs],
        "work": work,
        "rates": rates,
        "figures": figures,
        "check_failures": fails,
    }
    (out / "detail.json").write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    for job in jobs:
        shutil.rmtree(job["dir"], ignore_errors=True)
    result = json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    (out / "result.json").write_text(result + "\n", encoding="utf-8")
    print(json.dumps(detail, default=str))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

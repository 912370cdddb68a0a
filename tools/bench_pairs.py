#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --base REV --head REV --workdir DIR --out BENCH.json [--seed0 1000]

Exports the committed files of both revisions with ``git archive`` into
``DIR/base`` and ``DIR/head`` (an export, unlike a worktree, leaves nothing
registered in the repository, and the benchmark measures committed files
only). Then, for each of the four workloads and each of 10 pairs i, runs

    python3 perfbench/run.py --workload W --seed SEED0+i --seconds S --trace 0

with S the ``run_seconds`` of ``BENCHMARK.json``, in both trees, one run
at a time, alternating which side runs first. The output holds, per
workload and side, the median and quartiles of every end-to-end metric,
the share of failed operations and the share of runs whose checks
passed; per metric, the pairs the head won, its relative change against
the base median, whether that change stays inside the bound that
``BENCHMARK.json`` fixes, and whether the medians differ by more than
the base's interquartile distance. It also records both commit hashes
and the hashes of their ``src/`` trees, the per-module line counts of
``src/`` and every raw run.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reserve", "gof", "bayes", "panel")
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of ``rev`` into ``dest``; return its hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def source_lines(tree: Path) -> dict:
    counts = {
        str(p.relative_to(tree / "src")): len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((tree / "src").rglob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "exit": proc.returncode, "error": proc.stderr[-2000:]}
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list) -> dict:
    lo, mid, hi = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": mid, "q1": lo, "q3": hi, "n": len(values)}


def compare(base_runs: list, head_runs: list, spec: dict) -> dict:
    out = {}
    ok_pairs = [(b, h) for b, h in zip(base_runs, head_runs) if "metrics" in b and "metrics" in h]
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name] for b, _ in ok_pairs]
        head = [h["metrics"][name] for _, h in ok_pairs]
        if not base:
            continue
        sb, sh = summary(base), summary(head)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        change = (sh["median"] - sb["median"]) / sb["median"]
        worse_by = change if lower else -change
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": sb,
            "head": sh,
            "head_wins": wins,
            "pairs": len(base),
            "relative_change": change,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "beyond_base_iqr": abs(sh["median"] - sb["median"]) > sb["q3"] - sb["q1"],
        }
    return out


def side_totals(runs: list) -> dict:
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return {
        "runs": len(runs),
        "runs_correct": sum(bool(r.get("correct")) for r in runs),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="revision measured as the parent")
    p.add_argument("--head", required=True, help="revision measured as the change")
    p.add_argument("--workdir", required=True, type=Path, help="directory for the two exported trees")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed0", type=int, default=1000)
    args = p.parse_args(argv)

    trees = {"base": args.workdir / "base", "head": args.workdir / "head"}
    commits = {side: export(rev, trees[side]) for side, rev in (("base", args.base), ("head", args.head))}
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report = {
        "commits": commits,
        "src_trees": {side: git("rev-parse", f"{c}:src").strip() for side, c in commits.items()},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0" % seconds,
        "pairs": PAIRS,
        "seeds": [args.seed0 + i for i in range(PAIRS)],
        "source_lines": {side: source_lines(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "first_side": ["base" if i % 2 == 0 else "head" for i in range(PAIRS)],
            "operations": {side: side_totals(r) for side, r in runs.items()},
            "metrics": compare(runs["base"], runs["head"], spec),
            "runs": runs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

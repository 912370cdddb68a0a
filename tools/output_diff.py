#!/usr/bin/env python3
"""Compare the CLI outputs of two revisions, file by file.

    python3 tools/output_diff.py --base REV --head REV --workdir DIR

Exports the committed files of both revisions into ``DIR/base`` and
``DIR/head`` (as ``tools/bench_pairs.py`` does) and copies the bundled
triangle and hold-out, once, into ``DIR/panel``, so that both trees read
the same paths: the configuration headers of the outputs embed them. Then
each tree runs the same fixed list of CLI calls, writing into
``DIR/out/base`` and ``DIR/out/head``:

* ``fit``, ``benchmark --elr 0.75`` and ``predict --method
  cl|bf|expected|mle-boot`` (``bf`` and ``expected`` at ``--elr 0.75``),
  each at ``--years 10`` and ``all``;
* ``predict --method mle-boot --years 10 --nsim 1100``: two full refit
  batches and a partial one;
* ``gof --years 10`` and ``gof --years all``, the only GOF null on the
  18-row mask;
* ``bayes`` at the one-chain configuration of ``perfbench/run.py``
  (``--tail-alpha 0.19 --iterations 12000 --warmup 3000 --chains 1``),
  with ``--predict-out``, at seed 1000 and at seed 1001: the first never
  reaches the scale draw's envelope fallback, the second reaches it once;
* ``bayes --tail-alpha 0.19 --iterations 4000 --warmup 1500 --chains 2``
  with ``--predict-out`` at seed 1001, where the second chain restarts the
  state the first one left (seed 1000 fails the R-hat gate there);
* ``validate`` on the one-insurer panel ``DIR/panel`` at 10 and all years.

Every other call runs at seed 0. For each output file it prints
``identical``, ``missing on base``, ``missing on head`` or ``missing on
both``, or the count of numbers that moved and the largest absolute
difference among them, or that the text around the numbers differs. It
exits 1 when any exit code differs or any file is neither ``identical``
nor ``missing on both``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from bench_pairs import export

# a number as the CLI writes it: repr of a float or an int, JSON's NaN and Infinity
NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|NaN|Infinity))")
BAYES = ["--tail-alpha", "0.19", "--iterations", "12000", "--warmup", "3000", "--chains", "1"]
BAYES_2 = ["--tail-alpha", "0.19", "--iterations", "4000", "--warmup", "1500", "--chains", "2"]


def calls(panel: Path, out: Path) -> list:
    """(output files, CLI arguments) of every call, in run order."""
    tri = ["--triangle", str(panel / "example.csv")]
    runs = []
    for y in ("10", "all"):
        common = [*tri, "--years", y, "--seed", "0"]
        runs.append(([f"fit_{y}.json"], ["fit", *common]))
        runs.append(([f"benchmark_{y}.json"], ["benchmark", *common, "--elr", "0.75"]))
        for method in ("cl", "bf", "expected", "mle-boot"):
            elr = ["--elr", "0.75"] if method in ("bf", "expected") else []
            runs.append(([f"predict_{method}_{y}.csv"], ["predict", *common, "--method", method, *elr]))
        runs.append(([f"validate_{y}.csv"], ["validate", "--panel", str(panel), "--years", y,
                                            "--seed", "0"]))
    runs.append((["predict_mle-boot_10_nsim1100.csv"], ["predict", *tri, "--years", "10", "--seed", "0",
                                                       "--method", "mle-boot", "--nsim", "1100"]))
    for y in ("10", "all"):
        runs.append(([f"gof_{y}.json"], ["gof", *tri, "--years", y, "--seed", "0"]))
    for name, config, seed in (("bayes", BAYES, "1000"), ("bayes", BAYES, "1001"),
                               ("bayes_2chains", BAYES_2, "1001")):
        draws, predict = f"{name}_draws_{seed}.csv", f"{name}_predict_{seed}.csv"
        runs.append(([draws, predict], ["bayes", *tri, *config, "--seed", seed,
                                        "--predict-out", str(out / predict)]))
    return [(files, [*args, "--out", str(out / files[0])]) for files, args in runs]


def run_tree(tree: Path, panel: Path, out: Path) -> dict:
    """Run every call in ``tree``; return the exit code per first output file."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("RESERVE_SEED", None)
    codes = {}
    for files, args in calls(panel, out):
        proc = subprocess.run([sys.executable, "-m", "dirichlet_reserving.cli", *args], cwd=tree,
                              env=env, capture_output=True, text=True)
        codes[files[0]] = proc.returncode
        if proc.returncode:
            print(f"{tree.name}: {' '.join(args[:1])} {files[0]} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
    return codes


def compare(base: Path, head: Path) -> str:
    """``identical``, or what moved between the two files."""
    missing = [side for side, path in (("base", base), ("head", head)) if not path.exists()]
    if missing:
        return "missing on " + ("both" if len(missing) == 2 else missing[0])
    a, b = base.read_text(encoding="utf-8"), head.read_text(encoding="utf-8")
    if a == b:
        return "identical"
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    # odd positions hold the numbers, even ones the text between them
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return "text differs"
    moved = [abs(float(x) - float(y)) for x, y in zip(pa[1::2], pb[1::2]) if x != y]
    return f"{len(moved)} numbers moved, largest absolute difference {max(moved):.3g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="revision measured as the parent")
    p.add_argument("--head", required=True, help="revision measured as the change")
    p.add_argument("--workdir", required=True, type=Path, help="directory for the trees and outputs")
    args = p.parse_args(argv)

    workdir = args.workdir.resolve()
    trees = {side: workdir / side for side in ("base", "head")}
    for side, rev in (("base", args.base), ("head", args.head)):
        print(f"{side}: {export(rev, trees[side])}")
    panel = workdir / "panel"
    shutil.rmtree(panel, ignore_errors=True)
    panel.mkdir()
    data = trees["head"] / "src" / "dirichlet_reserving" / "data"
    shutil.copy(data / "example_insurer.csv", panel / "example.csv")
    shutil.copy(data / "example_insurer_holdout.csv", panel / "example_holdout.csv")

    outs = {side: workdir / "out" / side for side in trees}
    codes = {side: run_tree(trees[side], panel, outs[side]) for side in trees}
    same = True
    for files, _ in calls(panel, outs["head"]):
        if codes["base"][files[0]] != codes["head"][files[0]]:
            print(f"{files[0]}: exit {codes['base'][files[0]]} -> {codes['head'][files[0]]}")
            same = False
        for name in files:
            verdict = compare(outs["base"] / name, outs["head"] / name)
            print(f"{name}: {verdict}")
            same &= verdict in ("identical", "missing on both")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

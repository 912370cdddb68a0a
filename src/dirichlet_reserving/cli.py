"""Command-line front end.

Subcommands: fit, predict, gof, bayes, benchmark, validate. Scalar and
structured results are written as JSON, tabular output as CSV with the
resolved configuration embedded in ``#`` comment lines; re-running with
the same configuration reproduces output files byte for byte.

Check first: :func:`_check` resolves the seed (falling back to the
RESERVE_SEED environment variable) and rejects every bad option value and
unwritable output before any work starts, creating no file. Then the
triangle is loaded and cut to ``--years`` once, and the subcommand runs as
``cmd(args, lr)``, building its configuration with :func:`_config`.

Exit status: 0 on success; 2 on an ``errors.InputError`` (bad arguments or
input data) or an ``OSError``; 1 on an ``errors.NumericalError`` (a failed
fit, bootstrap or sampler, a configuration outside the model's support), a
``LinAlgError`` or an ``ArithmeticError``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, bayes, benchmarks, bootstrap, gof, mle, validation
from .errors import InputError, NumericalError
from .model import dev_factor, dev_quota, tail_factor
from .triangle import load_triangle, most_recent_years, to_loss_ratios

INTERVAL_HEADER = "accident_year,method,point,lo95,hi95"
BAYES_KEYS = ("tail_alpha", "iterations", "warmup", "chains", "phi_hyper_cap")
# config keys of predict beyond the common ones, per method
PREDICT_KEYS = {
    "mle-boot": ("nsim",),
    "bayes": BAYES_KEYS,
    "cl": (),
    "bf": ("elr",),
    "expected": ("elr",),
}
# option -> (test of its value, what the test asks), checked where present
RANGES = {
    "level": (lambda v: 0.0 < v < 1.0, "inside (0, 1)"),
    "alpha": (lambda v: 0.0 < v < 1.0, "inside (0, 1)"),
    "nsim": (lambda v: v >= 100, "at least 100"),
    "nboot": (lambda v: v >= 1, "at least 1"),
    "elr": (lambda v: v is None or 0.0 < v < np.inf, "positive and finite"),
    "seed": (lambda v: v >= 0, "non-negative (from the flag or RESERVE_SEED)"),
}


class UsageError(InputError):
    """A command-line argument outside its domain."""


def _need(ok, message):
    if not ok:
        raise UsageError(message)


def _check(args):
    """Reject bad option values and unwritable outputs before any work,
    creating no file; resolve the seed, parse ``--years`` and ``--methods``."""
    if args.years in (None, "all"):
        args.years = None
    else:
        positive = args.years.isdecimal() and int(args.years) >= 1
        _need(positive, f"--years must be a positive integer or 'all', got {args.years!r}")
        args.years = int(args.years)
    args.seed = _resolve_seed(args)
    for name, (ok, what) in RANGES.items():
        if hasattr(args, name):
            value = getattr(args, name)
            _need(ok(value), f"--{name} must be {what}, got {value}")
    method = getattr(args, "method", None)
    _need(
        method not in ("bf", "expected") or args.elr is not None,
        f"--method {method} requires --elr (externally expected loss ratio)",
    )
    if hasattr(args, "tail_alpha"):
        _spec(args)
    if args.subcommand == "bayes":
        _need(args.out is not None, "bayes requires --out for the draws CSV")
        same = args.predict_out and os.path.abspath(args.predict_out) == os.path.abspath(args.out)
        _need(not same, f"--out and --predict-out name the same file {args.out}")
    if args.subcommand == "validate":
        methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
        known = validation.PANEL_METHODS
        _need(
            methods and set(methods) <= set(known),
            f"--methods must list one or more of {','.join(known)}, got {args.methods!r}",
        )
        args.methods = methods
    for flag, path in (("--out", args.out), ("--predict-out", getattr(args, "predict_out", None))):
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        _need(not os.path.isdir(path), f"{flag} {path} is a directory")
        _need(os.access(folder, os.W_OK), f"{flag} {path}: no writable folder {folder}")


def _spec(args):
    return bayes.BayesSpec(**{name: getattr(args, name) for name in BAYES_KEYS})


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RESERVE_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"RESERVE_SEED must be an integer, got {env!r}") from None


def _load(args):
    """Load ``--triangle``, cut it to ``--years`` and set ``args.years`` to
    the count used; returns the loss-ratio triangle."""
    tri = load_triangle(args.triangle)
    if args.years is None:
        args.years = tri.m
    _need(args.years <= tri.m, f"--years {args.years} exceeds the {tri.m} accident years")
    if args.years != tri.m:
        tri = most_recent_years(tri, args.years)
    return to_loss_ratios(tri)


def _config(args, *names):
    """The resolved options that reproduce an output: years, seed and ``names``."""
    return {name: getattr(args, name) for name in ("years", "seed", *names)}


def _emit_json(out, subcommand, config, result):
    payload = {
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "result": result,
    }
    _write(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_csv(out, subcommand, config, header, rows):
    lines = [
        f"# version={__version__}",
        f"# subcommand={subcommand}",
        "# config=" + json.dumps(config, sort_keys=True),
        header,
        *rows,
    ]
    _write(out, "\n".join(lines) + "\n")


def _write(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _interval_rows(records, method):
    return [
        f"{r['accident_year']},{method},{float(r['point'])!r},"
        f"{float(r['lo'])!r},{float(r['hi'])!r}"
        for r in records
    ]


def _run_bayes(args, lr):
    ps = bayes.run_mcmc(lr, _spec(args), seed=args.seed)
    for w in ps.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return ps


def _bayes_rows(args, lr, ps):
    pd = bayes.posterior_predict(ps, lr, seed=args.seed)
    return _interval_rows(bootstrap.summarize(pd, args.level), "bayes")


def cmd_fit(args, lr):
    fit = mle.fit_mle(lr)
    theta = fit.theta_hat
    result = {
        "a": theta.a.tolist(),
        "b_n": theta.b_n,
        "phi": theta.phi.tolist(),
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
        "accident_years": list(fit.years),
        "dev_factors": [dev_factor(theta, k) for k in range(1, lr.n)],
        "dev_quotas": [dev_quota(theta, k) for k in range(1, lr.n + 1)],
        "tail_factor": tail_factor(theta),
    }
    _emit_json(args.out, "fit", _config(args, "triangle"), result)


def cmd_predict(args, lr):
    method = args.method
    config = _config(args, "triangle", "method", "level", *PREDICT_KEYS[method])
    if method in ("mle-boot", "cl"):
        panel_method = "dirichlet" if method == "mle-boot" else "cl"
        records = validation.predict_intervals(lr, panel_method, args.nsim, args.seed, args.level)
        rows = _interval_rows(records, method)
    elif method == "bayes":
        rows = _bayes_rows(args, lr, _run_bayes(args, lr))
    else:
        predictions = _elr_predictions(lr, benchmarks.cl_fit(lr), method, args.elr)
        rows = [f"{p.year},{method},{float(p.ultimate)!r},," for p in predictions]
    _emit_csv(args.out, "predict", config, INTERVAL_HEADER, rows)


def cmd_gof(args, lr):
    result = gof.gof_test(lr, alpha=args.alpha, n_boot=args.nboot, seed=args.seed)
    config = _config(args, "triangle", "alpha", "nboot")
    _emit_json(args.out, "gof", config, gof.to_json_dict(result))


def cmd_bayes(args, lr):
    ps = _run_bayes(args, lr)
    bayes.draws_to_csv(ps, args.out)
    if args.predict_out:
        config = _config(args, "triangle", "level", *BAYES_KEYS)
        _emit_csv(args.predict_out, "bayes", config, INTERVAL_HEADER, _bayes_rows(args, lr, ps))


def _elr_predictions(lr, fit, method, elr):
    """Bornhuetter-Ferguson (``bf``) or expected-method predictions per year."""
    if method == "bf":
        return [benchmarks.bf_predict(fit, lr, i, elr) for i in range(1, lr.m + 1)]
    return [benchmarks.expected_method(lr, i, elr) for i in range(1, lr.m + 1)]


def _reserve_record(p):
    return {"accident_year": p.year, "point": p.ultimate, "reserve": p.reserve}


def cmd_benchmark(args, lr):
    fit = benchmarks.cl_fit(lr)
    result = {
        "factors": fit.factors.tolist(),
        "factor_se": fit.factor_se.tolist(),
        "quotas": [fit.quota(k) for k in range(1, lr.n + 1)],
        "chain_ladder": [
            {**_reserve_record(p), "lo": p.lo, "hi": p.hi} for p in fit.predictions(args.level)
        ],
    }
    if args.elr is not None:
        for key, method in (("bornhuetter_ferguson", "bf"), ("expected", "expected")):
            result[key] = [_reserve_record(p) for p in _elr_predictions(lr, fit, method, args.elr)]
    _emit_json(args.out, "benchmark", _config(args, "triangle", "level", "elr"), result)


def cmd_validate(args, lr):
    report = validation.run_panel(
        args.panel, methods=args.methods, years=args.years, n_sim=args.nsim, seed=args.seed
    )
    for name, msg in report.failures:
        print(f"warning: insurer {name} failed: {msg}", file=sys.stderr)
    rows = validation.report_lines(report)
    config = _config(args, "panel", "methods", "nsim")
    _emit_csv(args.out, "validate", config, validation.REPORT_HEADER, rows)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dirichlet-reserve",
        description="Dirichlet loss reserving on run-off triangles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, data="--triangle", data_help="training triangle CSV"):
        p = sub.add_parser(name, help=help)
        p.add_argument(data, required=True, help=data_help)
        p.add_argument("--years", default=None, help="most recent accident years to use, or 'all'")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: RESERVE_SEED or 0)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.set_defaults(func=func)
        return p

    def bayes_options(p):
        p.add_argument("--tail-alpha", type=float, default=None)
        p.add_argument("--iterations", type=int, default=20000)
        p.add_argument("--warmup", type=int, default=5000)
        p.add_argument("--chains", type=int, default=4)
        p.add_argument("--phi-hyper-cap", type=float, default=10.0)
        p.add_argument("--level", type=float, default=0.95)

    command("fit", cmd_fit, "maximum likelihood fit")

    p = command("predict", cmd_predict, "per accident year point and interval predictions")
    p.add_argument("--method", required=True, choices=list(PREDICT_KEYS))
    p.add_argument("--nsim", type=int, default=1000)
    p.add_argument("--elr", type=float, default=None, help="externally expected ultimate loss ratio")
    bayes_options(p)

    p = command("gof", cmd_gof, "goodness-of-fit test")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--nboot", type=int, default=500)

    p = command("bayes", cmd_bayes, "hierarchical Bayesian inference")
    bayes_options(p)
    p.add_argument("--predict-out", default=None, help="also write predictive intervals CSV")

    p = command("benchmark", cmd_benchmark, "Chain-Ladder and Bornhuetter-Ferguson comparators")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--elr", type=float, default=None)

    p = command(
        "validate", cmd_validate, "hold-out evaluation over a panel of insurers",
        data="--panel", data_help="directory of <name>.csv / <name>_holdout.csv pairs",
    )
    p.add_argument("--methods", default="dirichlet,cl")
    p.add_argument("--nsim", type=int, default=400)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        lr = None if args.subcommand == "validate" else _load(args)
        args.func(args, lr)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

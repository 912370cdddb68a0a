"""Command-line front end.

Subcommands: fit, predict, gof, bayes, benchmark, validate. Scalar and
structured results are written as JSON, tabular output as CSV with the
resolved configuration embedded in ``#`` comment lines; re-running with
the same configuration reproduces output files byte for byte.

Exit status: 0 on success, 1 on numerical or convergence failure, 2 on
usage or input errors. The seed falls back to the RESERVE_SEED
environment variable when no --seed flag is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, bayes, benchmarks, bootstrap, gof, mle, validation
from .model import SupportError, dev_factor, dev_quota, tail_factor
from .triangle import TriangleError, load_triangle, most_recent_years, to_loss_ratios


class UsageError(ValueError):
    pass


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RESERVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"RESERVE_SEED must be an integer, got {env!r}") from None
    return 0


def _years_arg(raw: str | None, m: int):
    if raw is None or raw == "all":
        return m
    try:
        years = int(raw)
    except ValueError:
        raise UsageError(f"--years must be an integer or 'all', got {raw!r}") from None
    if not 1 <= years <= m:
        raise UsageError(f"--years {years} out of range for a triangle with {m} accident years")
    return years


def _load(args, years_attr="years"):
    tri = load_triangle(args.triangle)
    years = _years_arg(getattr(args, years_attr, None), tri.m)
    if years != tri.m:
        tri = most_recent_years(tri, years)
    return tri, years


def _emit_json(out, subcommand, config, result):
    payload = {
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "result": result,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(out, text)


def _emit_csv(out, subcommand, config, header, rows):
    lines = [
        f"# version={__version__}",
        f"# subcommand={subcommand}",
        "# config=" + json.dumps(config, sort_keys=True),
        header,
    ]
    lines.extend(rows)
    _write(out, "\n".join(lines) + "\n")


def _write(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_fit(args):
    tri, years = _load(args)
    seed = _resolve_seed(args)
    lr = to_loss_ratios(tri)
    fit = mle.fit_mle(lr)
    theta = fit.theta_hat
    config = {"triangle": str(args.triangle), "years": years, "seed": seed}
    result = {
        "a": theta.a.tolist(),
        "b_n": theta.b_n,
        "phi": theta.phi.tolist(),
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
        "accident_years": list(fit.years),
        "dev_factors": [dev_factor(theta, k) for k in range(1, tri.n)],
        "dev_quotas": [dev_quota(theta, k) for k in range(1, tri.n + 1)],
        "tail_factor": tail_factor(theta),
    }
    _emit_json(args.out, "fit", config, result)
    return 0


def _interval_rows(records, method):
    return [
        f"{r['accident_year']},{method},{float(r['point'])!r},"
        f"{float(r['lo'])!r},{float(r['hi'])!r}"
        for r in records
    ]


def _run_bayes(args, lr, seed):
    spec = bayes.BayesSpec(
        tail_alpha=args.tail_alpha,
        iterations=args.iterations,
        warmup=args.warmup,
        chains=args.chains,
        phi_hyper_cap=args.phi_hyper_cap,
    )
    ps = bayes.run_mcmc(lr, spec, seed=seed)
    for w in ps.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return ps


def cmd_predict(args):
    tri, years = _load(args)
    seed = _resolve_seed(args)
    lr = to_loss_ratios(tri)
    config = {
        "triangle": str(args.triangle),
        "years": years,
        "seed": seed,
        "method": args.method,
        "level": args.level,
    }
    if args.method in ("bf", "expected") and args.elr is None:
        raise UsageError(f"--method {args.method} requires --elr (externally expected loss ratio)")
    header = "accident_year,method,point,lo95,hi95"
    if args.method == "mle-boot":
        config["nsim"] = args.nsim
        fit = mle.fit_mle(lr)
        pd = bootstrap.bias_corrected_bootstrap(fit.theta_hat, lr, n_sim=args.nsim, seed=seed)
        rows = _interval_rows(bootstrap.summarize(pd, args.level), "mle-boot")
    elif args.method == "bayes":
        config.update(
            {
                "iterations": args.iterations,
                "warmup": args.warmup,
                "chains": args.chains,
                "tail_alpha": args.tail_alpha,
            }
        )
        ps = _run_bayes(args, lr, seed)
        pd = bayes.posterior_predict(ps, lr, seed=seed)
        rows = _interval_rows(bootstrap.summarize(pd, args.level), "bayes")
    elif args.method == "cl":
        fit = benchmarks.cl_fit(lr)
        rows = [
            f"{p.year},cl,{float(p.ultimate)!r},{float(p.lo)!r},{float(p.hi)!r}"
            for p in fit.predictions(args.level)
        ]
    elif args.method in ("bf", "expected"):
        config["elr"] = args.elr
        fit = benchmarks.cl_fit(lr)
        rows = []
        for i in range(lr.m):
            if args.method == "bf":
                p = benchmarks.bf_predict(fit, lr, i + 1, args.elr)
            else:
                p = benchmarks.expected_method(lr, i + 1, args.elr)
            rows.append(f"{p.year},{args.method},{float(p.ultimate)!r},,")
    else:
        raise UsageError(f"unknown prediction method {args.method!r}")
    _emit_csv(args.out, "predict", config, header, rows)
    return 0


def cmd_gof(args):
    tri, years = _load(args)
    seed = _resolve_seed(args)
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must be inside (0, 1), got {args.alpha}")
    lr = to_loss_ratios(tri)
    result = gof.gof_test(lr, alpha=args.alpha, n_boot=args.nboot, seed=seed)
    config = {
        "triangle": str(args.triangle),
        "years": years,
        "seed": seed,
        "alpha": args.alpha,
        "nboot": args.nboot,
    }
    _emit_json(args.out, "gof", config, gof.to_json_dict(result))
    return 0


def cmd_bayes(args):
    if args.out is None:
        raise UsageError("bayes requires --out for the draws CSV")
    tri, years = _load(args)
    seed = _resolve_seed(args)
    lr = to_loss_ratios(tri)
    ps = _run_bayes(args, lr, seed)
    bayes.draws_to_csv(ps, args.out)
    if args.predict_out:
        pd = bayes.posterior_predict(ps, lr, seed=seed)
        config = {
            "triangle": str(args.triangle),
            "years": years,
            "seed": seed,
            "tail_alpha": args.tail_alpha,
            "iterations": args.iterations,
            "warmup": args.warmup,
            "chains": args.chains,
            "level": args.level,
        }
        rows = _interval_rows(bootstrap.summarize(pd, args.level), "bayes")
        _emit_csv(args.predict_out, "bayes", config, "accident_year,method,point,lo95,hi95", rows)
    return 0


def cmd_benchmark(args):
    tri, years = _load(args)
    seed = _resolve_seed(args)
    lr = to_loss_ratios(tri)
    fit = benchmarks.cl_fit(lr)
    config = {
        "triangle": str(args.triangle),
        "years": years,
        "seed": seed,
        "level": args.level,
        "elr": args.elr,
    }
    result = {
        "factors": fit.factors.tolist(),
        "factor_se": fit.factor_se.tolist(),
        "quotas": [fit.quota(k) for k in range(1, lr.n + 1)],
        "chain_ladder": [
            {
                "accident_year": p.year,
                "point": p.ultimate,
                "reserve": p.reserve,
                "lo": p.lo,
                "hi": p.hi,
            }
            for p in fit.predictions(args.level)
        ],
    }
    if args.elr is not None:
        result["bornhuetter_ferguson"] = []
        result["expected"] = []
        for i in range(lr.m):
            bf = benchmarks.bf_predict(fit, lr, i + 1, args.elr)
            ex = benchmarks.expected_method(lr, i + 1, args.elr)
            result["bornhuetter_ferguson"].append(
                {"accident_year": bf.year, "point": bf.ultimate, "reserve": bf.reserve}
            )
            result["expected"].append(
                {"accident_year": ex.year, "point": ex.ultimate, "reserve": ex.reserve}
            )
    _emit_json(args.out, "benchmark", config, result)
    return 0


def cmd_validate(args):
    seed = _resolve_seed(args)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    if not methods:
        raise UsageError("--methods must name at least one method")
    years = None if args.years in (None, "all") else int(args.years)
    report = validation.run_panel(
        args.panel,
        methods=methods,
        years=years,
        n_sim=args.nsim,
        seed=seed,
    )
    for name, msg in report.failures:
        print(f"warning: insurer {name} failed: {msg}", file=sys.stderr)
    config = {
        "panel": str(args.panel),
        "methods": list(methods),
        "years": years,
        "seed": seed,
        "nsim": args.nsim,
    }
    rows = [
        f"{r.insurer},{r.accident_year},{r.method},"
        f"{float(r.rmse)!r},{float(r.cov95)!r},{float(r.len95)!r}"
        for r in list(report.rows) + list(report.aggregates)
    ]
    _emit_csv(args.out, "validate", config, "insurer,accident_year,method,rmse,cov95,len95", rows)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dirichlet-reserve",
        description="Dirichlet loss reserving on run-off triangles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, triangle=True):
        if triangle:
            p.add_argument("--triangle", required=True, help="training triangle CSV")
            p.add_argument("--years", default=None, help="most recent accident years to use, or 'all'")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: RESERVE_SEED or 0)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("fit", help="maximum likelihood fit")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="per accident year point and interval predictions")
    common(p)
    p.add_argument("--method", required=True, choices=["mle-boot", "bayes", "cl", "bf", "expected"])
    p.add_argument("--nsim", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--elr", type=float, default=None, help="externally expected ultimate loss ratio")
    p.add_argument("--tail-alpha", type=float, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--warmup", type=int, default=5000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--phi-hyper-cap", type=float, default=10.0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gof", help="goodness-of-fit test")
    common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--nboot", type=int, default=500)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("bayes", help="hierarchical Bayesian inference")
    common(p)
    p.add_argument("--tail-alpha", type=float, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--warmup", type=int, default=5000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--phi-hyper-cap", type=float, default=10.0)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--predict-out", default=None, help="also write predictive intervals CSV")
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("benchmark", help="Chain-Ladder and Bornhuetter-Ferguson comparators")
    common(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--elr", type=float, default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("validate", help="hold-out evaluation over a panel of insurers")
    common(p, triangle=False)
    p.add_argument("--panel", required=True, help="directory of <name>.csv / <name>_holdout.csv pairs")
    p.add_argument("--methods", default="dirichlet,cl")
    p.add_argument("--years", default=None)
    p.add_argument("--nsim", type=int, default=400)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TriangleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupportError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        mle.ConvergenceError,
        bayes.McmcError,
        bootstrap.BootstrapError,
        np.linalg.LinAlgError,
        ArithmeticError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the CLI's output files against ``oracles`` and against
properties the method must have. Each check function returns a list of
failure messages (empty when every check holds) and a dict of figures that
are reported but not gated."""

from __future__ import annotations

import json

import numpy as np

import oracles

# Tolerances. The reference ones are those of the acceptance criteria of
# the test suite; the others allow for summation order in floating point.
SHAPE_REL_TOL = 0.01       # fitted shapes against REF_A_* (criterion 1)
SCALE_ABS_TOL = 0.005      # fitted scales against REF_PHI_* (criterion 1)
FACTOR_ABS_TOL = 0.002     # development factors against REF_GAMMA_* (criterion 2)
INTERVAL_ABS_TOL = 0.01    # bootstrap intervals against REF_INT_DIR_* (criterion 4)
TAIL_LEN_FACTOR = 1.5      # Bayes mean interval length against REF_TAIL_AVG_LEN (criterion 7)
ROUNDING = 1e-12           # order of two quantities equal up to rounding
GRADIENT_TOL = 1e-5        # finite-difference gradient of the log-likelihood at the MLE


def _close(x, y, rel=1e-10, abs_=1e-13) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= abs_ + rel * np.abs(y)))


def _worst(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))))


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["result"]


def read_intervals(path) -> dict:
    """predict / bayes CSV -> accident year -> (point, lo, hi)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("accident_year"):
                continue
            year, _, point, lo, hi = line.rstrip("\n").split(",")
            out[int(year)] = (float(point), float(lo), float(hi))
    return out


def check_intervals(tag, intervals, tri) -> list:
    """lo <= point <= hi, lo at or above the paid-to-date, and zero width
    where the year is fully developed."""
    fails = []
    observed = tri.observed_cumulative()
    for i, year in enumerate(tri.years):
        point, lo, hi = intervals[int(year)]
        if not lo - ROUNDING <= point <= hi + ROUNDING:
            fails.append(f"{tag} {year}: point {point!r} outside [{lo!r}, {hi!r}]")
        if lo < observed[i] - ROUNDING:
            fails.append(f"{tag} {year}: lower bound {lo!r} below the paid {observed[i]!r}")
        if tri.k[i] == tri.losses.shape[1] and lo != hi:
            fails.append(f"{tag} {year}: fully developed year with width {hi - lo!r}")
    return fails


# -- reserve ----------------------------------------------------------------

def check_fit(tag, res, tri, refs, years):
    fails = []
    ratios = tri.ratios
    a, phi = np.array(res["a"]), np.array(res["phi"])
    if res["accident_years"] != [int(y) for y in tri.years]:
        fails.append(f"{tag}: accident years {res['accident_years']}")
    if res["b_n"] != 1.0:
        fails.append(f"{tag}: tail shape {res['b_n']} is not the boundary value 1")
    ref_a = refs[f"REF_A_{years}"]
    if np.max(np.abs(a - ref_a) / ref_a) >= SHAPE_REL_TOL:
        fails.append(f"{tag}: shapes {a} differ from {ref_a} by 1% or more")
    ref_phi = refs["REF_PHI_10"] if years == 10 else refs["REF_PHI_18_LAST10"]
    if _worst(phi[-10:], ref_phi) >= SCALE_ABS_TOL:
        fails.append(f"{tag}: scales differ from the reference by {_worst(phi[-10:], ref_phi):.4f}")
    ref_g = refs[f"REF_GAMMA_DIR_{years}"]
    if _worst(res["dev_factors"], ref_g) >= FACTOR_ABS_TOL:
        fails.append(f"{tag}: development factors differ by {_worst(res['dev_factors'], ref_g):.4f}")
    if not _close(phi, oracles.profiled_phi(a, ratios), rel=1e-12):
        fails.append(f"{tag}: scales are not the profiled optimum at the reported shapes")
    ll = oracles.profiled_loglik(a, ratios)
    if not _close(res["loglik"], ll, rel=1e-10):
        fails.append(f"{tag}: loglik {res['loglik']!r} against scipy {ll!r}")
    grad = oracles.loglik_gradient(a, ratios)
    if np.max(np.abs(grad)) > GRADIENT_TOL:
        fails.append(f"{tag}: finite-difference gradient {np.max(np.abs(grad)):.2e} at the MLE")
    return fails


def check_benchmark(tag, res, tri, refs, years, elr):
    fails = []
    cl = oracles.chain_ladder(tri.ratios)
    ref_g = refs[f"REF_GAMMA_MACK_{years}"]
    if _worst(res["factors"], ref_g) >= FACTOR_ABS_TOL:
        fails.append(f"{tag}: Chain-Ladder factors differ from the reference by {_worst(res['factors'], ref_g):.4f}")
    if not _close(res["factors"], cl.factors):
        fails.append(f"{tag}: Chain-Ladder factors differ from numpy by {_worst(res['factors'], cl.factors):.2e}")
    if not _close(res["factor_se"], cl.factor_se):
        fails.append(f"{tag}: factor standard errors differ from numpy")
    rows = res["chain_ladder"]
    lo, hi = cl.interval(0.95)
    got = np.array([[r["point"], r["lo"], r["hi"]] for r in rows])
    if not _close(got, np.column_stack((cl.ultimates, lo, hi))):
        fails.append(f"{tag}: Chain-Ladder ultimates or Mack intervals differ from numpy")
    k = tri.k
    for i, (bf, ex) in enumerate(zip(res["bornhuetter_ferguson"], res["expected"])):
        q = cl.quota(int(k[i]))
        want = q * cl.ultimates[i] + (1.0 - q) * elr
        if not _close(bf["point"], want):
            fails.append(f"{tag} {bf['accident_year']}: BF {bf['point']!r}, q*CL + (1-q)*ELR is {want!r}")
        if ex["point"] != elr:
            fails.append(f"{tag} {ex['accident_year']}: expected method {ex['point']!r}")
    return fails


def check_bootstrap_intervals(tag, intervals, tri, refs, years):
    fails = check_intervals(tag, intervals, tri)
    ref = refs[f"REF_INT_DIR_{years}"]
    got = np.array([intervals[int(y)][1:] for y in tri.years[-10:]])
    worst = _worst(got, ref)
    if worst > INTERVAL_ABS_TOL:
        fails.append(f"{tag}: 95% intervals differ from the reference by {worst:.4f}")
    return fails, worst


# -- gof --------------------------------------------------------------------

def check_gof(tag, res, fit, tri, n_boot, alpha):
    fails = []
    u = oracles.pit_values(np.array(fit["a"]), fit["b_n"], np.array(fit["phi"]), tri.ratios)
    ks = oracles.ks_uniform(u)
    if abs(res["t_obs"] - ks) > 1e-9:
        fails.append(f"{tag}: t_obs {res['t_obs']!r} against the scipy KS statistic {ks!r}")
    if not 0.0 < res["lower"] < res["upper"] < 1.0:
        fails.append(f"{tag}: null region [{res['lower']}, {res['upper']}] not ordered inside (0, 1)")
    if res["n_boot"] != n_boot or res["alpha"] != alpha:
        fails.append(f"{tag}: n_boot {res['n_boot']} / alpha {res['alpha']}, asked {n_boot} / {alpha}")
    if res["reject"] or not res["lower"] <= res["t_obs"] <= res["upper"]:
        fails.append(f"{tag}: the bundled triangle is rejected (t_obs {res['t_obs']:.3f})")
    return fails


# -- bayes ------------------------------------------------------------------

def read_draws(path, chains, kept, n, m):
    """Long-form draws CSV -> (names, array (chains, kept, params))."""
    names = [f"a_{j + 1}" for j in range(n)] + ["b_n"] + [f"phi_{i + 1}" for i in range(m)] + ["phi_hyper"]
    p = len(names)
    values = np.empty(chains * kept * p)
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "chain,iteration,param,value":
            raise ValueError("unexpected draws header")
        lines = 0
        for idx, line in enumerate(fh):
            chain, it, name, value = line.split(",")
            c, t = divmod(idx // p, kept)
            if int(chain) != c + 1 or int(it) != t + 1 or name != names[idx % p]:
                raise ValueError(f"draws line {idx + 2} out of order: {line.strip()}")
            values[idx] = float(value)
            lines = idx + 1
    if lines != values.size:
        raise ValueError(f"{lines} draws lines, expected {values.size}")
    return names, values.reshape(chains, kept, p)


def check_bayes(tag, draws_path, predict_path, tri, realized, refs, spec):
    fails, figures = [], {}
    m, n = tri.losses.shape
    names, d = read_draws(draws_path, spec["chains"], spec["iterations"] - spec["warmup"], n, m)
    a, b, phi, hyp = d[..., :n], d[..., n], d[..., n + 1 : n + 1 + m], d[..., -1]
    a0 = a.sum(axis=-1)
    observed = tri.observed_cumulative()
    if not np.all(a > 0):
        fails.append(f"{tag}: a shape draw is not positive")
    quota = b / (a0 + b)
    if np.min(quota) < spec["tail_alpha"] - ROUNDING:
        fails.append(f"{tag}: expected tail quota {np.min(quota):.6f} below {spec['tail_alpha']}")
    if not np.all(phi > observed):
        fails.append(f"{tag}: a scale draw at or below the paid-to-date")
    if not np.all(phi < hyp[..., None]):
        fails.append(f"{tag}: a scale draw at or above the hyper scale")
    if not np.all(hyp <= spec["phi_hyper_cap"]):
        fails.append(f"{tag}: a hyper scale draw above the cap")
    ess = [oracles.bulk_ess(d[..., j]) for j in range(len(names))]
    figures["min_bulk_ess"] = min(ess)
    figures["min_bulk_ess_param"] = names[int(np.argmin(ess))]

    intervals = read_intervals(predict_path)
    fails += check_intervals(tag, intervals, tri)
    last = [intervals[int(y)] for y in tri.years[-10:]]
    mean_len = float(np.mean([hi - lo for _, lo, hi in last]))
    ref = float(refs["REF_TAIL_AVG_LEN"])
    if not ref / TAIL_LEN_FACTOR <= mean_len <= ref * TAIL_LEN_FACTOR:
        fails.append(f"{tag}: mean interval length {mean_len:.4f} not within 1.5x of {ref}")
    figures["mean_interval_length"] = mean_len
    figures["contained_last10"] = int(sum(
        lo <= realized[int(y)] <= hi for y, (_, lo, hi) in zip(tri.years[-10:], last)
    ))
    return fails, figures


# -- panel ------------------------------------------------------------------

def read_validate(path) -> list:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("insurer,"):
                continue
            ins, year, method, rmse, cov, length = line.rstrip("\n").split(",")
            rows.append((ins, int(year), method, float(rmse), float(cov), float(length)))
    return rows


def check_panel(tag, path, triangles, truth, failed):
    """``triangles``: insurer -> training Triangle; ``truth``: insurer ->
    year -> true ultimate; ``failed``: insurers validate warned about."""
    fails, figures = [], {}
    rows = read_validate(path)
    by_ins = {}
    for r in rows:
        by_ins.setdefault(r[0], []).append(r)
    scored = sorted(set(triangles) - set(failed))
    if sorted(set(by_ins) - {"ALL"}) != scored:
        fails.append(f"{tag}: scored insurers {sorted(by_ins)} but expected {scored}")
    for name in scored:
        tri = triangles[name]
        n = tri.losses.shape[1]
        k = dict(zip(tri.years.tolist(), tri.k.tolist()))
        cl = oracles.chain_ladder(tri.ratios)
        lo, hi = cl.interval(0.95)
        for i, year in enumerate(tri.years.tolist()):
            want = (abs(truth[name][year] - cl.ultimates[i]), hi[i] - lo[i])
            got = [(r[3], r[5]) for r in by_ins.get(name, []) if r[1] == year and r[2] == "cl"]
            if len(got) != 1 or not _close(got[0], want, rel=1e-9, abs_=1e-12):
                fails.append(f"{tag} {name} {year}: cl rmse/len95 {got} against numpy {want}")
        for _, year, method, rmse, cov, length in by_ins.get(name, []):
            if method != "dirichlet":
                continue
            if cov not in (0.0, 1.0):
                fails.append(f"{tag} {name} {year}: cov95 {cov} for one insurer")
            developed = k[year] == n  # a fully developed year has a zero-width interval
            if (developed and length != 0.0) or (not developed and not length > 0.0):
                fails.append(f"{tag} {name} {year}: len95 {length} (fully developed: {developed})")
    groups = {}
    for ins, year, method, rmse, cov, length in rows:
        if ins != "ALL":
            groups.setdefault((year, method), []).append((rmse, cov, length))
    aggregates = {(r[1], r[2]): r[3:] for r in rows if r[0] == "ALL"}
    if set(aggregates) != set(groups):
        fails.append(f"{tag}: ALL rows for {sorted(aggregates)} but insurer rows for {sorted(groups)}")
    for key, vals in groups.items():
        v = np.array(vals)
        want = (np.sqrt(np.mean(v[:, 0] ** 2)), v[:, 1].mean(), v[:, 2].mean())
        if key in aggregates and not _close(aggregates[key], want, rel=1e-12, abs_=1e-15):
            fails.append(f"{tag} ALL {key}: {aggregates[key]} against the mean {want}")
    figures["dirichlet_cov95_by_year"] = {
        year: cov for (year, method), (_, cov, _) in sorted(aggregates.items()) if method == "dirichlet"
    }
    return fails, figures

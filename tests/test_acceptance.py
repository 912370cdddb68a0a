"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Reference values live in conftest; stochastic criteria
run at frozen seeds with their stated tolerances and time budgets."""

import time

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.model import simulate_masked
from dirichlet_reserving.validation import realized_ultimates, run_panel

from conftest import (
    ACTUAL_LAST10,
    REF_A_10,
    REF_A_18,
    REF_GAMMA_DIR_10,
    REF_GAMMA_DIR_18,
    REF_GAMMA_MACK_10,
    REF_GAMMA_MACK_18,
    REF_INT_DIR_10,
    REF_INT_DIR_18,
    REF_PHI_10,
    REF_PHI_18_LAST10,
    REF_PRED_DIR_10,
    REF_PRED_DIR_18,
    REF_PRED_MACK_10,
    REF_PRED_MACK_18,
    REF_SE_A1_10,
    REF_TAIL_AVG_LEN,
    YEARS_LAST10,
)


def criterion(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_parameter_reproduction(fits):
    fit10, fit18, elapsed = fits
    dev_a10 = np.max(np.abs(fit10.theta_hat.a - REF_A_10) / REF_A_10)
    dev_a18 = np.max(np.abs(fit18.theta_hat.a - REF_A_18) / REF_A_18)
    dev_p10 = np.max(np.abs(fit10.theta_hat.phi - REF_PHI_10))
    dev_p18 = np.max(np.abs(fit18.theta_hat.phi[-10:] - REF_PHI_18_LAST10))
    ok = dev_a10 < 0.01 and dev_a18 < 0.01 and dev_p10 < 0.005 and dev_p18 < 0.005 and elapsed < 10.0
    criterion(
        1, ok,
        f"max rel shape dev {dev_a10:.2e}/{dev_a18:.2e} (tol 1e-2), "
        f"max scale dev {dev_p10:.2e}/{dev_p18:.2e} (tol 5e-3), fit time {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_development_factors(fits, lr10, lr18):
    fit10, fit18, _ = fits
    d10 = np.array([dr.dev_factor(fit10.theta_hat, k) for k in range(1, 10)])
    d18 = np.array([dr.dev_factor(fit18.theta_hat, k) for k in range(1, 10)])
    m10 = dr.cl_fit(lr10).factors
    m18 = dr.cl_fit(lr18).factors
    devs = [
        np.max(np.abs(d10 - REF_GAMMA_DIR_10)),
        np.max(np.abs(d18 - REF_GAMMA_DIR_18)),
        np.max(np.abs(m10 - REF_GAMMA_MACK_10)),
        np.max(np.abs(m18 - REF_GAMMA_MACK_18)),
    ]
    ok = max(devs) < 0.002
    criterion(2, ok, f"max factor deviation {max(devs):.2e} (tol 2e-3)")


def test_criterion_3_point_predictions(fits, lr10, lr18):
    fit10, fit18, _ = fits
    dir10 = np.array([dr.predict_dirichlet(fit10.theta_hat, lr10, i).ultimate for i in range(1, 11)])
    dir18 = np.array([dr.predict_dirichlet(fit18.theta_hat, lr18, i).ultimate for i in range(9, 19)])
    mack10 = dr.cl_fit(lr10).ultimates
    mack18 = dr.cl_fit(lr18).ultimates[-10:]
    devs = [
        np.max(np.abs(dir10 - REF_PRED_DIR_10)),
        np.max(np.abs(dir18 - REF_PRED_DIR_18)),
        np.max(np.abs(mack10 - REF_PRED_MACK_10)),
        np.max(np.abs(mack18 - REF_PRED_MACK_18)),
    ]
    ok = max(devs) < 0.003
    criterion(3, ok, f"max point-prediction deviation {max(devs):.2e} (tol 3e-3)")


def test_criterion_4_bootstrap_intervals(boot10, boot18):
    pd10, t10 = boot10
    pd18, t18 = boot18
    worst = 0.0
    for pd, ref in [(pd10, REF_INT_DIR_10), (pd18, REF_INT_DIR_18)]:
        recs = dr.summarize(pd, 0.95)[-10:]
        for rec, (lo, hi) in zip(recs, ref):
            worst = max(worst, abs(rec["lo"] - lo), abs(rec["hi"] - hi))
    se = float(pd10.a_samples[:, 0].std(ddof=1))
    se_dev = abs(se - REF_SE_A1_10) / REF_SE_A1_10
    elapsed = t10 + t18
    ok = worst <= 0.01 and se_dev < 0.25 and elapsed < 300.0
    criterion(
        4, ok,
        f"worst interval endpoint deviation {worst:.4f} (tol 0.01), "
        f"se(a_1) {se:.1f} vs {REF_SE_A1_10} ({se_dev:.1%}, tol 25%), "
        f"runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_tail_shape_boundary(fits, lr10, lr18):
    fit10, fit18, _ = fits
    values = {fit10.theta_hat.b_n, fit18.theta_hat.b_n}
    rng = np.random.default_rng(2024)
    for lr, fit in [(lr10, fit10), (lr18, fit18)]:
        for _ in range(3):
            values.add(dr.bootstrap_once(fit.theta_hat, lr, rng).b_n)
    ok = values == {1.0}
    criterion(5, ok, f"tail shape estimates observed: {sorted(values)} (must be exactly 1.0)")


def _calibration_rejection_rate(theta, lr, n_triangles=200, n_boot=150, seed=6):
    rejects = 0
    mask = np.arange(lr.n)[None, :] < lr.k[:, None]
    for idx in range(n_triangles):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        sim = simulate_masked(theta, lr.k, rng)
        t_cal = dr.LossRatioTriangle(
            lr.years, lr.premiums, np.where(mask, sim, np.nan)
        )
        r = dr.gof_test(t_cal, alpha=0.05, n_boot=n_boot, seed=idx)
        rejects += int(r.reject)
    return rejects / n_triangles


def test_criterion_6_goodness_of_fit(fits, lr10, gof10, gof18):
    fit10, _, _ = fits
    rate = _calibration_rejection_rate(fit10.theta_hat, lr10)
    ok = (not gof10.reject) and (not gof18.reject) and 0.01 <= rate <= 0.12
    criterion(
        6, ok,
        f"10y reject={gof10.reject} (t_obs {gof10.t_obs:.3f} in "
        f"[{gof10.lower:.3f},{gof10.upper:.3f}]), 18y reject={gof18.reject}, "
        f"null calibration rejection rate {rate:.3f} over 200 triangles (need [0.01, 0.12])",
    )


def test_criterion_7_bayes_tail_constraint(bayes_tail18, triangle18, holdout):
    ps, pd, elapsed = bayes_tail18
    realized = realized_ultimates(triangle18, holdout)
    recs = dr.summarize(pd, 0.95)[-10:]
    missed = []
    lengths = []
    for rec in recs:
        actual = realized[rec["accident_year"]]
        lengths.append(rec["hi"] - rec["lo"])
        if not rec["lo"] <= actual <= rec["hi"]:
            missed.append((rec["accident_year"], round(actual - rec["hi"], 4)))
    avg_len = float(np.mean(lengths))
    len_ok = REF_TAIL_AVG_LEN / 1.5 <= avg_len <= REF_TAIL_AVG_LEN * 1.5
    ok = not missed and len_ok and elapsed < 900.0
    criterion(
        7, ok,
        f"containment {10 - len(missed)}/10 (missed: {missed or 'none'}; the reference "
        f"analysis itself records 9/10 coverage for this model), "
        f"avg interval length {avg_len:.4f} vs {REF_TAIL_AVG_LEN} (factor "
        f"{avg_len / REF_TAIL_AVG_LEN:.2f}, need within 1.5x), runtime {elapsed:.0f}s (< 900s)",
    )


def test_criterion_8_property_suite(fits, lr10, boot10):
    fit10, _, _ = fits
    rng = np.random.default_rng(8)
    failures = []

    # credibility blend equals the conditional expectation, and the closed
    # form of the weight equals the coefficient-of-variation ratio
    for _ in range(30):
        n = 6
        k = int(rng.integers(1, n + 1))
        y = rng.uniform(0.01, 0.08, size=k)
        grid = np.full((1, n), np.nan)
        grid[0, :k] = y
        t = dr.LossRatioTriangle([2000], np.ones(1), grid)
        a = rng.uniform(0.5, 400.0, size=n)
        b = 1.0 + rng.uniform(0, 3)
        s = float(y.sum())
        phi = s * (1.0 + rng.uniform(0.2, 1.0))
        p = dr.DirichletParams(a, b, [phi])
        tail = float(a[k:].sum())
        direct = s + tail / (tail + b) * (phi - s)
        if abs(dr.predict_dirichlet(p, t, 1).ultimate - direct) > 1e-10:
            failures.append("credibility blend identity")
            break
        mk, vk = dr.cumulative_moments(p, 1, 1, k)
        mn, vn = dr.cumulative_moments(p, 1, 1, n)
        if abs(dr.credibility_weight(p, k) - (vn / mn**2) / (vk / mk**2)) > 1e-10:
            failures.append("credibility weight dual form")
            break

    p = dr.DirichletParams(rng.uniform(1, 50, size=8), 2.0, [1.0])
    for k in range(1, 8):
        if abs(dr.dev_factor(p, k) - dr.dev_quota(p, k + 1) / dr.dev_quota(p, k)) > 1e-12:
            failures.append("factor/quota duality")
    if abs(dr.credibility_weight(p, 8) - 1.0) > 1e-15:
        failures.append("full-history weight")
    p_tail = dr.DirichletParams(np.array([1.0, 2.0, 1e-9]), 1.0, [1.0])
    if abs(dr.credibility_weight(p_tail, 2) - dr.dev_quota(p_tail, 2)) > 1e-6:
        failures.append("weight-to-quota limit")

    # analytic derivatives against finite differences of the profiled
    # likelihood evaluated through the independent row-density path
    a = REF_A_10 * rng.uniform(0.8, 1.25, size=10)
    g = dr.profiled_gradient(a, lr10)
    fd = np.empty(10)
    for j in range(10):
        h = 1e-6 * a[j]
        ap, am = a.copy(), a.copy()
        ap[j] += h
        am[j] -= h

        def val(av):
            theta = dr.DirichletParams(av, 1.0, dr.profile_phi(av, 1.0, lr10))
            return dr.total_loglik(theta, lr10)

        fd[j] = (val(ap) - val(am)) / (2 * h)
    if np.max(np.abs(g - fd)) > 1e-4:
        failures.append("gradient finite differences")
    H = dr.profiled_hessian(a, lr10)
    fdH = np.empty((10, 10))
    for j in range(10):
        h = 1e-6 * a[j]
        ap, am = a.copy(), a.copy()
        ap[j] += h
        am[j] -= h
        fdH[:, j] = (dr.profiled_gradient(ap, lr10) - dr.profiled_gradient(am, lr10)) / (2 * h)
    if np.max(np.abs(H - fdH) / (np.abs(fdH) + 1e-8)) > 1e-3:
        failures.append("hessian finite differences")

    # sampled component covariance against the closed form
    p = dr.DirichletParams(np.array([4.0, 2.0, 3.0]), 1.0, [1.0])
    N = 80000
    draws = np.array([dr.sample_row(p, 1, rng) for _ in range(N)])
    tot = p.a0 + p.b_n
    target = -4.0 * 2.0 / (tot**2 * (tot + 1.0))
    prod = (draws[:, 0] - draws[:, 0].mean()) * (draws[:, 1] - draws[:, 1].mean())
    if abs(prod.mean() - target) > 4 * prod.std(ddof=1) / np.sqrt(N):
        failures.append("sampling covariance")

    pd10, _ = boot10
    ratio = np.max(np.abs(pd10.a_samples.mean(axis=0) / fit10.theta_hat.a - 1.0))
    if ratio > 0.03:
        failures.append(f"bias-corrected mean off by {ratio:.3f}")

    criterion(8, not failures, f"property failures: {failures or 'none'}")


def _write_synthetic_panel(tmp_path, theta, years, n_insurers=20, seed=9):
    n = theta.a.size
    m = theta.phi.size
    k = np.maximum(np.minimum(n, m + 1 - np.arange(1, m + 1)), 1)
    header = "accident_year,premium," + ",".join(f"dev_{j}" for j in range(1, n + 1))
    shapes = np.append(theta.a, theta.b_n)
    for ins in range(n_insurers):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ins,)))
        g = rng.gamma(shapes, size=(m, n + 1))
        comp = g[:, :n] / g.sum(axis=1, keepdims=True) * theta.phi[:, None]
        train = [header]
        hold = [header]
        for i in range(m):
            tr = [f"{float(comp[i, j])!r}" if j < k[i] else "" for j in range(n)]
            ho = [f"{float(comp[i, j])!r}" if j >= k[i] else "" for j in range(n)]
            train.append(f"{years[i]},1.0," + ",".join(tr))
            if k[i] < n:
                hold.append(f"{years[i]},1.0," + ",".join(ho))
        (tmp_path / f"ins{ins:02d}.csv").write_text("\n".join(train) + "\n")
        (tmp_path / f"ins{ins:02d}_holdout.csv").write_text("\n".join(hold) + "\n")


def test_criterion_9_synthetic_panel(fits, tmp_path):
    fit10, _, _ = fits
    _write_synthetic_panel(tmp_path, fit10.theta_hat, YEARS_LAST10)
    report = run_panel(tmp_path, methods=("dirichlet",), n_sim=400, seed=10)
    assert not report.failures
    cov = {r.accident_year: r.cov95 for r in report.aggregates}
    bad = {y: c for y, c in cov.items() if not 0.85 <= c <= 1.0}
    criterion(
        9, not bad,
        "per-year interval coverage over 20 synthetic insurers: "
        + ", ".join(f"{y}:{cov[y]:.2f}" for y in sorted(cov))
        + (f" (outside [0.85, 1.0]: {bad})" if bad else " (all within [0.85, 1.0])"),
    )

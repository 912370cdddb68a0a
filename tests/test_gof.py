"""Goodness-of-fit machinery: incomplete beta against a quadrature oracle,
KS statistic against brute force, the transform's index set, and the
bootstrap-calibrated test decision."""

import math

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving import bootstrap, mle
from dirichlet_reserving.gof import _pit, regularized_incomplete_beta, to_json_dict
from dirichlet_reserving.model import SupportError, simulate_masked

from test_model import make_lr


def beta_cdf_quadrature(x, a, b, panels=200000):
    """Simpson integration of the beta density in log space; independent
    oracle. For sub-unit first shape the substitution u = t**a removes the
    endpoint singularity; otherwise the grid concentrates near the peak.
    """
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if a < 1.0:
        u_hi = x**a
        grid = np.linspace(0.0, u_hi, 2 * panels + 1)
        with np.errstate(divide="ignore"):
            t = grid ** (1.0 / a)
        vals = np.exp((b - 1.0) * np.log1p(-t) - lbeta) / a
        h = u_hi / (2 * panels)
        return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())
    mode_sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    lo = max(0.0, a / (a + b) - 60.0 * mode_sd)
    if x <= lo:
        return 0.0
    grid = np.linspace(lo, x, 2 * panels + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = 0.0 if a == 1.0 else (a - 1.0) * np.log(grid)
        logpdf = left + (b - 1.0) * np.log1p(-grid) - lbeta
    vals = np.where(np.isfinite(logpdf), np.exp(logpdf), 0.0)
    h = (x - lo) / (2 * panels)
    return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())


def ks_brute_force(u):
    """Quadratic-time sup distance between the empirical CDF and uniform."""
    u = np.asarray(u, float)
    N = u.size
    best = 0.0
    for x in u:
        ecdf_at = np.sum(u <= x) / N
        ecdf_before = np.sum(u < x) / N
        best = max(best, abs(ecdf_at - x), abs(x - ecdf_before))
    return best


class TestIncompleteBeta:
    def test_identity_for_flat_shapes(self):
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_against_quadrature_oracle(self):
        cases = [
            (0.3, 2.0, 5.0),
            (0.7, 0.5, 0.5),
            (0.2867, 1293.8, 3220.5),
            (0.95, 63.2, 1.0),
            (0.05, 1.0, 9.0),
        ]
        for x, a, b in cases:
            want = beta_cdf_quadrature(x, a, b)
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(want, abs=1e-7)

    def test_against_scipy_grid(self):
        sp = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(51)
        for _ in range(500):
            a = 10 ** rng.uniform(-2, 4)
            b = 10 ** rng.uniform(-2, 4)
            x = rng.uniform(1e-6, 1 - 1e-6)
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                float(sp.betainc(a, b, x)), abs=1e-10
            )

    def test_endpoints_and_validation(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, -1.0, 2.0)


class TestPitTransform:
    def test_flat_shapes_return_raw_ratios(self):
        t = make_lr([[0.4]], n=1)
        p = dr.DirichletParams([1.0], 1.0, [1.0])
        u = dr.pit_transform(p, t)
        assert u.size == 1
        assert u[0] == pytest.approx(0.4, abs=1e-14)

    def test_index_set_size(self, lr10, lr18, fit10, fit18):
        def expected_cells(t):
            total = int(t.k.sum())
            historical = sum(
                1 for i in range(t.m) if i + 1 <= t.m - t.n and t.k[i] == t.n
            )
            return total - historical

        assert dr.pit_transform(fit10.theta_hat, lr10).size == expected_cells(lr10) == 55
        assert dr.pit_transform(fit18.theta_hat, lr18).size == expected_cells(lr18) == 127

    def test_uniform_under_generating_parameters(self):
        sp = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(52)
        a = np.array([30.0, 18.0, 9.0, 4.0])
        passes = 0
        for _ in range(50):
            phi = rng.uniform(0.6, 0.9, size=8)
            theta = dr.DirichletParams(a, 1.5, phi)
            k = np.maximum(np.minimum(4, 8 + 1 - np.arange(1, 9)), 1)
            grid = np.full((8, 4), np.nan)
            for i in range(8):
                row = dr.sample_row(theta, i + 1, rng)
                grid[i, : k[i]] = row[: k[i]]
            t = dr.LossRatioTriangle(range(1, 9), np.ones(8), grid)
            u = dr.pit_transform(theta, t)
            if sp.kstest(u, "uniform").pvalue > 0.05:
                passes += 1
        assert passes >= 45

    def test_scale_free_in_premiums(self, triangle10, fit10):
        lr = dr.to_loss_ratios(triangle10)
        scaled = dr.RunOffTriangle(
            triangle10.years, triangle10.premiums * 2.0, triangle10.losses
        )
        lr_scaled = dr.to_loss_ratios(scaled)
        theta = fit10.theta_hat
        theta_scaled = dr.DirichletParams(theta.a, theta.b_n, theta.phi / 2.0)
        np.testing.assert_allclose(
            dr.pit_transform(theta, lr),
            dr.pit_transform(theta_scaled, lr_scaled),
            atol=1e-12,
        )

    @pytest.mark.parametrize("years", [10, 18])
    def test_batched_rows_equal_triangle_transforms(self, years, lr10, lr18, fit10, fit18):
        lr, fit = (lr10, fit10) if years == 10 else (lr18, fit18)
        rng = np.random.default_rng(54)
        sims = np.stack([simulate_masked(fit.theta_hat, lr.k, rng) for _ in range(9)])
        a, phi, _, _, _, ok = mle._fit_batch(sims, lr.k)
        assert ok.all()
        u = _pit(a, 1.0, phi, sims, lr.k, lr.years)
        mask = np.arange(lr.n) < lr.k[:, None]
        for r in range(sims.shape[0]):
            t = dr.LossRatioTriangle(lr.years, lr.premiums, np.where(mask, sims[r], np.nan))
            np.testing.assert_array_equal(u[r], dr.pit_transform(dr.DirichletParams(a[r], 1.0, phi[r]), t))

    def test_support_violation_raises(self):
        t = make_lr([[0.4, 0.4]], n=2)
        p = dr.DirichletParams([1.0, 1.0], 1.0, [0.5])
        with pytest.raises(SupportError, match="support"):
            dr.pit_transform(p, t)


class TestKsStatistic:
    def test_single_point(self):
        assert dr.ks_statistic([0.5]) == pytest.approx(0.5)

    def test_equispaced(self):
        N = 9
        u = np.arange(1, N + 1) / (N + 1.0)
        assert dr.ks_statistic(u) == pytest.approx(1.0 / (N + 1.0), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            u = rng.uniform(size=rng.integers(1, 60))
            assert dr.ks_statistic(u) == pytest.approx(ks_brute_force(u), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dr.ks_statistic([])


def misspecified_triangle(seed, m=10, n=10):
    """Decaying pattern with development-year noise scales alternating
    between huge and tiny: no single concentration fits all cells."""
    rng = np.random.default_rng(seed)
    pattern = 0.25 * 0.7 ** np.arange(n)
    grid = np.full((m, n), np.nan)
    k = np.maximum(np.minimum(n, m + 1 - np.arange(1, m + 1)), 1)
    for i in range(m):
        sig = np.where(np.arange(k[i]) % 2 == 0, 0.6, 0.01)
        grid[i, : k[i]] = pattern[: k[i]] * np.exp(sig * rng.standard_normal(k[i]))
    return dr.LossRatioTriangle(range(2000, 2000 + m), np.ones(m), grid)


class TestGofTest:
    def test_fixture_fails_to_reject(self, gof10, gof18):
        for r in (gof10, gof18):
            assert not r.reject
            assert r.lower <= r.t_obs <= r.upper

    def test_power_against_misspecification(self):
        rejects = [
            dr.gof_test(misspecified_triangle(seed), alpha=0.05, n_boot=150, seed=seed).reject
            for seed in range(5)
        ]
        assert sum(rejects) >= 3

    def test_deterministic_given_seed(self, lr10):
        a = dr.gof_test(lr10, alpha=0.05, n_boot=120, seed=3)
        b = dr.gof_test(lr10, alpha=0.05, n_boot=120, seed=3)
        assert a.t_obs == b.t_obs
        np.testing.assert_array_equal(a.null_sample, b.null_sample)
        assert (a.lower, a.upper, a.reject) == (b.lower, b.upper, b.reject)

    def test_null_sample_independent_of_chunk(self, lr10, monkeypatch):
        # 450 nulls cross the default batch boundary at 400 and PIT slice
        # boundaries at multiples of 128 within the first batch
        samples = []
        for chunk in (bootstrap._CHUNK, 7, 128, 1000):
            monkeypatch.setattr(bootstrap, "_CHUNK", chunk)
            samples.append(dr.gof_test(lr10, alpha=0.05, n_boot=450, seed=4).null_sample)
        for other in samples[1:]:
            np.testing.assert_array_equal(other, samples[0])

    def test_alpha_validation(self, lr10):
        with pytest.raises(ValueError):
            dr.gof_test(lr10, alpha=1.5)

    def test_nboot_below_one_rejected_before_fitting(self, lr10, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_mle called with n_boot = 0")

        monkeypatch.setattr(dr.mle, "fit_mle", forbidden)
        with pytest.raises(dr.InputError, match="n_boot"):
            dr.gof_test(lr10, n_boot=0)

    def test_json_dict(self, lr10):
        r = dr.gof_test(lr10, alpha=0.05, n_boot=120, seed=3)
        d = to_json_dict(r)
        assert set(d) == {"t_obs", "lower", "upper", "alpha", "n_boot", "reject"}
        assert d["n_boot"] == 120
        assert d["reject"] is r.reject

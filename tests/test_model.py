"""Dirichlet reserving model: density, moments, factors, credibility
prediction, conditional splits, and sampling, checked against closed
forms, cross-form identities, and Monte Carlo oracles."""

import math

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.model import SupportError

from conftest import REF_A_10


def make_lr(rows, premiums=None, years=None, n=None):
    """Loss-ratio triangle from a list of observed-prefix rows."""
    m = len(rows)
    n = n or max(len(r) for r in rows)
    grid = np.full((m, n), np.nan)
    for i, r in enumerate(rows):
        grid[i, : len(r)] = r
    years = years or list(range(2000, 2000 + m))
    premiums = premiums if premiums is not None else np.ones(m)
    return dr.LossRatioTriangle(years, np.asarray(premiums, float), grid)


def random_params(rng, n, m, scale=50.0):
    a = rng.uniform(0.5, scale, size=n)
    return dr.DirichletParams(a, 1.0 + rng.uniform(0, 3), rng.uniform(0.5, 1.5, size=m))


class TestParams:
    def test_a0_accessor(self):
        p = dr.DirichletParams([1.0, 2.0], 1.0, [0.7])
        assert p.a0 == 3.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0, -1.0], 1.0, [0.7])
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0], 0.5, [0.7])
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0], 1.0, [0.0])
        for a, phi in (
            ([math.nan, 1.0], [0.7]),
            ([math.inf, 1.0], [0.7]),
            ([1.0, 1.0], [math.nan]),
            ([1.0, 1.0], [math.inf]),
        ):
            with pytest.raises(ValueError):
                dr.DirichletParams(a, 1.0, phi)


class TestRowLogDensity:
    def test_uniform_simplex(self):
        # flat allocation shapes on a complete row give density 2
        t = make_lr([[0.3, 0.3], [0.2]])
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0, 1.0])
        assert dr.row_log_density(p, t, 1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_violation_is_minus_inf(self):
        t = make_lr([[0.3, 0.3], [0.2]])
        p = dr.DirichletParams([1.0, 1.0], 1.0, [0.5, 1.0])
        assert dr.row_log_density(p, t, 1) == -np.inf

    def test_gradient_small_at_reference_optimum(self, lr10, fit10):
        g = dr.profiled_gradient(fit10.theta_hat.a, lr10)
        assert np.max(np.abs(g)) < 1e-4


class TestTotalLoglik:
    def test_single_row_equals_row(self):
        t = make_lr([[0.3, 0.3]])
        p = dr.DirichletParams([2.0, 3.0], 1.5, [1.1])
        assert dr.total_loglik(p, t) == dr.row_log_density(p, t, 1)

    def test_permutation_invariance(self, lr18, fit18):
        order = np.random.default_rng(0).permutation(18)
        perm = dr.LossRatioTriangle(
            [lr18.years[i] for i in order], lr18.premiums[order], lr18.ratios[order]
        )
        theta = fit18.theta_hat
        theta_perm = dr.DirichletParams(theta.a, theta.b_n, theta.phi[order])
        assert dr.total_loglik(theta_perm, perm) == pytest.approx(
            dr.total_loglik(theta, lr18), rel=1e-12
        )

    def test_bitwise_deterministic(self, lr10, fit10):
        vals = {dr.total_loglik(fit10.theta_hat, lr10) for _ in range(3)}
        assert len(vals) == 1
        assert math.isfinite(vals.pop())

    def test_minus_inf_propagates(self):
        t = make_lr([[0.3, 0.3], [0.9]])
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0, 0.5])
        assert dr.total_loglik(p, t) == -np.inf


class TestCumulativeMoments:
    def test_full_horizon_mean(self):
        p = dr.DirichletParams([2.0, 3.0], 2.0, [0.8])
        mean, _ = dr.cumulative_moments(p, 1, 1, 2)
        assert mean == pytest.approx(5.0 / 7.0 * 0.8, rel=1e-12)

    def test_symmetric_single_cell(self):
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0])
        mean, var = dr.cumulative_moments(p, 1, 1, 1)
        assert mean == pytest.approx(1.0 / 3.0)
        assert var == pytest.approx(1.0 / 18.0)

    def test_cv_shrinks_with_horizon(self, fit10):
        theta = fit10.theta_hat
        m1, v1 = dr.cumulative_moments(theta, 10, 1, 1)
        mn, vn = dr.cumulative_moments(theta, 10, 1, 10)
        assert vn > 0
        assert math.sqrt(vn) / mn < math.sqrt(v1) / m1


class TestFactorsQuotas:
    def test_reference_first_factor(self):
        p = dr.DirichletParams(REF_A_10, 1.0, np.full(10, 0.7))
        assert round(dr.dev_factor(p, 1), 3) == 1.778

    def test_last_quota_is_one(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 7, 3)
        assert dr.dev_quota(p, 7) == pytest.approx(1.0, abs=1e-15)

    def test_factor_quota_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_params(rng, 6, 2)
            for k in range(1, 6):
                assert dr.dev_factor(p, k) == pytest.approx(
                    dr.dev_quota(p, k + 1) / dr.dev_quota(p, k), rel=1e-12
                )
                assert dr.dev_factor(p, k) > 1.0

    def test_index_range(self):
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0])
        with pytest.raises(IndexError):
            dr.dev_factor(p, 2)
        with pytest.raises(IndexError):
            dr.dev_quota(p, 0)


class TestCredibilityWeight:
    def test_full_history_weight_is_one(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, 5, 2)
        assert dr.credibility_weight(p, 5) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_equals_cv_ratio(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = random_params(rng, 8, 1)
            for k in range(1, 9):
                mk, vk = dr.cumulative_moments(p, 1, 1, k)
                mn, vn = dr.cumulative_moments(p, 1, 1, 8)
                cv_ratio = (vn / mn**2) / (vk / mk**2)
                assert dr.credibility_weight(p, k) == pytest.approx(cv_ratio, abs=1e-10)

    def test_reference_scale_case(self, fit10):
        theta = fit10.theta_hat
        mk, vk = dr.cumulative_moments(theta, 10, 1, 9)
        mn, vn = dr.cumulative_moments(theta, 10, 1, 10)
        assert dr.credibility_weight(theta, 9) == pytest.approx(
            (vn / mn**2) / (vk / mk**2), abs=1e-6
        )

    def test_limit_matches_quota_when_tail_dominates(self):
        a = np.array([1.0, 2.0, 1e-9])
        p = dr.DirichletParams(a, 1.0, [1.0])
        # development beyond year two is negligible against the tail shape
        assert abs(dr.credibility_weight(p, 2) - dr.dev_quota(p, 2)) < 1e-6


class TestPredictDirichlet:
    def test_fully_developed_row(self):
        t = make_lr([[0.3, 0.3], [0.2]])
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0, 1.0])
        pred = dr.predict_dirichlet(p, t, 1)
        assert pred.ultimate == pytest.approx(0.6, rel=1e-12)
        assert pred.reserve == pytest.approx(0.0, abs=1e-15)

    def test_reference_1998_prediction(self, lr10, fit10):
        pred = dr.predict_dirichlet(fit10.theta_hat, lr10, 2)
        assert pred.year == 1998
        assert abs(pred.ultimate - 0.718) < 5e-4

    def test_blend_equals_conditional_expectation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = 6
            k = int(rng.integers(1, n + 1))
            y = rng.uniform(0.01, 0.08, size=k)
            t = make_lr([list(y)], n=n)
            a = rng.uniform(0.5, 300.0, size=n)
            b = 1.0 + rng.uniform(0, 3)
            s = float(y.sum())
            phi = s * (1.0 + rng.uniform(0.2, 1.0))
            p = dr.DirichletParams(a, b, [phi])
            tail = float(a[k:].sum())
            direct = s + tail / (tail + b) * (phi - s)
            pred = dr.predict_dirichlet(p, t, 1)
            assert pred.ultimate == pytest.approx(direct, abs=1e-10)
            assert pred.reserve == pytest.approx(direct - s, abs=1e-10)

    def test_chain_ladder_limit(self, lr10, fit10):
        # at concentration this large the credibility blend is Chain-Ladder
        theta = fit10.theta_hat
        assert theta.a0 / (theta.a0 + 1.0) > 0.999
        for i in range(2, 11):
            k = int(lr10.k[i - 1])
            s = float(np.nansum(lr10.ratios[i - 1]))
            cl = s / dr.dev_quota(theta, k)
            pred = dr.predict_dirichlet(theta, lr10, i)
            assert abs(pred.ultimate - cl) / cl < 0.002


class TestConditionalAllocation:
    def test_last_split_is_beta_pair(self):
        p = dr.DirichletParams([1.0, 2.0, 3.0], 1.5, [1.0])
        paid, future = dr.conditional_allocation(p, 2)
        np.testing.assert_array_equal(paid, [1.0, 2.0])
        np.testing.assert_array_equal(future, [3.0, 1.5])

    def test_unpaid_fraction_beta_parameters(self):
        p = dr.DirichletParams([1.0, 2.0, 3.0, 4.0], 2.0, [1.0])
        _, future = dr.conditional_allocation(p, 2)
        # total future shape against the tail shape: Beta(a0 - c_k, b_n)
        assert future[:-1].sum() == pytest.approx(p.a0 - 3.0)
        assert future[-1] == 2.0

    def test_disposal_rates_sum_below_one(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, 6, 1)
        _, future = dr.conditional_allocation(p, 3)
        rates = future[:-1] / future.sum()
        assert 0.0 < rates.sum() < 1.0

    def test_index_range(self):
        p = dr.DirichletParams([1.0, 2.0], 1.0, [1.0])
        with pytest.raises(IndexError):
            dr.conditional_allocation(p, 2)


class TestSampleRow:
    def test_components_sum_to_scale(self):
        rng = np.random.default_rng(10)
        p = dr.DirichletParams([3.0, 2.0, 1.0], 1.2, [0.85])
        for _ in range(20):
            row = dr.sample_row(p, 1, rng)
            assert row.shape == (4,)
            assert np.all(row > 0)
            assert row.sum() == pytest.approx(0.85, abs=1e-12)

    def test_first_cell_mean(self):
        rng = np.random.default_rng(11)
        p = dr.DirichletParams([5.0, 3.0], 2.0, [1.0])
        draws = np.array([dr.sample_row(p, 1, rng)[0] for _ in range(100000)])
        mean_target = 5.0 / 10.0
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean_target) < 3 * se

    def test_covariance_matches_closed_form(self):
        rng = np.random.default_rng(12)
        p = dr.DirichletParams([4.0, 2.0, 3.0], 1.0, [1.0])
        N = 100000
        draws = np.array([dr.sample_row(p, 1, rng) for _ in range(N)])
        tot = p.a0 + p.b_n
        target = -4.0 * 2.0 / (tot**2 * (tot + 1.0))
        prod = (draws[:, 0] - draws[:, 0].mean()) * (draws[:, 1] - draws[:, 1].mean())
        se = prod.std(ddof=1) / math.sqrt(N)
        assert abs(prod.mean() - target) < 4 * se

    def test_marginal_beta_moments(self):
        rng = np.random.default_rng(13)
        p = dr.DirichletParams([4.0, 2.0, 3.0], 1.0, [0.9])
        draws = np.array([dr.sample_row(p, 1, rng) for _ in range(60000)]) / 0.9
        tot = p.a0 + p.b_n
        for j, aj in enumerate(p.a):
            mean = aj / tot
            var = aj * (tot - aj) / (tot**2 * (tot + 1.0))
            se_mean = draws[:, j].std(ddof=1) / math.sqrt(draws.shape[0])
            assert abs(draws[:, j].mean() - mean) < 4 * se_mean
            assert abs(draws[:, j].var(ddof=1) - var) < 0.05 * var

    def test_aggregation_property(self):
        rng = np.random.default_rng(14)
        p = dr.DirichletParams([2.0, 3.0, 4.0, 1.0], 2.0, [1.0])
        draws = np.array([dr.sample_row(p, 1, rng) for _ in range(60000)])
        # partition {1,2} {3,4,tail}: the grouped sums are again a two-part split
        g1 = draws[:, :2].sum(axis=1)
        tot = p.a0 + p.b_n
        alpha = 5.0
        mean = alpha / tot
        var = alpha * (tot - alpha) / (tot**2 * (tot + 1.0))
        se = g1.std(ddof=1) / math.sqrt(g1.size)
        assert abs(g1.mean() - mean) < 4 * se
        assert abs(g1.var(ddof=1) - var) < 0.05 * var


class TestSimulateMasked:
    def test_equals_masked_rows_of_sample_row(self, lr10, fit10):
        theta = fit10.theta_hat
        sim = dr.model.simulate_masked(theta, lr10.k, np.random.default_rng(16))
        rng = np.random.default_rng(16)
        expect = np.array([dr.sample_row(theta, i, rng)[: lr10.n] for i in range(1, lr10.m + 1)])
        expect[np.arange(lr10.n) >= lr10.k[:, None]] = 0.0
        assert np.array_equal(sim, expect)


class TestSampleFutureRow:
    def test_complete_row_empty(self, lr18, fit18):
        rng = np.random.default_rng(15)
        assert dr.sample_future_row(fit18.theta_hat, lr18, 1, rng).size == 0

    def test_predictive_mean_matches_conditional_expectation(self, lr10, fit10):
        rng = np.random.default_rng(16)
        theta = fit10.theta_hat
        i = 10  # newest year, widest predictive spread
        s = float(np.nansum(lr10.ratios[i - 1]))
        draws = np.array(
            [s + dr.sample_future_row(theta, lr10, i, rng).sum() for _ in range(100000)]
        )
        target = dr.predict_dirichlet(theta, lr10, i).ultimate
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * se

    def test_unpaid_fraction_beta_moments(self, lr10, fit10):
        rng = np.random.default_rng(17)
        theta = fit10.theta_hat
        i = 6
        k = int(lr10.k[i - 1])
        s = float(np.nansum(lr10.ratios[i - 1]))
        phi = float(theta.phi[i - 1])
        alpha = float(theta.a[k:].sum())
        beta = theta.b_n
        fracs = np.array(
            [dr.sample_future_row(theta, lr10, i, rng).sum() for _ in range(60000)]
        ) / (phi - s)
        mean = alpha / (alpha + beta)
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
        se = fracs.std(ddof=1) / math.sqrt(fracs.size)
        assert abs(fracs.mean() - mean) < 4 * se
        assert abs(fracs.var(ddof=1) - var) < 0.05 * var

    def test_support_error(self):
        t = make_lr([[0.4, 0.4], [0.5]])
        p = dr.DirichletParams([1.0, 1.0], 1.0, [1.0, 0.3])
        with pytest.raises(SupportError):
            dr.sample_future_row(p, t, 2, np.random.default_rng(0))


class TestUnpaidTotals:
    """``unpaid_totals`` draws each partial row's unpaid sum as one Beta
    variate; per row, its draws and the sums of ``sample_future_row``'s
    cells under the same parameters must be two samples of one law."""

    @staticmethod
    def assert_same_law(got, t, params_of, rng):
        stats = pytest.importorskip("scipy.stats")
        R = got.shape[0]
        for i in np.flatnonzero(t.k < t.n):
            want = np.array([dr.sample_future_row(params_of(r), t, i + 1, rng).sum() for r in range(R)])
            x = got[:, i]
            assert stats.ks_2samp(x, want).pvalue > 1e-3, i
            se = math.sqrt((x.var(ddof=1) + want.var(ddof=1)) / R)
            assert abs(x.mean() - want.mean()) < 4 * se, i
            assert abs(x.var(ddof=1) / want.var(ddof=1) - 1.0) < 0.1, i

    def test_per_replicate_generators_tail_shape_one(self, lr10, fit10):
        # the bootstrap's call: b_n = 1 and one generator per replicate
        theta, R = fit10.theta_hat, 10000
        a, phi = np.tile(theta.a, (R, 1)), np.tile(theta.phi, (R, 1))
        rngs = [np.random.default_rng(np.random.SeedSequence(21, spawn_key=(r,))) for r in range(R)]
        got = dr.unpaid_totals(a, 1.0, phi, lr10.k, lr10.observed_cumulative(), rngs)
        assert got.shape == (R, lr10.m)
        assert np.all(got[:, lr10.k == lr10.n] == 0.0)
        self.assert_same_law(got, lr10, lambda r: theta, np.random.default_rng(22))

    def test_one_generator_per_draw_tail_shape(self):
        # the posterior predictive's call: every draw its own shapes, tail
        # shape above 1 and scales, all drawn by one generator
        t = make_lr([[0.3, 0.2, 0.1, 0.05], [0.25, 0.2, 0.1], [0.3, 0.15], [0.2]])
        rng, R = np.random.default_rng(23), 10000
        a = np.array([6.0, 4.0, 2.5, 1.5]) * np.exp(0.2 * rng.standard_normal((R, 4)))
        b = rng.uniform(1.5, 4.0, size=R)
        s = t.observed_cumulative()
        phi = s * rng.uniform(1.2, 1.8, size=(R, t.m))
        got = dr.unpaid_totals(a, b, phi, t.k, s, np.random.default_rng(24))
        assert np.all(got[:, 0] == 0.0)
        assert np.all(got[:, 1:] > 0.0)
        self.assert_same_law(got, t, lambda r: dr.DirichletParams(a[r], b[r], phi[r]), np.random.default_rng(25))

    def test_support_error(self):
        t = make_lr([[0.4, 0.4], [0.5]])
        with pytest.raises(SupportError):
            dr.unpaid_totals(np.ones((1, 2)), 1.0, np.array([[1.0, 0.3]]), t.k, t.observed_cumulative(),
                             np.random.default_rng(0))


class TestTailFactor:
    def test_reference_value(self):
        p = dr.DirichletParams(REF_A_10, 1.0, np.full(10, 0.7))
        assert dr.tail_factor(p) == pytest.approx(1.000222, abs=5e-7)

    def test_large_tail_share(self):
        a = np.full(10, 10.0)
        p = dr.DirichletParams(a, 0.24 * 100.0, np.full(10, 0.7))
        assert dr.tail_factor(p) == pytest.approx(1.24, rel=1e-12)

    def test_limit_to_one(self):
        p = dr.DirichletParams(np.full(4, 1e9), 1.0, [0.7])
        assert dr.tail_factor(p) == pytest.approx(1.0, abs=1e-8)

"""Chain-Ladder with distribution-free standard errors, the expected
loss-ratio method, and Bornhuetter-Ferguson."""

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.benchmarks import ClFit

from conftest import REF_GAMMA_MACK_10, REF_GAMMA_MACK_18

from test_model import make_lr


class TestClFit:
    def test_two_row_toy(self):
        t = make_lr([[100.0, 50.0], [200.0]])
        fit = dr.cl_fit(t)
        assert fit.factors[0] == pytest.approx(1.5)
        assert fit.ultimates[1] == pytest.approx(300.0)

    def test_reference_first_factor(self, lr10):
        fit = dr.cl_fit(lr10)
        assert abs(fit.factors[0] - 1.779) < 0.002

    def test_reference_factor_tables(self, lr10, lr18):
        np.testing.assert_allclose(dr.cl_fit(lr10).factors, REF_GAMMA_MACK_10, atol=0.002)
        np.testing.assert_allclose(dr.cl_fit(lr18).factors, REF_GAMMA_MACK_18, atol=0.002)

    def test_reference_2006_interval(self, lr18):
        fit = dr.cl_fit(lr18)
        preds = fit.predictions(0.95)
        last = preds[-1]
        assert last.year == 2006
        assert abs(last.ultimate - 0.644) < 0.002
        assert abs(last.lo - 0.587) < 0.005
        assert abs(last.hi - 0.701) < 0.005

    def test_fully_developed_row_zero_msep(self, lr18):
        fit = dr.cl_fit(lr18)
        assert fit.prediction_se[0] == 0.0
        assert fit.ultimates[0] == pytest.approx(fit.observed[0])

    @pytest.mark.parametrize("years", [10, 18])
    def test_paid_to_date_bit_equal_observed_cumulative(self, years, request):
        # a fully developed year's ultimate is its paid-to-date, so its
        # zero-width interval holds the realized ultimate exactly
        lr = request.getfixturevalue(f"lr{years}")
        fit = dr.cl_fit(lr)
        observed = lr.observed_cumulative()
        assert fit.observed.tolist() == observed.tolist()
        complete = lr.k == lr.n
        assert complete.any()
        assert fit.ultimates[complete].tolist() == observed[complete].tolist()

    def test_quota_factor_duality(self, lr10):
        fit = dr.cl_fit(lr10)
        for k in range(1, 11):
            prod = np.prod(fit.factors[k - 1 :])
            assert fit.quota(k) * prod == pytest.approx(1.0, rel=1e-12)
        assert fit.quota(10) == 1.0

    def test_scale_equivariance(self, triangle10):
        lr = dr.to_loss_ratios(triangle10)
        base = dr.cl_fit(lr)
        prem = triangle10.premiums.copy()
        prem[-1] /= 3.0  # scales the last row's ratios by 3
        scaled = dr.cl_fit(dr.to_loss_ratios(
            dr.RunOffTriangle(triangle10.years, prem, triangle10.losses)
        ))
        assert scaled.ultimates[-1] == pytest.approx(3.0 * base.ultimates[-1], rel=1e-9)

    def test_dirichlet_and_cl_factors_close(self, lr10, fit10):
        fit = dr.cl_fit(lr10)
        dirichlet = np.array([dr.dev_factor(fit10.theta_hat, k) for k in range(1, 10)])
        np.testing.assert_allclose(fit.factors, dirichlet, atol=0.005)

    def test_level_validation(self, lr10):
        with pytest.raises(ValueError):
            dr.cl_fit(lr10).predictions(1.5)


class TestClIncremental:
    def test_one_step(self, lr10):
        fit = dr.cl_fit(lr10)
        i = 5
        k = int(fit.k[i - 1])
        got = dr.cl_predict_incremental(fit, lr10, i, k + 1)
        assert got == pytest.approx(fit.observed[i - 1] * (fit.factors[k - 1] - 1.0), rel=1e-12)

    def test_telescoping_sum(self, lr10):
        fit = dr.cl_fit(lr10)
        for i in range(2, 11):
            k = int(fit.k[i - 1])
            total = sum(
                dr.cl_predict_incremental(fit, lr10, i, k2) for k2 in range(k + 1, 11)
            )
            assert total == pytest.approx(fit.ultimates[i - 1] - fit.observed[i - 1], rel=1e-9)

    def test_reference_1998_ultimate(self, lr10):
        fit = dr.cl_fit(lr10)
        assert abs(fit.ultimates[1] - 0.719) < 0.002

    def test_index_range(self, lr10):
        fit = dr.cl_fit(lr10)
        with pytest.raises(IndexError):
            dr.cl_predict_incremental(fit, lr10, 1, 10)  # row 1 fully developed
        with pytest.raises(IndexError):
            dr.cl_predict_incremental(fit, lr10, 10, 11)


class TestExpectedMethod:
    def test_zero_reserve_at_observed(self, lr10):
        s = float(np.nansum(lr10.ratios[9]))
        pred = dr.expected_method(lr10, 10, s)
        assert pred.reserve == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        t = make_lr([[0.7], [0.1]], n=2)
        pred = dr.expected_method(t, 1, 0.75)
        assert pred.reserve == pytest.approx(0.05)

    def test_negative_reserve_reported(self):
        t = make_lr([[0.7], [0.1]], n=2)
        pred = dr.expected_method(t, 1, 0.6)
        assert pred.reserve == pytest.approx(-0.1)


class TestBornhuetterFerguson:
    def test_fully_developed_equals_cl(self, lr10):
        fit = dr.cl_fit(lr10)
        pred = dr.bf_predict(fit, lr10, 1, 0.9)
        assert pred.ultimate == pytest.approx(float(fit.ultimates[0]), rel=1e-12)

    def test_vanishing_quota_equals_expected(self, lr10):
        fit = dr.cl_fit(lr10)
        tiny_quota = ClFit(
            fit.years,
            np.full(9, 50.0),  # huge factors make early quotas vanish
            fit.factor_se,
            fit.sigma2,
            fit.ultimates,
            fit.prediction_se,
            fit.observed,
            fit.k,
        )
        pred = dr.bf_predict(tiny_quota, lr10, 10, 0.8)
        assert pred.ultimate == pytest.approx(0.8, rel=1e-6)

    def test_between_cl_and_expected(self, lr10):
        fit = dr.cl_fit(lr10)
        rng = np.random.default_rng(31)
        for _ in range(20):
            i = int(rng.integers(2, 11))
            elr = float(rng.uniform(0.3, 1.2))
            cl = float(fit.ultimates[i - 1])
            bf = dr.bf_predict(fit, lr10, i, elr).ultimate
            assert min(cl, elr) - 1e-12 <= bf <= max(cl, elr) + 1e-12

    def test_requires_positive_expectation(self, lr10):
        fit = dr.cl_fit(lr10)
        with pytest.raises(ValueError):
            dr.bf_predict(fit, lr10, 3, 0.0)

"""Profiled likelihood estimation: closed-form scale profile, analytic
derivatives against finite differences, optimizer behavior, and recovery
of the reference estimates on the bundled triangle."""

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving import mle
from dirichlet_reserving.mle import ConvergenceError, IdentificationError
from dirichlet_reserving.model import simulate_masked

from conftest import REF_A_10, REF_A_18, REF_PHI_10, REF_PHI_18_LAST10


def profiled_via_model(a, b_n, t):
    """Independent path to the profiled log-likelihood: closed-form scales
    plugged into the row-by-row density."""
    phi = dr.profile_phi(a, b_n, t)
    theta = dr.DirichletParams(np.asarray(a, float), b_n, phi)
    return dr.total_loglik(theta, t)


class TestProfilePhi:
    def test_boundary_tail_complete_rows(self, lr18):
        phi = dr.profile_phi(REF_A_18, 1.0, lr18)
        s = lr18.observed_cumulative()
        np.testing.assert_allclose(phi[:9], s[:9], rtol=0, atol=0)

    def test_reference_1998_scale(self, lr10):
        phi = dr.profile_phi(REF_A_10, 1.0, lr10)
        assert round(float(phi[1]), 3) == 0.719

    def test_larger_tail_inflates_scale(self, lr18):
        phi = dr.profile_phi(REF_A_18, 2.0, lr18)
        s = lr18.observed_cumulative()
        a0 = REF_A_18.sum()
        np.testing.assert_allclose(phi[:9], (a0 + 1.0) / a0 * s[:9], rtol=1e-12)
        assert np.all(phi > s)

    def test_rejects_bad_inputs(self, lr18):
        with pytest.raises(ValueError):
            dr.profile_phi(REF_A_18, 0.5, lr18)
        with pytest.raises(ValueError):
            dr.profile_phi(REF_A_18[:-1], 1.0, lr18)
        for b_n in (np.nan, np.inf):
            with pytest.raises(ValueError):
                dr.profile_phi(REF_A_18, b_n, lr18)
        for bad in (np.nan, np.inf):
            a = REF_A_18.copy()
            a[3] = bad
            with pytest.raises(ValueError):
                dr.profile_phi(a, 1.0, lr18)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self, lr10):
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = REF_A_10 * rng.uniform(0.7, 1.3, size=10)
            g = dr.profiled_gradient(a, lr10)
            fd = np.empty(10)
            for j in range(10):
                h = 1e-6 * a[j]
                ap, am = a.copy(), a.copy()
                ap[j] += h
                am[j] -= h
                fd[j] = (profiled_via_model(ap, 1.0, lr10) - profiled_via_model(am, 1.0, lr10)) / (2 * h)
            np.testing.assert_allclose(g, fd, atol=1e-4)

    def test_hessian_matches_finite_differences(self, lr10):
        rng = np.random.default_rng(22)
        a = REF_A_10 * rng.uniform(0.8, 1.2, size=10)
        H = dr.profiled_hessian(a, lr10)
        fd = np.empty((10, 10))
        for j in range(10):
            h = 1e-6 * a[j]
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd[:, j] = (dr.profiled_gradient(ap, lr10) - dr.profiled_gradient(am, lr10)) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-3, atol=1e-10)

    def test_hessian_symmetric_exactly(self, lr18):
        H = dr.profiled_hessian(REF_A_18, lr18)
        np.testing.assert_array_equal(H, H.T)

    def test_profiled_loglik_agrees_with_model_path(self, lr18):
        a = REF_A_18 * 1.1
        assert dr.profiled_loglik(a, lr18) == pytest.approx(
            profiled_via_model(a, 1.0, lr18), rel=1e-12
        )


class TestFit:
    def test_ten_year_reference(self, fit10):
        a = fit10.theta_hat.a
        np.testing.assert_allclose(a, REF_A_10, rtol=0.01)
        assert abs(a[0] - 1293.81) / 1293.81 < 0.01
        assert abs(a.sum() - 4512.0) / 4512.0 < 0.01
        np.testing.assert_allclose(fit10.theta_hat.phi, REF_PHI_10, atol=0.005)
        assert fit10.converged

    def test_eighteen_year_reference(self, fit18):
        a = fit18.theta_hat.a
        np.testing.assert_allclose(a, REF_A_18, rtol=0.01)
        assert abs(float(fit18.theta_hat.phi[-1]) - 0.643) < 0.005
        np.testing.assert_allclose(fit18.theta_hat.phi[-10:], REF_PHI_18_LAST10, atol=0.005)

    def test_tail_shape_fixed_at_boundary(self, fit10, fit18):
        assert fit10.theta_hat.b_n == 1.0
        assert fit18.theta_hat.b_n == 1.0

    @staticmethod
    def _synthetic(rng, n, m, a_true, b_true=1.0):
        phi_true = rng.uniform(0.6, 0.9, size=m)
        k = np.maximum(np.minimum(n, m + 1 - np.arange(1, m + 1)), 1)
        shapes = np.append(a_true, b_true)
        g = rng.gamma(shapes, size=(m, n + 1))
        comp = g[:, :n] / g.sum(axis=1, keepdims=True) * phi_true[:, None]
        grid = np.full((m, n), np.nan)
        for i in range(m):
            grid[i, : k[i]] = comp[i, : k[i]]
        return dr.LossRatioTriangle(range(1, m + 1), np.ones(m), grid)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the boundary-profile estimator is not consistent for the raw "
            "shape magnitudes: profiling the scales onto the support "
            "boundary adds a log(shape total) term per developed year, so "
            "estimates converge to about (n+1)/(n-1) times the generating "
            "values (verified numerically out to m=20000); the two-stage "
            "bootstrap correction exists to undo exactly this"
        ),
    )
    def test_synthetic_recovery_of_raw_shapes(self):
        rng = np.random.default_rng(23)
        a_true = np.array([40.0, 25.0, 15.0, 8.0])
        t = self._synthetic(rng, 4, 200, a_true)
        fit = dr.fit_mle(t)
        np.testing.assert_allclose(fit.theta_hat.a, a_true, rtol=0.05)

    def test_synthetic_recovery_of_shares_and_factors(self):
        # what the estimator does recover: the allocation pattern
        rng = np.random.default_rng(23)
        a_true = np.array([40.0, 25.0, 15.0, 8.0])
        t = self._synthetic(rng, 4, 200, a_true)
        fit = dr.fit_mle(t)
        a = fit.theta_hat.a
        np.testing.assert_allclose(a / a.sum(), a_true / a_true.sum(), rtol=0.05)
        inflation = a / a_true
        assert np.all(np.abs(inflation / inflation.mean() - 1.0) < 0.06)

    def test_loglik_decreasing_in_tail_shape(self, lr18, fit18):
        rng = np.random.default_rng(24)
        grids = [fit18.theta_hat.a, REF_A_18 * rng.uniform(0.5, 2.0, size=10)]
        for a in grids:
            vals = [profiled_via_model(a, b, lr18) for b in (1.0, 1.5, 2.0, 5.0)]
            assert np.all(np.diff(vals) <= 0)

    def test_optimum_beats_perturbed_starts(self, lr10, fit10):
        rng = np.random.default_rng(25)
        best = dr.profiled_loglik(fit10.theta_hat.a, lr10)
        for _ in range(5):
            a = fit10.theta_hat.a * rng.uniform(0.5, 2.0, size=10)
            assert dr.profiled_loglik(a, lr10) <= best + 1e-9

    def test_refits_agree_across_scaled_data(self, triangle10):
        # premium rescaling scales the ratios; the shape estimates move with
        # the data but stay the optimum of their own likelihood
        fit_a = dr.fit_mle(dr.to_loss_ratios(triangle10))
        fit_b = dr.fit_mle(dr.to_loss_ratios(triangle10))
        np.testing.assert_array_equal(fit_a.theta_hat.a, fit_b.theta_hat.a)

    def test_identification_error(self, triangle18):
        # dropping 1989-1997 leaves nine accident years, none reaching the
        # tenth development year
        t = dr.restrict_years(triangle18, 1998)
        with pytest.raises(IdentificationError):
            dr.fit_mle(dr.to_loss_ratios(t))

    def test_convergence_error(self, lr10, monkeypatch):
        monkeypatch.setattr(mle, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(mle, "_STEP_TOL", 1e-16)
        monkeypatch.setattr(mle, "_GRAD_TOL", 1e-16)
        with pytest.raises(ConvergenceError):
            dr.fit_mle(lr10)

    def test_roundoff_floor_stops_at_optimum(self, triangle18, lr18):
        # an 18x10 insurer drawn from the 18-year reference shapes whose
        # optimum sits where the profiled value's roundoff hides every
        # Newton gain: the gradient test alone never passes (max-norm
        # 1.79e-6) and backtracking finds no increase
        phi = np.concatenate((lr18.observed_cumulative()[:8], REF_PHI_18_LAST10))
        g = np.random.default_rng(122).gamma(np.append(REF_A_18, 1.0), size=(18, 11))
        ratios = g[:, :-1] / g.sum(axis=1, keepdims=True) * phi[:, None]
        losses = np.where(np.arange(10) < lr18.k[:, None], ratios * triangle18.premiums[:, None], np.nan)
        t = dr.to_loss_ratios(dr.RunOffTriangle(triangle18.years, triangle18.premiums, losses))
        fit = dr.fit_mle(t)
        assert fit.converged and fit.iterations <= 10
        assert fit.gradient_norm > 1e-6
        rng = np.random.default_rng(26)
        for _ in range(5):
            a = fit.theta_hat.a * (1.0 + 1e-3 * rng.standard_normal(10))
            assert dr.profiled_loglik(a, t) < fit.loglik

    def test_factors_match_reference_table(self, fit10):
        from conftest import REF_GAMMA_DIR_10

        got = np.array([dr.dev_factor(fit10.theta_hat, k) for k in range(1, 10)])
        np.testing.assert_allclose(got, REF_GAMMA_DIR_10, atol=0.002)


def _simulated(lr, fit, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([simulate_masked(fit.theta_hat, lr.k, rng) for _ in range(count)])


def _as_triangle(lr, sim):
    mask = np.arange(lr.n) < lr.k[:, None]
    return dr.LossRatioTriangle(lr.years, lr.premiums, np.where(mask, sim, np.nan))


class TestBatchEngine:
    @pytest.mark.parametrize("years", [10, 18])
    def test_batch_fit_equals_fits_alone(self, years, lr10, lr18, fit10, fit18):
        lr, fit = (lr10, fit10) if years == 10 else (lr18, fit18)
        # the last dataset is the triangle itself, which fit_mle fits alone
        sims = np.concatenate((_simulated(lr, fit, 40, 27), np.nan_to_num(lr.ratios)[None]))
        a, phi, ll, _, gnorm, ok = mle._fit_batch(sims, lr.k)
        assert ok.all()
        for i in range(sims.shape[0]):
            a1, phi1, _, _, _, ok1 = mle._fit_batch(sims[i : i + 1], lr.k)
            assert ok1[0]
            np.testing.assert_array_equal(a1[0], a[i])
            np.testing.assert_array_equal(phi1[0], phi[i])
        np.testing.assert_array_equal(a[-1], fit.theta_hat.a)
        np.testing.assert_array_equal(phi[-1], fit.theta_hat.phi)
        assert ll[-1] == fit.loglik
        assert gnorm[-1] == fit.gradient_norm

    @pytest.mark.parametrize("years", [10, 18])
    def test_batched_rows_match_single_dataset_oracles(self, years, lr10, lr18, fit10, fit18):
        lr, fit = (lr10, fit10) if years == 10 else (lr18, fit18)
        sims = _simulated(lr, fit, 12, 28)
        # near each dataset's optimum, where the profiled value is far from
        # zero and a relative tolerance is meaningful
        optima, *_ = mle._fit_batch(sims, lr.k)
        shapes = optima * np.random.default_rng(29).uniform(0.9, 1.1, size=(12, lr.n))
        stats = mle._Stats(sims, lr.k)
        ll, g, H = stats.loglik(shapes), stats.grad(shapes), stats.hess(shapes)
        for i in range(12):
            t = _as_triangle(lr, sims[i])
            assert ll[i] == dr.profiled_loglik(shapes[i], t)
            np.testing.assert_array_equal(g[i], dr.profiled_gradient(shapes[i], t))
            np.testing.assert_array_equal(H[i], dr.profiled_hessian(shapes[i], t))
            assert ll[i] == pytest.approx(profiled_via_model(shapes[i], 1.0, t), rel=1e-12)

"""Special-function accuracy against independent series oracles."""

import math

import numpy as np
import pytest

from dirichlet_reserving.special import digamma, log_gamma, regularized_incomplete_beta, trigamma


def euler_mascheroni(terms=200000):
    """Harmonic-sum oracle with Euler-Maclaurin tail correction."""
    k = np.arange(1, terms + 1, dtype=float)
    h = (1.0 / k).sum()
    return h - math.log(terms) - 0.5 / terms + 1.0 / (12.0 * terms**2)


def zeta2(terms=200000):
    """Partial sum of 1/k^2 with integral tail correction."""
    k = np.arange(1, terms + 1, dtype=float)
    s = (1.0 / k**2).sum()
    return s + 1.0 / terms - 0.5 / terms**2 + 1.0 / (6.0 * terms**3)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-12)

    def test_against_mpmath_grid(self):
        mp = pytest.importorskip("mpmath")
        for x in [1e-3, 0.02, 0.3, 1.5, 7.99, 8.0, 12.0, 123.4, 4512.28, 1e6]:
            exact = float(mp.loggamma(mp.mpf(x)))
            tol = max(1e-12, abs(exact) * 1e-13)
            assert log_gamma(x) == pytest.approx(exact, abs=tol)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, -2.0]))


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-euler_mascheroni(), abs=1e-11)

    def test_recurrence_step(self):
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_large(self):
        x = 1e5
        assert digamma(x) == pytest.approx(math.log(x) - 1.0 / (2 * x), abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(-1.0)


class TestTrigamma:
    def test_at_one_is_zeta2(self):
        assert trigamma(1.0) == pytest.approx(zeta2(), abs=1e-10)
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_recurrence_step(self):
        for x in [0.3, 1.0, 7.5, 42.0]:
            assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(-1.0 / x**2, abs=1e-10)

    def test_asymptotic_large(self):
        x = 1e5
        assert trigamma(x) == pytest.approx(1.0 / x + 1.0 / (2 * x**2), abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trigamma(0.0)


def test_recurrences_randomized():
    rng = np.random.default_rng(11)
    x = rng.uniform(1e-3, 1e4, size=500)
    np.testing.assert_allclose(log_gamma(x + 1.0) - log_gamma(x), np.log(x), atol=1e-10, rtol=1e-12)
    np.testing.assert_allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, atol=1e-10, rtol=1e-10)
    np.testing.assert_allclose(trigamma(x + 1.0) - trigamma(x), -1.0 / x**2, atol=1e-8, rtol=1e-8)


def test_derivative_chain():
    """digamma is the finite difference of log_gamma, trigamma of digamma."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0.05, 50.0, size=60)
    h = 1e-5
    fd1 = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
    np.testing.assert_allclose(digamma(x), fd1, atol=1e-6)
    fd2 = (digamma(x + h) - digamma(x - h)) / (2 * h)
    np.testing.assert_allclose(trigamma(x), fd2, atol=1e-6)


def test_vector_matches_scalar():
    x = np.array([0.5, 1.0, 9.7, 300.0])
    for f in (log_gamma, digamma, trigamma):
        np.testing.assert_array_equal(f(x), np.array([f(float(v)) for v in x]))


class TestIncompleteBetaArrays:
    """The array evaluation; its accuracy is checked in test_gof."""

    def test_broadcast_shapes(self):
        x = np.linspace(0.05, 0.95, 12).reshape(3, 1, 4)
        a = np.array([[0.5], [2.0]])
        b = np.array([1.5, 3.0, 40.0, 7.0])
        got = regularized_incomplete_beta(x, a, b)
        assert got.shape == (3, 2, 4)
        xb, ab, bb = np.broadcast_arrays(x, a, b)
        for idx in np.ndindex(got.shape):
            assert got[idx] == regularized_incomplete_beta(xb[idx], ab[idx], bb[idx])

    def test_endpoints_mixed_into_one_array(self):
        x = np.array([-0.5, 0.0, 0.25, 1.0, 1.5, 0.75])
        got = regularized_incomplete_beta(x, 2.0, 3.0)
        np.testing.assert_array_equal(got[[0, 1]], 0.0)
        np.testing.assert_array_equal(got[[3, 4]], 1.0)
        assert got[2] == regularized_incomplete_beta(0.25, 2.0, 3.0)
        assert 0.0 < got[2] < got[5] < 1.0

    def test_nonpositive_shape_anywhere_raises(self):
        x = np.full(5, 0.5)
        for bad in (0.0, -1.0):
            shapes = np.array([1.0, 2.0, bad, 4.0, 5.0])
            with pytest.raises(ValueError, match="positive"):
                regularized_incomplete_beta(x, shapes, 2.0)
            with pytest.raises(ValueError, match="positive"):
                regularized_incomplete_beta(x, 2.0, shapes)

    def test_elements_bit_equal_to_single_calls(self):
        rng = np.random.default_rng(12)
        a = 10 ** rng.uniform(-2, 4, size=400)
        b = 10 ** rng.uniform(-2, 4, size=400)
        x = rng.uniform(0.0, 1.0, size=400)
        got = regularized_incomplete_beta(x, a, b)
        want = [regularized_incomplete_beta(float(v), float(p), float(q)) for v, p, q in zip(x, a, b)]
        np.testing.assert_array_equal(got, want)

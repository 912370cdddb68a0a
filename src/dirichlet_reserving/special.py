"""Special functions of the reserving model, elementwise on numpy arrays:
log-gamma, digamma and trigamma on positive real arguments, by upward
recurrence to a shift threshold and the Bernoulli asymptotic expansion,
and the regularized incomplete beta, by a modified-Lentz continued
fraction (Press et al., *Numerical Recipes* 3rd ed., section 6.4).
"""

import math

import numpy as np

_SHIFT = 10.0

# Bernoulli-series coefficients of the asymptotic expansions, ordered by
# increasing power of 1/x.
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
_TRIGAMMA_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _prepare(x, name):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size and np.any(arr <= 0.0):
        raise ValueError(f"{name} requires a positive argument")
    return arr, scalar


def _shift_up(arr):
    """Shift every element to >= _SHIFT, returning the shifted values and
    the list of intermediate values consumed by the recurrence."""
    x = arr.copy()
    steps = []
    while True:
        low = x < _SHIFT
        if not low.any():
            break
        steps.append((low, x[low].copy()))
        x[low] += 1.0
    return x, steps


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    arr, scalar = _prepare(x, "log_gamma")
    y, steps = _shift_up(arr)
    inv2 = 1.0 / (y * y)
    tail = np.zeros_like(y)
    for c in reversed(_LGAMMA_COEF):
        tail = (tail + c) * inv2
    tail *= y  # series runs over odd powers 1/y, 1/y^3, ...
    out = (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + tail
    for low, vals in reversed(steps):
        out[low] -= np.log(vals)
    return float(out[0]) if scalar else out


def digamma(x):
    """Derivative of log_gamma for x > 0."""
    arr, scalar = _prepare(x, "digamma")
    y, steps = _shift_up(arr)
    inv2 = 1.0 / (y * y)
    tail = np.zeros_like(y)
    for c in reversed(_DIGAMMA_COEF):
        tail = (tail + c) * inv2
    out = np.log(y) - 0.5 / y - tail
    for low, vals in reversed(steps):
        out[low] -= 1.0 / vals
    return float(out[0]) if scalar else out


def trigamma(x):
    """Derivative of digamma for x > 0."""
    arr, scalar = _prepare(x, "trigamma")
    y, steps = _shift_up(arr)
    inv = 1.0 / y
    inv2 = inv * inv
    tail = np.zeros_like(y)
    for c in reversed(_TRIGAMMA_COEF):
        tail = (tail + c) * inv2
    out = inv + 0.5 * inv2 + tail * inv
    for low, vals in reversed(steps):
        out[low] += 1.0 / (vals * vals)
    return float(out[0]) if scalar else out


def _floor(v, tiny=1e-300):
    return np.where(np.abs(v) < tiny, tiny, v)


def _beta_fraction(a, b, x):
    """Modified Lentz continued fraction of the incomplete beta on 1-d
    arrays. An element leaves the working set once its own step converges,
    so its value does not depend on the other elements."""
    out = np.empty(x.shape)
    idx = np.arange(x.size)
    c = np.ones(x.shape)
    d = 1.0 / _floor(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        even = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        for coef in (even, odd):
            d = 1.0 / _floor(1.0 + coef * d)
            c = _floor(1.0 + coef / c)
            h = h * (d * c)
        live = np.abs(d * c - 1.0) >= 1e-15
        out[idx[~live]] = h[~live]
        idx, a, b, x, c, d, h = (v[live] for v in (idx, a, b, x, c, d, h))
        if not idx.size:
            return out
    out[idx] = h
    return out


def regularized_incomplete_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) on broadcast arguments: 0 at
    x <= 0, 1 at x >= 1, clipped into [0, 1]. The log-beta factor is taken
    before broadcasting, so shapes shared along an axis cost one triple."""
    scalar = all(np.ndim(v) == 0 for v in (x, a, b))
    a, _ = _prepare(a, "regularized_incomplete_beta")
    b, _ = _prepare(b, "regularized_incomplete_beta")
    lgamma = np.frompyfunc(math.lgamma, 1, 1)  # on a few values far cheaper than log_gamma
    log_beta = (lgamma(a) + lgamma(b) - lgamma(a + b)).astype(float)
    x, a, b, log_beta = np.broadcast_arrays(np.asarray(x, dtype=float), a, b, log_beta)
    out = np.where(x >= 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    x, a, b = x[inner], a[inner], b[inner]
    front = np.exp(a * np.log(x) + b * np.log1p(-x) - log_beta[inner])
    # evaluate on whichever side keeps the continued fraction fast-converging
    low = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(low, a, b)
    val = front * _beta_fraction(p, np.where(low, b, a), np.where(low, x, 1.0 - x)) / p
    out[inner] = np.clip(np.where(low, val, 1.0 - val), 0.0, 1.0)
    return float(out[0]) if scalar else out

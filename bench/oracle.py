"""mpmath references for the closed-form workload's gate.

Each formula is written out from its definition at 40 digits, on the same
float inputs the library receives, so it shares no code with ``hamsel.risk``.
Gaussian general and Bernoulli risks are computed from the literal selection
event x >= t rather than from the library's reductions.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from hamsel.model import Family

mp.mp.dps = 40
_UPPER_CONST = 2 + mp.sqrt(2 * mp.pi)


def _mpf(*values):
    return [mp.mpf(v) for v in values]


def _log_ratio(d, s):
    return mp.log(mp.mpf(d - s) / s)


def psi_plus(d, s, a, sigma=1.0):
    a, sigma = _mpf(a, sigma)
    r = mp.mpf(d - s) / s
    half, shift = a / (2 * sigma), sigma * _log_ratio(d, s) / a
    return r * mp.ncdf(-half - shift) + mp.ncdf(-half + shift)


def psi_two_sided(d, s, a, sigma=1.0):
    a, sigma = _mpf(a, sigma)
    r = mp.mpf(d - s) / s
    half, shift = a / (2 * sigma), sigma * _log_ratio(d, s) / a
    return r * mp.ncdf(-half - shift) + mp.ncdf(min(-half + shift, mp.mpf(0)))


def psi_bar(d, s, a, sigma=1.0):
    a, sigma = _mpf(a, sigma)
    r = mp.mpf(d - s) / s
    log_u = a * a / (2 * sigma * sigma) + _log_ratio(d, s)
    if log_u <= 0:
        return r
    q = (sigma / a) * mp.acosh(mp.exp(log_u))
    miss = mp.ncdf(q - a / sigma) - mp.ncdf(-q - a / sigma)
    return 2 * r * mp.ncdf(-q) + max(miss, mp.mpf(0))


def _poisson_below(k, lam):
    """P(X < k) for X ~ Poisson(lam)."""
    return mp.fsum(mp.exp(-lam) * lam**j / mp.factorial(j) for j in range(max(k, 0)))


def psi_general(family, d, s, a0, a1, sigma=1.0):
    """P_{a1}(x < t) + ((d-s)/s) P_{a0}(x >= t) at the likelihood-ratio cut t."""
    a0, a1, sigma = _mpf(a0, a1, sigma)
    r = mp.mpf(d - s) / s
    log_ratio = _log_ratio(d, s)
    if family is Family.GAUSSIAN:
        t = (a0 + a1) / 2 + sigma * sigma * log_ratio / (a1 - a0)
        return mp.ncdf((t - a1) / sigma) + r * mp.ncdf((a0 - t) / sigma)
    if family is Family.BERNOULLI:
        slope = mp.log((a1 / (1 - a1)) * ((1 - a0) / a0))
        t = (log_ratio - mp.log((1 - a1) / (1 - a0))) / slope
        if t <= 0:
            return r
        if t > 1:
            return mp.mpf(1)
        return (1 - a1) + r * a0
    t = (log_ratio + a1 - a0) / mp.log(a1 / a0)
    k = int(mp.ceil(t))
    return _poisson_below(k, a1) + r * (1 - _poisson_below(k, a0))


def delta_bounds(d, s, a, sigma=1.0):
    a, sigma = _mpf(a, sigma)
    w = a * a / (sigma * sigma) - 2 * _log_ratio(d, s)
    if w >= 0:
        delta = sigma * w / (2 * a)
        tail = mp.ncdf(-delta)
        return [w, delta, s * tail, _UPPER_CONST * s * tail]
    return [w, mp.mpf(0), mp.mpf(0), _UPPER_CONST * s / 2]


def wrong_recovery_bounds(d, s, a, sigma=1.0):
    sp = s * psi_plus(d, s, a, sigma)
    sb = s * psi_bar(d, s, a, sigma)
    st = 2 * s * psi_two_sided(d, s, a, sigma)
    return [sp, sb, st, sp / (1 + sp), sb / (1 + sb)]


def phase_point(d, s, sigma=1.0):
    """The boundaries, with w_star from its defining relation
    2 log((d-s)/s) + w_star = 2 (sqrt(log(d-s)) + sqrt(log s))^2."""
    sigma = mp.mpf(sigma)
    log_rest, log_s = mp.log(d - s), mp.log(s)
    t_star = sigma * mp.sqrt(2 * log_rest)
    a_exact = t_star + sigma * mp.sqrt(2 * log_s)
    w_star = 2 * (mp.sqrt(log_rest) + mp.sqrt(log_s)) ** 2 - 2 * _log_ratio(d, s)
    return [d, s, sigma * mp.sqrt(2 * _log_ratio(d, s)), a_exact, t_star, w_star]


_ORACLES = {
    f.__name__: f
    for f in (psi_plus, psi_two_sided, psi_bar, psi_general, delta_bounds, wrong_recovery_bounds, phase_point)
}


def reference_batch(calls) -> np.ndarray:
    """Reference values of one evaluation batch, flattened as run_batch does."""
    out = []
    for fn, args in calls:
        value = _ORACLES[fn.__name__](*args)
        out.extend(value if isinstance(value, list) else [value])
    return np.array([float(v) for v in out])

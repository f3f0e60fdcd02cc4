"""Scalar probability kernels with far-tail accuracy guarantees.

Every Gaussian or Poisson probability used by the risk formulas and the
selector thresholds funnels through this module.  The headline contract is
tail accuracy: risk expressions multiply very small tail probabilities by
factors as large as (d - s)/s, so a sloppy CDF in the far tail corrupts the
leading digits of the final answer.

Conventions
-----------
* ``gaussian_cdf`` keeps relative accuracy <= 1e-14 down to y = -37.  The
  libm ``erfc`` alone drifts to ~1e-13 beyond y ~ -25 (its argument squaring
  loses low bits), so below ``_ERFC_CUTOFF`` we switch to a Lentz-style
  continued fraction with a split-argument evaluation of exp(-y^2/2).
* Below roughly y = -37.6 the result itself falls into the subnormal range
  and relative accuracy degrades with it; values still saturate cleanly
  to 0.0.
"""

from __future__ import annotations

import math
import operator

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG2 = math.log(2.0)

# Below this point 0.5*erfc(-y/sqrt(2)) has lost the 1e-14 contract; the
# continued fraction takes over.  Chosen with margin: erfc is still ~6e-15
# accurate here while the continued fraction is ~1e-16.
_ERFC_CUTOFF = -8.0
_CF_TERMS = 40

# log(1 - Phi(y)) switches to the asymptotic expansion above this point.
_LOG_TAIL_CUTOFF = 35.0

# Poisson CDF: forward summation below, regularized incomplete gamma above.
# At lambda = 32 the leading term exp(-lambda) ~ 1.3e-14 is still a normal
# float and the summation needs only ~90 terms; the seam is tested.
_POISSON_SUM_MAX_LAMBDA = 32.0

# scipy.special, imported on first use above that seam: importing it would
# otherwise take most of the time of `import hamsel`.
_special = None


def _exp_neg_half_square(y: float) -> float:
    """exp(-y^2/2) with the argument split so y*y does not round.

    The high part keeps at most 26 significant bits (exact square), the low
    part is a small correction; each exp() call then contributes ~1 ulp
    instead of the |y|^2 * eps / 2 relative error of the naive form.
    Valid for 0 <= y < 64.
    """
    yh = round(y * 1048576.0) / 1048576.0  # 2^20 grid keeps yh^2 exact
    yl = y - yh
    return math.exp(-0.5 * yh * yh) * math.exp(-0.5 * yl * (y + yh))


def _gaussian_tail_cf(y: float) -> float:
    """Upper tail Q(y) = 1 - Phi(y) for y >= 8 via continued fraction.

    Q(y) = phi(y) / (y + 1/(y + 2/(y + 3/(...)))); 40 levels are far past
    convergence at y = 8 (the error is already below eps at 24 levels).
    """
    f = 0.0
    for k in range(_CF_TERMS, 0, -1):
        f = k / (y + f)
    return _exp_neg_half_square(y) / ((y + f) * _SQRT_2PI)


def gaussian_cdf(y: float) -> float:
    """Standard Gaussian CDF Phi(y).

    Parameters
    ----------
    y : float
        Evaluation point.  NaN is rejected; +-inf saturates to 1/0.

    Returns
    -------
    float
        Phi(y) in [0, 1], exactly 0.5 at y = 0, relative accuracy <= 1e-14
        for y >= -37 (see module docstring for the subnormal regime below).
    """
    if math.isnan(y):
        raise ValueError("gaussian_cdf: y must not be NaN")
    if y < _ERFC_CUTOFF:
        if y == -math.inf:
            return 0.0
        return _gaussian_tail_cf(-y)
    return 0.5 * math.erfc(-y / _SQRT2)


def log_gaussian_tail(y: float) -> float:
    """log(1 - Phi(y)), stable for arbitrarily large y.

    Diagnostic companion to :func:`gaussian_cdf` for regimes where even the
    tail-safe CDF underflows.  Uses the CDF directly up to y = 35, then the
    standard asymptotic expansion of Mills' ratio (four correction terms,
    absolute error below ~1e-12 at the seam and shrinking with y).
    """
    if math.isnan(y):
        raise ValueError("log_gaussian_tail: y must not be NaN")
    if y <= _LOG_TAIL_CUTOFF:
        return math.log(gaussian_cdf(-y))
    inv2 = 1.0 / (y * y)
    series = inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * 105.0)))
    return -0.5 * y * y - math.log(y) - math.log(_SQRT_2PI) + math.log1p(series)


def gaussian_tail_bounds(y: float) -> tuple[float, float]:
    """Two-sided elementary bracket of the Gaussian upper tail.

    Returns the pair

        lower = sqrt(2/pi) * exp(-y^2/2) / (y + sqrt(y^2 + 4))
        upper = sqrt(2/pi) * exp(-y^2/2) / (y + sqrt(y^2 + 8/pi))

    satisfying lower < 1 - Phi(y) <= upper for y >= 0, with equality on the
    upper side only at y = 0 where both sides are exactly 0.5.
    """
    if not (y >= 0.0):
        raise ValueError(f"gaussian_tail_bounds: need y >= 0, got {y}")
    e = _exp_neg_half_square(y)
    lower = _SQRT_2_OVER_PI * e / (y + math.sqrt(y * y + 4.0))
    upper = _SQRT_2_OVER_PI * e / (y + math.sqrt(y * y + 8.0 / math.pi))
    return lower, upper


def arccosh_exp(t: float) -> float:
    """arccosh(exp(t)) for t >= 0 without overflowing exp.

    For t <= 30 the direct composition is exact enough; beyond that
    arccosh(e^t) = t + log 2 - log((1 + sqrt(1 - e^{-2t}))/2) where the last
    correction is below 1e-26 and is dropped.  The two branches agree to
    machine precision at the seam.
    """
    if not (t >= 0.0):
        raise ValueError(f"arccosh_exp: need t >= 0, got {t}")
    if t <= 30.0:
        return math.acosh(math.exp(t))
    return _LOG2 + t


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) for X ~ Poisson(lam).

    Parameters
    ----------
    k : int
        Count; k = -1 is allowed and returns 0 (empty event).
    lam : float
        Rate, must be positive and finite.

    Returns
    -------
    float
        CDF value with absolute accuracy <= 1e-12 for lam <= 1e4.

    Notes
    -----
    Two routes, tested against each other at the seam: plain forward
    summation of the probability mass for lam <= 32 (the leading term
    exp(-lam) never underflows there, and terms past the mode decay
    geometrically so the loop exits early for huge k), and the regularized
    upper incomplete gamma Q(k+1, lam) = P(X <= k) above.
    """
    k = operator.index(k)
    if k < -1:
        raise ValueError(f"poisson_cdf: need k >= -1, got {k}")
    if not (lam > 0.0) or math.isinf(lam):
        raise ValueError(f"poisson_cdf: need finite lambda > 0, got {lam}")
    if k < 0:
        return 0.0
    if lam <= _POISSON_SUM_MAX_LAMBDA:
        term = math.exp(-lam)
        total = term
        for i in range(1, k + 1):
            term *= lam / i
            total += term
            if i > lam and term <= total * 1e-17:
                break
        return min(total, 1.0)
    global _special
    if _special is None:
        from scipy import special as _special
    return float(_special.gammaincc(k + 1, lam))

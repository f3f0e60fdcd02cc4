"""Scalar probability kernels with far-tail accuracy guarantees.

Every Gaussian or Poisson probability used by the risk formulas and the
selector thresholds funnels through this module.  The headline contract is
tail accuracy: risk expressions multiply very small tail probabilities by
factors as large as (d - s)/s, so a sloppy CDF in the far tail corrupts the
leading digits of the final answer.

Conventions
-----------
* The libm ``erfc`` drifts to ~1e-13 beyond y ~ -25 (its argument squaring
  loses low bits), so every Gaussian tail beyond 8 comes from one Mills
  ratio R(y) = Q(y)/phi(y) = 1/(y + 1/(y + 2/(y + ...))), 16 levels written
  out as one nested expression, times a split-argument exp(-y^2/2).
* ``gaussian_cdf(y, scale)`` is scale * Phi(y) to <= 1e-14 relative wherever
  that is a normal float; ``log_gaussian_tail`` uses log R(y) and never
  underflows.
"""

from __future__ import annotations

import math
import operator

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG2 = math.log(2.0)

# Beyond this point 0.5*erfc(-y/sqrt(2)) has lost the 1e-14 contract; the
# Mills ratio takes over.  Chosen with margin: erfc is still ~6e-15
# accurate here while the Mills route is ~2e-16.
_TAIL_CUTOFF = 8.0

# Poisson CDF: forward summation below, regularized incomplete gamma above.
# At lambda = 32 the leading term exp(-lambda) ~ 1.3e-14 is still a normal
# float and the summation needs only ~90 terms; the seam is tested.
_POISSON_SUM_MAX_LAMBDA = 32.0

# scipy.special, imported on first use above that seam: importing it would
# otherwise take most of the time of `import hamsel`.
_special = None


def _scaled_exp_neg_half_square(y: float, scale: float = 1.0) -> float:
    """scale * exp(-y^2/2) for y >= 0.  Below 64, yh (y rounded half-even to
    a 2^-20 grid by adding and removing 1.5 * 2^52) has at most 26 significant
    bits, so yh^2 is exact, and scale * e * e with e = exp(-yh^2/4) underflows
    only where the whole product does.  From 64 on e is 0.0, and the grid
    rounding holds only while y * 2^20 < 2^51."""
    if y >= 64.0:
        return 0.0
    yh = (y * 1048576.0 + 6755399441055744.0 - 6755399441055744.0) / 1048576.0
    e = math.exp(-0.25 * yh * yh)
    return scale * e * e * math.exp(-0.5 * (y - yh) * (y + yh))


def _inverse_mills_ratio(y: float) -> float:
    """1/R(y) = y + 1/(y + 2/(y + 3/(...))) for y >= 8, where the Gaussian
    upper tail is Q(y) = phi(y) R(y), to 16 levels: at y = 8, 14 levels
    truncate it at 5e-17 relative and 16 at 1.5e-18 (mpmath, 50 digits);
    deeper in the tail it converges faster."""
    return y + 1.0 / (y + 2.0 / (y + 3.0 / (y + 4.0 / (y + 5.0 / (y + 6.0 / (y + 7.0 / (
        y + 8.0 / (y + 9.0 / (y + 10.0 / (y + 11.0 / (y + 12.0 / (y + 13.0 / (
            y + 14.0 / (y + 15.0 / (y + 16.0 / y)))))))))))))))


def gaussian_cdf(y: float, scale: float = 1.0) -> float:
    """scale * Phi(y), Phi the standard Gaussian CDF.

    Parameters
    ----------
    y : float
        Evaluation point.  NaN is rejected; +-inf saturates to scale/0.
    scale : float
        Factor in (0, inf), else ValueError; applied before the far-tail
        exponentials, so a large one keeps digits scale * gaussian_cdf(y) would lose.

    Returns
    -------
    float
        scale * Phi(y), exactly scale/2 at y = 0, with relative accuracy
        <= 1e-14 wherever the result is a normal float.
    """
    if math.isnan(y):
        raise ValueError("gaussian_cdf: y must not be NaN")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"gaussian_cdf: need finite scale > 0, got {scale}")
    if y >= -_TAIL_CUTOFF:
        return scale * 0.5 * math.erfc(-y / _SQRT2)
    return _scaled_exp_neg_half_square(-y, scale) / (_inverse_mills_ratio(-y) * _SQRT_2PI)


def log_gaussian_tail(y: float) -> float:
    """log(1 - Phi(y)), stable for arbitrarily large y.

    Diagnostic companion to :func:`gaussian_cdf` for regimes where even the
    scaled CDF underflows: log Phi(-y) up to y = 8, and above it
    -y^2/2 - log sqrt(2 pi) + log R(y) on the same Mills ratio, which
    never underflows.
    """
    if math.isnan(y):
        raise ValueError("log_gaussian_tail: y must not be NaN")
    if y <= _TAIL_CUTOFF:
        return math.log(gaussian_cdf(-y))
    return -0.5 * y * y - _LOG_SQRT_2PI - math.log(_inverse_mills_ratio(y))


def gaussian_tail_bounds(y: float) -> tuple[float, float]:
    """Two-sided elementary bracket of the Gaussian upper tail.

    Returns the pair

        lower = sqrt(2/pi) * exp(-y^2/2) / (y + sqrt(y^2 + 4))
        upper = sqrt(2/pi) * exp(-y^2/2) / (y + sqrt(y^2 + 8/pi))

    satisfying lower < 1 - Phi(y) <= upper for y >= 0, with equality on the
    upper side only at y = 0 where both sides are exactly 0.5.  Both
    saturate to 0.0 for huge or infinite y.
    """
    if not (y >= 0.0):
        raise ValueError(f"gaussian_tail_bounds: need y >= 0, got {y}")
    e = _scaled_exp_neg_half_square(y)
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
    q = float(_special.gammaincc(k + 1, lam))
    if math.isnan(q):
        raise ValueError(f"poisson_cdf: no incomplete gamma value at k={k}, lambda={lam}")
    return q

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
* ``poisson_cdf`` (P(X <= k)) and ``poisson_sf`` (P(X >= k)) sum the tail on
  k's side of lambda from its first term outward, so it keeps its digits
  however small it is; the other tail is 1 minus that sum, used only where
  it is the larger.  Up to lambda = 32 the pmf comes from exp(-lambda) by
  recurrence, above it from Loader's saddle-point form ("Fast and accurate
  computation of binomial probabilities", 2000).  Rates are bounded by
  POISSON_RATE_MAX.  The module needs the standard library only.
"""

from __future__ import annotations

import math
import operator

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
_LOG2 = math.log(2.0)

# Beyond this point 0.5*erfc(-y/sqrt(2)) has lost the 1e-14 contract; the
# Mills ratio takes over.  Chosen with margin: erfc is still ~6e-15
# accurate here while the Mills route is ~2e-16.
_TAIL_CUTOFF = 8.0

# Up to this rate a Poisson pmf term comes from exp(-lambda) by the forward
# recurrence: exp(-32) ~ 1.3e-14 is still a normal float, and a tail needs
# only ~90 terms.  Above it the first term is Loader's saddle-point form.
_POISSON_SUM_MAX_LAMBDA = 32.0

# Largest Poisson rate.  A tail that starts near the mode sums about
# 9 sqrt(lambda) terms: ~2 ms at 1e7 and ~9 ms at 1e8 on a 2-vCPU Xeon VM
# (Python 3.11), so 1e7 keeps one tail well under 20 ms on a loaded box.
POISSON_RATE_MAX = 1e7


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
    return _phi(y, scale)


def _phi(y: float, scale: float = 1.0) -> float:
    """gaussian_cdf without its checks, for callers whose y is not NaN and
    whose scale is already in (0, inf)."""
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


# log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15 (mpmath, 50 digits);
# above 15 the Stirling series in _stirlerr is good to ~1e-17.
_STIRLERR = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n >= 1: the table, then the
    series 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7) + 1/(1188n^9)."""
    if n <= 15:
        return _STIRLERR[n - 1]
    x = float(n)
    nn = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / x


def _bd0(x: float, lam: float) -> float:
    """x log(x/lam) + lam - x >= 0, summed as a series in v = (x-lam)/(x+lam)
    near lam, where the direct form cancels (Loader 2000)."""
    diff = x - lam
    if abs(diff) < 0.1 * (x + lam):
        v = diff / (x + lam)
        total = diff * v
        odd = 2.0 * x * v
        v *= v
        j = 3.0
        while True:
            odd *= v
            nxt = total + odd / j
            if nxt == total:
                return total
            total = nxt
            j += 2.0
    return x * math.log(x / lam) - diff


def _poisson_pmf(k: int, lam: float) -> float:
    """P(X = k) for lam > 32 in Loader's saddle-point form
    exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k), relative error ~1e-15
    where it is a normal float."""
    if k == 0:
        return math.exp(-lam)
    x = float(k)
    return math.exp(-_stirlerr(k) - _bd0(x, lam)) / math.sqrt(2.0 * math.pi * x)


def _lower_tail(k: int, lam: float) -> float:
    """P(X <= k) for 0 <= k < lam, lam > 32: from the pmf at k down, term
    j-1 = term j * j/lam, until a term is below 1e-17 of the total."""
    term = _poisson_pmf(k, lam)
    total = term
    j = float(k)  # exact, as k < lam; a float counter keeps the loop cheap
    while term > total * 1e-17:  # ends at j = 0 too, where term becomes 0
        term *= j / lam
        total += term
        j -= 1.0
    return total


def _upper_tail(k: int, lam: float) -> float:
    """P(X >= k) for k > lam: from the pmf at k up, term j+1 = term j *
    lam/(j+1), until a term is below 1e-17 of the total.  Up to lam = 32
    the pmf comes from exp(-lam) by the forward recurrence.  A k past 2^62
    is taken as 2^62: the tail underflows to 0 long before, for every lam
    up to POISSON_RATE_MAX."""
    k = min(k, 1 << 62)
    if lam <= _POISSON_SUM_MAX_LAMBDA:
        term = math.exp(-lam)
        for i in range(1, k + 1):
            term *= lam / i
            if term == 0.0:
                return 0.0
    else:
        term = _poisson_pmf(k, lam)
    total = term
    j = float(k)  # exact while term is not 0: the pmf underflows before 2^53
    while term > total * 1e-17:
        j += 1.0
        term *= lam / j
        total += term
    return total


def _check_poisson(name: str, k, k_min: int, lam: float) -> int:
    """k as an int, at least k_min, and a rate in (0, POISSON_RATE_MAX]."""
    k = operator.index(k)
    if k < k_min:
        raise ValueError(f"{name}: need k >= {k_min}, got {k}")
    if not lam > 0.0:
        raise ValueError(f"{name}: need lambda > 0, got {lam}")
    if not lam <= POISSON_RATE_MAX:
        raise ValueError(f"{name}: lambda = {lam} is over the limit {POISSON_RATE_MAX}")
    return k


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) for X ~ Poisson(lam).

    Parameters
    ----------
    k : int
        Count; k = -1 is allowed and returns 0 (empty event).
    lam : float
        Rate in (0, POISSON_RATE_MAX], else ValueError.

    Returns
    -------
    float
        CDF value, within 1e-12 relative of mpmath wherever it is a
        normal float.

    Notes
    -----
    Up to lam = 32, the pmf summed forward from exp(-lam) (never subnormal
    there), stopping once past lam the terms are negligible.  Above it, a
    k below lam sums its own tail from k down (see _lower_tail); otherwise
    the value is 1 - poisson_sf(k + 1, lam), which is then at least ~1/2.
    """
    k = _check_poisson("poisson_cdf", k, -1, lam)
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
    if k < lam:
        return _lower_tail(k, lam)
    return 1.0 - _upper_tail(k + 1, lam)


def poisson_sf(k: int, lam: float) -> float:
    """P(X >= k) for X ~ Poisson(lam), the upper tail from k on.

    Parameters
    ----------
    k : int
        Count, at least 0; k = 0 returns 1 (the sure event).
    lam : float
        Rate in (0, POISSON_RATE_MAX], else ValueError.

    Returns
    -------
    float
        Tail value, within 1e-12 relative of mpmath wherever it is a
        normal float: a k above lam sums its own tail from k up (see
        _upper_tail), so the value keeps its digits however small it is;
        otherwise it is 1 - poisson_cdf(k - 1, lam), then at least ~1/2.
    """
    k = _check_poisson("poisson_sf", k, 0, lam)
    if k > lam:
        return _upper_tail(k, lam)
    return 1.0 - poisson_cdf(k - 1, lam)

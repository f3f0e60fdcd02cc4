"""mpmath references shared by the test modules."""

import mpmath as mp


def poisson_tail_exact(k: int, lam: float, upper: bool) -> mp.mpf:
    """P(X >= k) if upper else P(X <= k), X ~ Poisson(lam), from mpmath's
    regularized upper incomplete gamma Q: P(X <= k) = Q(k + 1, lam) and
    P(X >= k) = 1 - Q(k, lam), the difference taken with enough digits
    that at least 30 survive its cancellation; an upper tail below 1e-330,
    out of reach of a double, is returned as 0."""
    lam = mp.mpf(lam)
    if not upper:
        with mp.workdps(60):
            return +mp.gammainc(k + 1, a=lam, regularized=True)
    if k <= 0:
        return mp.mpf(1)
    for dps in (60, 360):
        with mp.workdps(dps):
            p = 1 - mp.gammainc(k, a=lam, regularized=True)
            if p > mp.mpf(10) ** (30 - dps):
                return +p
    return mp.mpf(0)

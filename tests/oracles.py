"""Independent references shared by the test modules: mpmath values, Monte
Carlo evaluations of the printed forms, an elementary Gaussian tail bracket,
quadrature values of the top-s risk and of a threshold rule's loss moments,
and the reduction of replayed MC error counts.  None of them is library code;
each checks a closed form or an estimate of :mod:`hamsel` by another route.
"""

import math

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.special

from hamsel import numkit
from hamsel.model import LossKind, LowerBound, TwoSided, _check_d_s, _check_snr, rng_stream
from hamsel.selectors import _crowd_llr, crowd_weights

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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
    e = numkit._scaled_exp_neg_half_square(y)
    lower = _SQRT_2_OVER_PI * e / (y + math.sqrt(y * y + 4.0))
    upper = _SQRT_2_OVER_PI * e / (y + math.sqrt(y * y + 8.0 / math.pi))
    return lower, upper


def psi_bar_printed_mc(
    d: int,
    s: int,
    a: float,
    sigma: float = 1.0,
    draws: int = 10_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """MC evaluation of PsiBar straight from the log-cosh event.

    Independent check on the arccosh reduction in risk.psi_bar: per draw,
    w = I[log cosh(a(a + sigma Z)/sigma^2) < cut]
      + ((d-s)/s) I[log cosh(a sigma Z/sigma^2) >= cut],
    cut = a^2/(2 sigma^2) + log((d-s)/s), using the stable
    log cosh(v) = |v| + log1p(e^{-2|v|}) - log 2.  Both indicators reuse one
    Z, the dependence is absorbed by the stderr of w.  Draws come from
    stream (seed, 0) in fixed chunks of 10^6, so a given (draws, seed) is
    reproducible.

    Returns (mean, stderr).
    """
    _check_d_s(d, s)
    _check_snr(a, sigma)
    if draws < 2:
        raise ValueError(f"need draws >= 2, got {draws}")
    ratio = (d - s) / s
    cut = a * a / (2.0 * sigma * sigma) + math.log((d - s) / s)
    rng = rng_stream(seed, 0)

    def log_cosh(v: np.ndarray) -> np.ndarray:
        av = np.abs(v)
        return av + np.log1p(np.exp(-2.0 * av)) - math.log(2.0)

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1_000_000
    while done < draws:
        k = min(chunk, draws - done)
        z = rng.standard_normal(k)
        arg_signal = a * (a + sigma * z) / (sigma * sigma)
        arg_null = a * z / sigma
        w = (log_cosh(arg_signal) < cut).astype(float)
        w += ratio * (log_cosh(arg_null) >= cut)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        done += k
    mean = total / draws
    var = max(total_sq - draws * mean * mean, 0.0) / (draws - 1)
    return mean, math.sqrt(var / draws)


def replay_reduction(errors, s: int, loss_kind: LossKind) -> tuple[float, float]:
    """(estimate, stderr) of replayed per-replication Hamming error counts
    under loss_kind, reduced as estimate_risk reports them: numpy's mean and
    std(ddof=1) / sqrt(n) of the float losses, and stderr 0.0 at n = 1."""
    errors = np.asarray(errors, dtype=float)
    if loss_kind is LossKind.NORMALIZED_HAMMING:
        losses = errors / s
    elif loss_kind is LossKind.WRONG_RECOVERY:
        losses = (errors != 0).astype(float)
    else:
        losses = errors
    n = len(losses)
    stderr = float(losses.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(losses.mean()), stderr


def threshold_loss_moments(p, spec, rho: float) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of the Hamming error count
    of the cut of Threshold spec (x >= t, or |x| >= t when two-sided) on a
    Gaussian LowerBound or TwoSided instance p, its noise equicorrelated at
    rho as the MC engine draws it.

    A TwoSided replication puts one sign on its whole support, each with
    probability 1/2.  Given the sign and Z0 = z the coordinates are
    independent: a support coordinate has mean m = +-a + c z and an
    off-support one m = c z, c = sigma sqrt(rho), with noise sd u = sigma
    sqrt(1-rho).  One with mean m is selected with probability
    P_sel(m) = Phi((m - t)/u), plus Phi((-m - t)/u) when two-sided, and
    missed with 1 - P_sel(m), formed as Phi((t - m)/u), less Phi((-t -
    m)/u) when two-sided.  So the count is Bin(s, P_miss) + Bin(d - s,
    P_sel(c z)), whose conditional cumulants are the two binomials' summed;
    the moments over the sign, mixed outside, and Z0 combine them on an
    801-node trapezoid on [-9, 9] per sign, its weights summed to 1.
    """
    sig = p.signal
    if isinstance(sig, LowerBound):
        levels = (sig.a,)
    elif isinstance(sig, TwoSided):
        levels = (sig.a, -sig.a)
    else:
        raise ValueError("threshold_loss_moments covers LowerBound and TwoSided signals only")
    d, s, sigma, t = p.d, p.s, p.sigma, spec.t
    z = np.linspace(-9.0, 9.0, 801)
    w = np.exp(-0.5 * z * z)
    w[[0, -1]] *= 0.5
    w = np.tile(w / (w.sum() * len(levels)), len(levels))
    c, u = sigma * math.sqrt(rho), sigma * math.sqrt(1.0 - rho)

    def phi(x):
        return 0.5 * scipy.special.erfc(-x / (u * math.sqrt(2.0)))

    def miss_and_select(m):
        miss, select = phi(t - m), phi(m - t)
        if spec.two_sided:
            low = phi(-t - m)
            miss, select = miss - low, select + low
        return miss, select

    cz = np.tile(c * z, len(levels))
    level = np.repeat(levels, z.size)
    k1 = k2 = k3 = k4 = 0.0
    for n, q in ((s, miss_and_select(level + cz)[0]), (d - s, miss_and_select(cz)[1])):
        var = n * q * (1.0 - q)
        k1, k2 = k1 + n * q, k2 + var
        k3, k4 = k3 + var * (1.0 - 2.0 * q), k4 + var * (1.0 - 6.0 * q * (1.0 - q))
    mean = float(w @ k1)
    delta = k1 - mean
    variance = float(w @ (k2 + delta**2))
    fourth = float(w @ (k4 + 3.0 * k2**2 + 4.0 * k3 * delta + 6.0 * k2 * delta**2 + delta**4))
    return mean, variance, fourth


def psi_crowd_mc(rates, d: int, s: int, replications: int, seed: int) -> tuple[float, float]:
    """MC evaluation of the crowd aggregator's per-item risk, the quantity
    risk.psi_crowd enumerates: vote vectors drawn under both hypotheses
    from stream (seed, 0), the on-support ones first, each decided by the
    library's own sum (selectors._crowd_llr), in the same order.

    Returns (mean, stderr) of miss + ((d-s)/s) false positive.
    """
    _check_d_s(d, s)
    if replications < 1:
        raise ValueError(f"need replications >= 1, got {replications}")
    ratio = (d - s) / s
    cut = math.log((d - s) / s)
    weights, intercept = crowd_weights(rates)
    m = len(rates)
    a0 = np.array([r[0] for r in rates])
    a1 = np.array([r[1] for r in rates])
    rng = rng_stream(seed, 0)
    votes_on = (rng.random((replications, m)) < a1).astype(float)
    votes_off = (rng.random((replications, m)) < a0).astype(float)
    miss_ind = (_crowd_llr(votes_on.T, weights, intercept) < cut).astype(float)
    fp_ind = (_crowd_llr(votes_off.T, weights, intercept) >= cut).astype(float)
    estimate = float(miss_ind.mean() + ratio * fp_ind.mean())
    stderr = math.sqrt(
        (miss_ind.var(ddof=1) + ratio * ratio * fp_ind.var(ddof=1)) / replications
    )
    return estimate, stderr


def top_s_risk(d: int, s: int, a: float, one_sided: bool = True) -> float:
    """Expected Hamming loss of the top-s rule under the least-favorable
    prior of LowerBound(a) (one-sided) or TwoSided(a), at sigma = 1.

    The rule keeps exactly s coordinates, so its loss is twice its misses.
    A support coordinate at x is left out iff at least s of the other d - 1
    exceed it, a count distributed as Bin(s-1, Q(x-a)) + Bin(d-s, Q(x)),
    Q the Gaussian upper tail.  So the risk is

        2 s  int phi(x - a) P(Bin(s-1, Q(x-a)) + Bin(d-s, Q(x)) >= s) dx.

    The two-sided rule ranks |x|: over y >= 0 the support density is
    phi(y-a) + phi(y+a), an on-support coordinate exceeds y with
    probability Q(y-a) + Q(y+a) and an off-support one with 2 Q(y).  The
    integral runs over the support density's mass to 12 standard
    deviations, by scipy's adaptive quadrature.
    """
    _check_d_s(d, s)
    counts = np.arange(s)
    ways = scipy.special.comb(s - 1, counts)

    def left_out(p_on: float, p_off: float) -> float:
        # P(K_on + K_off >= s) = sum_k P(K_on = k) P(K_off >= s - k), k <= s - 1
        on = ways * p_on**counts * (1.0 - p_on) ** (s - 1 - counts)
        return float(on @ scipy.special.bdtrc(s - 1 - counts, d - s, p_off))

    def phi(x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def q(x: float) -> float:
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    if one_sided:
        def integrand(x):
            return phi(x - a) * left_out(q(x - a), q(x))

        lo, hi = a - 12.0, a + 12.0
    else:
        def integrand(y):
            density = phi(y - a) + phi(y + a)
            return density * left_out(q(y - a) + q(y + a), 2.0 * q(y))

        lo, hi = max(0.0, a - 12.0), a + 12.0
    value, _ = scipy.integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 2.0 * s * value

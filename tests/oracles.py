"""Independent references shared by the test modules: mpmath values, among
them every threshold rule's error rates read from its selection event and
the Poisson CDF over a run of counts, Monte Carlo evaluations of the
printed forms, an elementary Gaussian tail bracket, quadrature values of
the top-s risk and of a threshold rule's loss moments and law, the
reduction of replayed MC error counts, the discrete llr cuts from the logs
of the rates, each selection rule read as written, and the tables of engine
and of selection test cases, each case checked to exercise its rule.  None
of them is library code; each checks a closed form or an estimate of
:mod:`hamsel` by another route.
"""

import math
from collections import namedtuple

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.special
import scipy.stats

from hamsel import numkit
from hamsel.model import (
    Adaptive, Family, Interval, LossKind, LowerBound, ProblemInstance, Threshold, TopS, TwoSided,
    _check_d_s, _check_snr, rng_stream,
)
from hamsel.selectors import _crowd_llr, adaptive_plan, crowd_weights, spec_for_kind

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def poisson_tail_exact(k: int, lam: float, upper: bool) -> mp.mpf:
    """P(X >= k) if upper else P(X <= k), X ~ Poisson(lam), from mpmath's
    regularized upper incomplete gamma Q: P(X <= k) = Q(k + 1, lam) and
    P(X >= k) = 1 - Q(k, lam), the difference taken with enough digits
    that at least 30 survive its cancellation; an upper tail below 1e-330,
    out of reach of a double, is returned as 0, at once where its bound
    e^-lam lam^k / k! / (1 - lam/(k + 1)) for k + 1 > lam is below it."""
    lam = mp.mpf(lam)
    if not upper:
        with mp.workdps(60):
            return +mp.gammainc(k + 1, a=lam, regularized=True)
    if k <= 0:
        return mp.mpf(1)
    with mp.workdps(60):
        if k + 1 > lam and k * mp.log(lam) - lam - mp.loggamma(k + 1) - mp.log(1 - lam / (k + 1)) < -760:
            return mp.mpf(0)  # log(1e-330) = -759.8
    for dps in (60, 360):
        with mp.workdps(dps):
            p = 1 - mp.gammainc(k, a=lam, regularized=True)
            if p > mp.mpf(10) ** (30 - dps):
                return +p
    return mp.mpf(0)


def poisson_cdf_exact(k0: int, n: int, lam: float) -> list:
    """[P(X <= k) for k in k0 .. k0 + n - 1], X ~ Poisson(lam), at 50
    digits: poisson_tail_exact at k0, then the pmf summed up from
    e^-lam lam^k0 / k0! by its recurrence, the last sum checked against
    poisson_tail_exact at k0 + n - 1."""
    with mp.workdps(50):
        rate = mp.mpf(lam)
        cdf = [poisson_tail_exact(k0, lam, upper=False)]
        pmf = mp.exp(k0 * mp.log(rate) - rate - mp.loggamma(k0 + 1))
        for k in range(k0 + 1, k0 + n):
            pmf = pmf * rate / k
            cdf.append(cdf[-1] + pmf)
        assert abs(cdf[-1] - poisson_tail_exact(k0 + n - 1, lam, upper=False)) < mp.mpf("1e-30")
    return cdf


def threshold_rates_exact(p, rule) -> tuple[mp.mpf, mp.mpf]:
    """(P_miss, P_sel) at rho = 0, at 60 digits, of a threshold rule on
    instance p: the chances that a support coordinate (at a, +-a with equal
    weight, or a1) is not selected and that a null one (at 0, or a0) is.

    rule is a Threshold spec, its cut t as given, or a kind whose cut is
    formed here: a Bernoulli or Poisson llr cut by llr_cut_exact, and a
    Gaussian one from a0 (0 off an Interval), a1 (a) and sigma: plus
    and llr x >= c, two-sided |x| >= max(c, 0), c = (a0 + a1)/2 + sigma^2
    log((d-s)/s)/(a1 - a0); universal |x| >= sigma sqrt(2 log d); cosh |x|
    >= (sigma^2/a) arccosh(max(u, 1)), u = e^{a^2/(2 sigma^2)} (d-s)/s.  The
    event is read literally: a Gaussian x of mean m is selected with chance
    Phi((m - t)/sigma), plus Phi((-t - m)/sigma) on |x|; a Bernoulli one on
    the atoms 0 and 1 at or above t; a Poisson one on the counts from
    k = ceil(t), its two tails from poisson_tail_exact.
    """
    sig = p.signal
    a0, a1 = (sig.a0, sig.a1) if isinstance(sig, Interval) else (0.0, sig.a)
    with mp.workdps(60):
        if isinstance(rule, Threshold):
            t, two_sided = mp.mpf(rule.t), rule.two_sided
        elif rule == "llr" and p.family is not Family.GAUSSIAN:
            t, two_sided = llr_cut_exact(p), False
        else:
            sigma, a, ratio = mp.mpf(p.sigma), mp.mpf(a1) - a0, mp.mpf(p.d - p.s) / p.s
            c = (mp.mpf(a0) + a1) / 2 + sigma**2 * mp.log(ratio) / a
            u = mp.e ** (a**2 / (2 * sigma**2)) * ratio
            t, two_sided = {
                "plus": (c, False), "llr": (c, False), "two-sided": (max(c, 0), True),
                "universal": (sigma * mp.sqrt(2 * mp.log(p.d)), True),
                "cosh": (sigma**2 / a * mp.acosh(max(u, 1)), True),
            }[rule]

        def rates(m):  # (P_m(miss), P_m(select))
            m = mp.mpf(m)
            if p.family is Family.GAUSSIAN:
                low = mp.ncdf((-t - m) / p.sigma) if two_sided else 0
                return mp.ncdf((t - m) / p.sigma) - low, mp.ncdf((m - t) / p.sigma) + low
            if p.family is Family.BERNOULLI:
                return (1 - m) * (t > 0) + m * (t > 1), (1 - m) * (t <= 0) + m * (t <= 1)
            k = int(mp.ceil(t))
            miss = poisson_tail_exact(k - 1, m, upper=False) if k >= 1 else mp.mpf(0)
            return miss, poisson_tail_exact(k, m, upper=True)

        levels = (a1, -a1) if isinstance(sig, TwoSided) else (a1,)
        return mp.fsum(rates(m)[0] for m in levels) / len(levels), rates(a0)[1]


def llr_cut_exact(p) -> mp.mpf:
    """The llr cut t of a Bernoulli or Poisson Interval(a0, a1) instance p
    at 60 digits, formed in log space from the likelihood ratio as written:
    x slope + intercept >= log((d-s)/s) iff x >= t, with slope
    log a1 - log(1-a1) + log(1-a0) - log a0 and intercept
    log(1-a1) - log(1-a0) for a Bernoulli, log a1 - log a0 and a0 - a1 for
    a Poisson observation.  No quotient of the rates is formed, so no
    overflow or underflow of one can move the cut."""
    with mp.workdps(60):
        a0, a1 = mp.mpf(p.signal.a0), mp.mpf(p.signal.a1)
        log_ratio = mp.log(mp.mpf(p.d - p.s) / p.s)
        if p.family is Family.BERNOULLI:
            intercept = mp.log(1 - a1) - mp.log(1 - a0)
            slope = mp.log(a1) - mp.log(a0) - intercept
        else:
            slope, intercept = mp.log(a1) - mp.log(a0), a0 - a1
        return (log_ratio - intercept) / slope


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


def _threshold_error_rates(p, spec, rho: float):
    """Mixture weights w and, at each node, the probabilities that a
    support coordinate is missed and that an off-support one is selected
    by the cut of Threshold spec on instance p, given the node.

    Gaussian: a node is a global sign and a value z of the common factor
    Z0.  A TwoSided replication puts one sign on its whole support, each
    with probability 1/2, the sign mixed outside Z0.  Given the sign and
    Z0 = z the coordinates are independent: a support coordinate has mean
    m = level + c z (level = a, +-a or a1) and an off-support one m = base
    + c z (base = a0 on an Interval, else 0), c = sigma sqrt(rho), with
    noise sd u = sigma sqrt(1-rho).  One with mean m is selected with
    probability P_sel(m) = Phi((m - t)/u), plus Phi((-m - t)/u) when
    two-sided, and missed with 1 - P_sel(m), formed as Phi((t - m)/u), less
    Phi((-t - m)/u) when two-sided.  Z0 runs over an 801-node trapezoid
    on [-9, 9] per sign, its weights summed to 1.

    Bernoulli and Poisson (rho = 0, a cut x >= t on an Interval(a0, a1)
    class): one node, P_miss = P_a1(X < t) and P_sel = P_a0(X >= t) from
    threshold_rates_exact.
    """
    sig, t = p.signal, spec.t
    if p.family is not Family.GAUSSIAN:
        if rho != 0.0 or spec.two_sided:
            raise ValueError("Bernoulli and Poisson laws cover a one-sided cut at rho = 0 only")
        return np.ones(1), *(np.array([float(q)]) for q in threshold_rates_exact(p, spec))
    if isinstance(sig, LowerBound):
        base, levels = 0.0, (sig.a,)
    elif isinstance(sig, TwoSided):
        base, levels = 0.0, (sig.a, -sig.a)
    else:
        base, levels = sig.a0, (sig.a1,)
    sigma = p.sigma
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
    return w, miss_and_select(level + cz)[0], miss_and_select(base + cz)[1]


def threshold_loss_moments(p, spec, rho: float) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of the Hamming error count
    of the cut of Threshold spec (x >= t, or |x| >= t when two-sided) on a
    Gaussian LowerBound, TwoSided or Interval instance p, its noise
    equicorrelated at rho as the MC engine draws it, or on a Bernoulli or
    Poisson Interval instance at rho = 0.

    Given a node of _threshold_error_rates the count is Bin(s, P_miss) +
    Bin(d - s, P_sel), whose conditional cumulants are the two binomials'
    summed; the moments over the nodes combine them.
    """
    d, s = p.d, p.s
    w, miss, select = _threshold_error_rates(p, spec, rho)
    k1 = k2 = k3 = k4 = 0.0
    for n, q in ((s, miss), (d - s, select)):
        var = n * q * (1.0 - q)
        k1, k2 = k1 + n * q, k2 + var
        k3, k4 = k3 + var * (1.0 - 2.0 * q), k4 + var * (1.0 - 6.0 * q * (1.0 - q))
    mean = float(w @ k1)
    delta = k1 - mean
    variance = float(w @ (k2 + delta**2))
    fourth = float(w @ (k4 + 3.0 * k2**2 + 4.0 * k3 * delta + 6.0 * k2 * delta**2 + delta**4))
    return mean, variance, fourth


def threshold_loss_pmf(p, spec, rho: float = 0.0) -> np.ndarray:
    """pmf over 0..d of the Hamming error count of the cut of Threshold
    spec on instance p, its noise equicorrelated at rho as the MC engine
    draws it: at each node of _threshold_error_rates the convolution of
    Bin(s, P_miss) and Bin(d - s, P_sel), mixed over the nodes (a TwoSided
    class's two signs and, at rho > 0, the common factor Z0)."""
    d, s = p.d, p.s
    w, miss, select = _threshold_error_rates(p, spec, rho)
    on = scipy.stats.binom.pmf(np.arange(s + 1)[:, None], s, miss)
    off = scipy.stats.binom.pmf(np.arange(d - s + 1)[:, None], d - s, select)
    pmf = np.zeros(d + 1)
    for k in range(s + 1):  # k misses: the mixture of k + Bin(d - s, P_sel)
        pmf[k : k + d - s + 1] += off @ (w * on[k])
    return pmf


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


# A named MC engine case: instance p, selector spec and the rho values it is checked at, tagged by
# family, class (lower, two or interval), selector kind and the side ("x" or "|x|") its rule reads
EngineCase = namedtuple("EngineCase", "name family cls kind side p spec rhos")


def check_engine_case(name: str, p, spec, rhos) -> None:
    """Refuse, naming why, a case whose rule cannot both select and drop a
    coordinate: at each rho a threshold's error count has a mean
    (threshold_loss_moments) strictly between 0 and d and a variance above
    0, which a cut outside the range of the data it cuts, selecting every
    coordinate or none, fails; top-s keeps 1 to d - 1 coordinates; the
    adaptive band cuts are positive and finite."""
    where = f"{name} at (d, s) = ({p.d}, {p.s})"
    if isinstance(spec, Threshold):
        for rho in rhos:
            mean, variance, _ = threshold_loss_moments(p, spec, rho)
            if not (0.0 < mean < p.d and variance > 0.0):
                raise ValueError(f"{where}, rho {rho}: error count mean {mean:.3g}, variance {variance:.3g}")
    elif isinstance(spec, TopS):
        if not 0 < spec.s < p.d:
            raise ValueError(f"{where}: top-{spec.s} of {p.d} coordinates cannot both select and drop")
    elif not all(0.0 < t < math.inf for t in adaptive_plan(p.d, spec.s_star, p.sigma).thresholds):
        raise ValueError(f"{where}: an adaptive band cut is not positive and finite")


def engine_cases(
    d: int, s: int, a: float = 3.0, sigma: float = 1.0, names=None, rates=None, check=True
) -> dict:
    """The engine cases at (d, s) by name, each checked as it is made
    (check_engine_case) unless check is false; names, if given, picks the
    ones made, and rates, if given, maps "bernoulli" or "poisson" to the
    (a0, a1) of that class in place of its own.

    "gaussian-<class>-<kind>" at rho 0, 0.5 and 0.9: LowerBound(a),
    TwoSided(a) and Interval(-0.5, a - 0.5) at sigma, each run by
    LowerBound(a)'s plus, two-sided and cosh cuts, top-s on x and on |x|,
    the universal cut, adaptive (from d = 8, budget min(2s, 16, d/4)) and,
    but on TwoSided, llr.  "<family>-<kind>" at rho 0: Bernoulli
    Interval(e, 1 - e), e = min(r, 1) / (2 + 2r), r = (d - s)/s, whose llr
    cut lies in (0, 1) at every (d, s), and Poisson Interval(1, 3), each
    run by top-s, x >= 1 (plus) and llr."""
    r = _check_d_s(d, s)
    e = 0.5 * min(r, 1.0) / (1.0 + r)
    rates = {"bernoulli": (e, 1.0 - e), "poisson": (1.0, 3.0), **(rates or {})}
    lower = ProblemInstance(d, s, LowerBound(a), sigma=sigma)
    shared = {kind: spec_for_kind(kind, lower) for kind in ("plus", "two-sided", "cosh", "tops", "universal")}
    shared["tops-abs"] = TopS(s, one_sided=False)
    if d >= 8:
        shared["adaptive"] = Adaptive(max(2, min(2 * s, 16, d // 4)))
    classes = [
        ("gaussian-lower", lower),
        ("gaussian-two", ProblemInstance(d, s, TwoSided(a), sigma=sigma)),
        ("gaussian-interval", ProblemInstance(d, s, Interval(-0.5, a - 0.5), sigma=sigma)),
        ("bernoulli", ProblemInstance(d, s, Interval(*rates["bernoulli"]), Family.BERNOULLI)),
        ("poisson", ProblemInstance(d, s, Interval(*rates["poisson"]), Family.POISSON)),
    ]
    table = {}
    for prefix, p in classes:
        gaussian = p.family is Family.GAUSSIAN
        specs = dict(shared) if gaussian else {"tops": TopS(s), "plus": Threshold(1.0)}
        if not isinstance(p.signal, TwoSided):
            specs["llr"] = spec_for_kind("llr", p)
        rhos = (0.0, 0.5, 0.9) if gaussian else (0.0,)
        cls = {LowerBound: "lower", TwoSided: "two", Interval: "interval"}[type(p.signal)]
        for kind, spec in specs.items():
            name = f"{prefix}-{kind}"
            if names is None or name in names:
                if check:
                    check_engine_case(name, p, spec, rhos)
                side = "|x|" if kind in ("two-sided", "cosh", "tops-abs", "universal", "adaptive") else "x"
                table[name] = EngineCase(name, p.family.value, cls, kind, side, p, spec, rhos)
    return table


def selection_rule(spec, row, sigma: float = 1.0) -> tuple[list, dict]:
    """The selection of spec on one row of observations, read as written,
    and the diagnostics select_row gives with it: (bits, diagnostics).

    Threshold: x >= t, or |x| >= t when two-sided.  TopS: the first s
    entries of a stable argsort of -key, key x or |x|.  Adaptive(s_star) at
    d = len(row): grid g_k = 2^(k-1) up to s_star, k = 1..M, cuts
    w(g) = sigma sqrt(2 log((d-g)/g)), tau = log((d-s_star)/s_star)^(-1/7),
    band counts N_k = #{w(g_k) <= |x| < w(g_{k-1})} for k = 2..M, m_hat =
    min{m : N_k <= tau g_k for every k in m..M} or M when no m qualifies,
    and the selection |x| >= w(g_m_hat).
    """
    x = [float(v) for v in row]
    if isinstance(spec, Threshold):
        key = [abs(v) for v in x] if spec.two_sided else x
        return [v >= spec.t for v in key], {"threshold_used": spec.t}
    if isinstance(spec, TopS):
        bits = np.zeros(len(x), dtype=bool)
        bits[np.argsort(-(np.array(x) if spec.one_sided else np.abs(x)), kind="stable")[: spec.s]] = True
        return bits.tolist(), {"threshold_used": None}
    d, s_star, grid = len(x), spec.s_star, [1]
    while 2 * grid[-1] <= s_star:
        grid.append(2 * grid[-1])
    m_cap, absx = len(grid), [abs(v) for v in x]
    w = [sigma * math.sqrt(2.0 * math.log((d - g) / g)) for g in grid]
    tau = math.log((d - s_star) / s_star) ** (-1.0 / 7.0)
    counts = {k: sum(w[k - 1] <= v < w[k - 2] for v in absx) for k in range(2, m_cap + 1)}
    m_hat = min([m for m in range(2, m_cap + 1)
                 if all(counts[k] <= tau * grid[k - 1] for k in range(m, m_cap + 1))], default=m_cap)
    diagnostics = {"chosen_m": m_hat, "grid": grid, "thresholds": w, "tau": tau,
                   "block_counts": counts, "threshold_used": w[m_hat - 1]}
    return [v >= w[m_hat - 1] for v in absx], diagnostics


# A named selection case: a spec, the family and sigma it runs at, and a (rows, d) block of observations
SelectionCase = namedtuple("SelectionCase", "name spec family sigma rows")


def check_selection_case(case) -> None:
    """Refuse, naming why, a case whose rows cannot tell its rule from a
    near miss: a threshold needs a key (x, or |x| when two-sided) exactly on
    its cut; top-s a row with more than s keys at or above its s-th key, so
    the tie fill decides; adaptive a row whose selection_rule picks m_hat < M
    and an entry on a band cut."""
    spec, rows = case.spec, case.rows
    if isinstance(spec, Threshold):
        if not ((np.abs(rows) if spec.two_sided else rows) == spec.t).any():
            raise ValueError(f"{case.name}: no key lies on the cut {spec.t}")
    elif isinstance(spec, TopS):
        keys = rows if spec.one_sided else np.abs(rows)
        if not ((keys >= -np.sort(-keys)[:, spec.s - 1, None]).sum(axis=1) > spec.s).any():
            raise ValueError(f"{case.name}: no row ties at its top-{spec.s} key")
    else:
        picks = [selection_rule(spec, row, case.sigma)[1] for row in rows]
        if not any(diag["chosen_m"] < len(diag["grid"]) for diag in picks):
            raise ValueError(f"{case.name}: no row picks m_hat < M")
        if not np.isin(np.abs(rows), picks[0]["thresholds"]).any():
            raise ValueError(f"{case.name}: no entry lies on a band cut")


def selection_cases() -> dict:
    """The selection cases by name, each checked as it is made
    (check_selection_case): "cut-<t>" and "cut-abs-<t>", Gaussian rows of
    t, -t, each one ulp either side, +-0 and spread values; cuts on the
    atoms of 0/1 and count data; "tops-12-s<s>" and "tops-abs-12-s<s>" at
    every s < 12 on a block of ties (a constant row, ties at the s-th key,
    +-0, rounded normals), and a few s on 0/1 and count data;
    "adaptive-<d>-s<s_star>", Gaussian rows with hot coordinates, a row
    with three entries on each band cut and a row that overfills band M."""
    rng, cases = rng_stream(60, 0), []
    for t in (1.0, 1.5, 0.0, -0.0, 5e-324, -1.5, -1e308, 1e308):
        up, down = math.nextafter(t, math.inf), math.nextafter(t, -math.inf)
        row = [t, up, down, -t, -up, -down, 0.0, -0.0, 5e-324, -5e-324, 0.1, 2.3, -1.0, -5.0]
        rows = np.array([row, [-v for v in row[::-1]], t + rng.normal(0.0, 1.0, len(row))])
        cases.append(SelectionCase(f"cut-{t!r}", Threshold(t), Family.GAUSSIAN, 1.0, rows))
        if t >= 0.0:
            cases.append(SelectionCase(f"cut-abs-{t!r}", Threshold(t, True), Family.GAUSSIAN, 1.0, rows))
    bits = (rng.random((3, 50)) < 0.3).astype(float)
    counts = rng.poisson(1.5, size=(3, 80)).astype(float)
    mixed = rng.poisson(np.where(rng.random((3, 200)) < 0.05, 6.0, 1.0)).astype(float)
    for family, rows, cuts in ((Family.BERNOULLI, bits, (0.0, 1.0)),
                               (Family.POISSON, counts, (0.0, 2.0, 3.0))):
        cases += [SelectionCase(f"{family.value}-cut-{t!r}", Threshold(t), family, 1.0, rows) for t in cuts]
    ties = np.array(
        [np.ones(12), [3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.0, 1.0, 2.0, 1.0, -1.0, 1.0],
         [2.0, 1.0, 1.0, 1.0, 0.0, 1.0] * 2, [0.0, -0.0] * 6,
         [-2.0, 2.0, 0.0, -0.0, 2.0, -2.0, 1.0, -1.0, 0.0, 2.0, -0.0, 1.0],
         [-3.0, 3.0, -3.0, 1.0, 3.0, 0.5, 2.0, -1.0, 1.0, 1.0, 0.0, 0.0], rng.normal(0.0, 1.0, 12)]
        + [np.round(rng.normal(0.0, 1.0, 12)) for _ in range(8)]
    )
    for s in range(1, 12):
        cases.append(SelectionCase(f"tops-12-s{s}", TopS(s), Family.GAUSSIAN, 1.0, ties))
        cases.append(SelectionCase(f"tops-abs-12-s{s}", TopS(s, False), Family.GAUSSIAN, 1.0, ties))
    for family, rows, sizes in ((Family.BERNOULLI, bits, (1, 5, 25, 49)),
                                (Family.POISSON, counts, (1, 5, 40, 79)),
                                (Family.POISSON, mixed, (1, 10, 100, 199))):
        cases += [SelectionCase(f"tops-{rows.shape[1]}-s{s}", TopS(s), family, 1.0, rows) for s in sizes]
    for d, s_star, sigma in ((256, 16, 1.0), (256, 8, 1.0), (64, 8, 2.5)):
        w = adaptive_plan(d, s_star, sigma).thresholds
        x = rng.normal(0.0, 1.5 * sigma, size=(12, d))
        hot = rng.integers(0, d, size=(12, 6))
        x[np.arange(12)[:, None], hot] += rng.normal(0.0, 4.0 * sigma, size=hot.shape)
        edges, full = np.zeros(d), np.zeros(d)
        edges[: 3 * len(w)] = np.repeat(w, 3) * np.tile([1.0, -1.0, 1.0], len(w))
        full[:s_star] = -(w[-1] + w[-2]) / 2.0  # g_M entries mid band M: tau < 1 fails it
        rows = np.vstack([x, edges, full])
        cases.append(SelectionCase(f"adaptive-{d}-s{s_star}", Adaptive(s_star), Family.GAUSSIAN, sigma, rows))
    for case in cases:
        check_selection_case(case)
    return {case.name: case for case in cases}

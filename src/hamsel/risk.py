"""Closed-form risks, recovery bounds, and phase-boundary signal levels.

Every Psi function returns the maximal risk per signal coordinate: the
worst-case expected Hamming loss of the corresponding selector over its
class is s * Psi.  All formulas follow the closed ``>= t`` selection
convention of :mod:`hamsel.selectors`; for the discrete families this
matters at atoms and the two modules are kept consistent bit for bit, the
crowd rule included: psi_crowd decides each vote pattern with the
log-likelihood sum crowd_selector runs.
The Gaussian forms read a and sigma only through r = a/sigma, so
f(d, s, a, sigma) = f(d, s, a/sigma, 1) exactly.  threshold_risk gives every
named threshold rule's risk from _psi_cut (a cut on x) or _two_sided_cut (|x|).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import numkit
from .model import (
    Family,
    Interval,
    LowerBound,
    ProblemInstance,
    _check_d_s,
    _check_family,
    _check_finite,
    _check_interval,
    _check_positive,
    _check_rates,
    _check_snr,
)
from .selectors import _cosh_cut, _crowd_llr, _llr_cut, crowd_weights, spec_for_kind

_UPPER_CONST = 2.0 + math.sqrt(2.0 * math.pi)


def _psi_cut(ratio: float, r: float) -> tuple[float, float]:
    """(Psi+, Psi) at ratio = (d-s)/s and r = a/sigma from one cut.  Psi clips
    the miss argument at 0, so where it is positive Psi's miss term is Phi(0).

    A positive false-positive argument is the case log u <= 0 of psi_bar,
    where PsiBar is exactly (d-s)/s.  There the value is (d-s)/s less the
    rule's gain over selecting everything, ((d-s)/s) Phi(-fp) - Phi(miss) >= 0,
    so it cannot round above PsiBar; the miss argument is negative, Psi = Psi+.
    """
    half = r / 2.0
    shift = math.log(ratio) / r
    fp = -half - shift
    miss = -half + shift
    if fp > 0.0:
        gain = numkit._phi(-fp, ratio) - numkit._phi(miss)
        plus = ratio - max(gain, 0.0)
        return plus, plus
    tail = numkit._phi(fp, ratio)
    plus = tail + numkit._phi(miss)
    return plus, (tail + 0.5 if miss > 0.0 else plus)


def psi_plus(d: int, s: int, a: float, sigma: float = 1.0) -> float:
    """Exact maximal risk per signal coordinate of the one-sided selector.

    Psi+ = ((d-s)/s) Phi(-a/(2 sigma) - sigma log((d-s)/s)/a)
         + Phi(-a/(2 sigma) + sigma log((d-s)/s)/a),

    the false-positive and miss probabilities of the threshold
    a/2 + sigma^2 log((d-s)/s)/a, the first weighted by (d-s)/s.
    """
    return _psi_cut(_check_d_s(d, s), _check_snr(a, sigma))[0]


def psi_two_sided(d: int, s: int, a: float, sigma: float = 1.0) -> float:
    """Two-sided lower-bound rate: Psi+ with the miss argument clipped at 0."""
    return _psi_cut(_check_d_s(d, s), _check_snr(a, sigma))[1]


def _two_sided_cut(ratio: float, q: float, r: float) -> float:
    """Psi of the rule |x| >= sigma q at ratio = (d-s)/s and r = a/sigma (or -a)."""
    if q == 0.0:
        return ratio
    term_miss = numkit._phi(q - r) - numkit._phi(-q - r)
    # checked: 2 (d-s)/s overflows to inf for (d-s)/s above DBL_MAX/2
    return numkit.gaussian_cdf(-q, 2.0 * ratio) + max(term_miss, 0.0)


def psi_bar(d: int, s: int, a: float, sigma: float = 1.0) -> float:
    """Exact maximal risk per signal coordinate of the symmetric selector.

    The log-cosh selection event reduces, for u = e^{a^2/(2 sigma^2)} (d-s)/s,
    to |x| >= sigma q with q = (sigma/a) arccosh(u).  Then

        PsiBar = ((d-s)/s) 2 Phi(-q) + [Phi(q - a/sigma) - Phi(-q - a/sigma)].

    For u <= 1 the selector keeps every coordinate, so the value is exactly
    (d-s)/s: no misses, all d-s off-support coordinates wrong.
    """
    ratio, r = _check_d_s(d, s), _check_snr(a, sigma)
    return _two_sided_cut(ratio, _cosh_cut(r, math.log(ratio)), r)


def psi_general(
    family: Family, d: int, s: int, a0: float, a1: float, sigma: float = 1.0
) -> float:
    """Maximal risk per signal coordinate of the likelihood-ratio selector.

    Computed as P_{a1}(no select) + ((d-s)/s) P_{a0}(select) with the
    family's observation-scale cut from :func:`hamsel.selectors.llr_threshold`.

    Gaussian risk depends on the means only through the separation a1 - a0
    (shifting both by a constant shifts the threshold identically), so it
    equals psi_plus(d, s, a1 - a0, sigma).  Bernoulli is piecewise in the
    cut's position against the atoms {0, 1}; Poisson reduces to the miss
    tail P_{a1}(X <= k - 1) and the false-positive tail P_{a0}(X >= k) at
    k = ceil(t), the smallest integer the selector keeps, each summed from
    its own side.
    """
    family = _check_family(family)
    if family is Family.GAUSSIAN:
        _check_interval(family, a0, a1)
        # psi_plus at a = a1 - a0, the separation checked under its own name
        return _psi_cut(_check_d_s(d, s), _check_snr(a1 - a0, sigma, name="a1 - a0"))[0]
    ratio = _check_d_s(d, s)
    t = _llr_cut(family, ratio, a0, a1, sigma)
    if family is Family.BERNOULLI:
        if t <= 0.0:
            return ratio
        if t >= 1.0:
            return 1.0
        return (1.0 - a1) + a0 * ratio
    k_cut = math.ceil(t)
    if k_cut <= 0:
        return ratio
    return numkit.poisson_cdf(k_cut - 1, a1) + ratio * numkit.poisson_sf(k_cut, a0)


def threshold_risk(p: ProblemInstance, kind: str) -> float | None:
    """Expected Hamming loss s [P_on(miss) + ((d-s)/s) P_off(select)] of
    spec_for_kind(kind, p) under p's least-favorable prior; None for tops,
    adaptive, and a cut on |x| on an Interval class with a0 != 0 (a Gaussian
    one with a0 = 0 is LowerBound(a1)).  The cut is formed in sigma units as
    the Psi functions form it, so plus, llr and cosh give s Psi+, s
    psi_general and s PsiBar bit for bit.  universal cuts |x| at
    sqrt(2 log d), which reads no r (r may round to 0 or inf there), and
    plus on a TwoSided class is a cut on x with the signal at +-a."""
    if kind in ("tops", "adaptive"):
        return None
    spec_for_kind(kind, p)  # the pairing's and the cut's checks
    d, s, sig = p.d, p.s, p.signal
    if isinstance(sig, Interval):
        if kind == "llr":
            return s * psi_general(p.family, d, s, sig.a0, sig.a1, p.sigma)
        if sig.a0 != 0.0 or p.family is not Family.GAUSSIAN:
            return None
        sig = LowerBound(sig.a1)
    ratio, r = _check_d_s(d, s), sig.a / p.sigma
    if kind in ("plus", "llr") and isinstance(sig, LowerBound):
        return s * _psi_cut(ratio, r)[0]
    if kind == "cosh":
        return s * _two_sided_cut(ratio, _cosh_cut(r, math.log(ratio)), r)
    if kind == "universal":
        return s * _two_sided_cut(ratio, math.sqrt(2.0 * math.log(d)), r)
    c = r / 2.0 + math.log(ratio) / r  # the minimax cut, for plus and two-sided alike
    if kind == "two-sided":
        return s * _two_sided_cut(ratio, max(c, 0.0), r)
    # plus with the signal at +-a; not _psi_cut, whose gain branch needs a mean above the cut
    on = numkit._phi(c - r) + numkit._phi(c + r)
    return s * (numkit._phi(-c, ratio) + 0.5 * on)


def psi_crowd(rates, d: int, s: int) -> float:
    """Per-signal-item risk of the m-worker vote aggregator.

    Sums the exact pattern masses over {0,1}^m (m <= 20), each pattern
    decided by the log-likelihood sum crowd_selector runs, so this is the
    exact risk of its decisions.  Masses are accumulated as direct products
    and direct sums, which keeps the m = 1 case identical to the
    single-worker Bernoulli formula down to the last bit.
    """
    rates = _check_rates(rates)
    ratio = _check_d_s(d, s)
    m = len(rates)
    if m > 20:
        raise ValueError(f"enumeration caps at 20 workers, got {m}")
    idx = np.arange(1 << m)
    weights, intercept = crowd_weights(rates)
    selected = _crowd_llr(((idx >> i) & 1 for i in range(m)), weights, intercept) >= math.log(ratio)
    mass0 = mass1 = np.ones(1)
    for a0, a1 in rates:  # worker i is bit i of the pattern index
        mass0 = np.concatenate((mass0 * (1.0 - a0), mass0 * a0))
        mass1 = np.concatenate((mass1 * (1.0 - a1), mass1 * a1))
    miss = float(np.sum(mass1[~selected]))
    false_pos = float(np.sum(mass0[selected]))
    return miss + ratio * false_pos


class WrongRecoveryBounds(NamedTuple):
    upper_plus: float
    upper_bar: float
    upper_two_sided: float
    lower_plus: float
    lower_bar: float


def wrong_recovery_bounds(
    d: int, s: int, a: float, sigma: float = 1.0
) -> WrongRecoveryBounds:
    """Bounds on P(recovered set != true set) under the least-favorable prior.

    Uppers are the expected Hamming losses s Psi+, s PsiBar, 2 s Psi of the
    one-sided, symmetric, and lower-bound-rate selectors; the matching lowers
    r/(1+r) come from the Hamming risk being concentrated on one-coordinate
    errors at the minimax point.
    """
    ratio, r = _check_d_s(d, s), _check_snr(a, sigma)
    plus, two_sided = _psi_cut(ratio, r)
    sp = s * plus
    sb = s * _two_sided_cut(ratio, _cosh_cut(r, math.log(ratio)), r)
    return WrongRecoveryBounds(sp, sb, 2.0 * (s * two_sided), sp / (1.0 + sp), sb / (1.0 + sb))


class RecoveryBounds(NamedTuple):
    w: float
    delta: float
    lower: float
    upper: float


def delta_bounds(d: int, s: int, a: float, sigma: float = 1.0) -> RecoveryBounds:
    """Two-sided envelope s Phi(-Delta) <= R <= (2 + sqrt(2 pi)) s Phi(-Delta).

    Delta = (a^2/sigma^2 - 2 log((d-s)/s)) / (2 a / sigma) when the numerator
    W is positive.  Below the boundary (W < 0) the lower bound degenerates to
    0 and the upper keeps its W = 0 value; Delta is reported as 0 in both
    degenerate regimes.  Requires 2s < d.
    """
    ratio, r = _check_d_s(d, s, sparse=True), _check_snr(a, sigma)
    w = r * r - 2.0 * math.log(ratio)
    if w >= 0.0:
        delta = w / (2.0 * r)
        tail = numkit._phi(-delta)
        return RecoveryBounds(w, delta, s * tail, _UPPER_CONST * s * tail)
    return RecoveryBounds(w, 0.0, 0.0, _UPPER_CONST * s * 0.5)


class PhasePoint(NamedTuple):
    d: int
    s: int
    a_almost_full: float
    a_exact: float
    t_star: float
    w_star: float


def phase_point(d: int, s: int) -> PhasePoint:
    """Signal levels of the almost-full and exact recovery boundaries, in
    units of sigma (every risk reads a only as a/sigma).

    a_almost_full = sqrt(2 log((d-s)/s)) is where the lower-bound rate Psi
    stops vanishing; a_exact = sqrt(2 log(d-s)) + sqrt(2 log s) is the
    exact-recovery boundary, where the one-sided minimax threshold collapses
    to t_star = sqrt(2 log(d-s)).  w_star is the matching value of the
    margin W of :func:`delta_bounds`:

        2 log((d-s)/s) + w_star = 2 (sqrt(log(d-s)) + sqrt(log s))^2.

    Requires s >= 2 (so log s > 0) and 2s < d.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    log_ratio = math.log(_check_d_s(d, s, sparse=True))
    a_almost_full = math.sqrt(2.0 * log_ratio)
    t_star = math.sqrt(2.0 * math.log(d - s))
    a_exact = t_star + math.sqrt(2.0 * math.log(s))
    w_star = 4.0 * (
        math.log(s) + math.sqrt(math.log(s) * math.log(d - s))
    )
    return PhasePoint(d, s, a_almost_full, a_exact, t_star, w_star)


def a0_adaptive(d: int, s: int, A: float, sigma: float = 1.0) -> float:
    """Signal level sigma sqrt(2 L + A sqrt(L)), L = log((d-s)/s); needs 2s < d."""
    log_ratio = math.log(_check_d_s(d, s, sparse=True))
    if not (A >= 0.0 and math.isfinite(A)):
        raise ValueError(f"need A >= 0, got {A}")
    _check_positive(sigma, "sigma")
    return _check_finite(sigma * math.sqrt(2.0 * log_ratio + A * math.sqrt(log_ratio)), "a0")


def adaptive_A_min(d: int, s_star: int) -> float:
    """Smallest planner constant 16 sqrt(log log((d-s*)/s*)) the adaptive
    selector's guarantee asks for; requires (d-s*)/s* > e."""
    log_ratio = math.log(_check_d_s(d, s_star))
    if log_ratio <= 1.0:
        raise ValueError(
            f"need (d - s_star)/s_star > e for a positive double log, "
            f"got d={d}, s_star={s_star}"
        )
    return 16.0 * math.sqrt(math.log(log_ratio))

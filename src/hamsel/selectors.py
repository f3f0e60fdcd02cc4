"""Selection rules: each threshold rule's cut, the spec of each named rule
(spec_for_kind), the top-s and adaptive cores, and the selection layer that
runs any spec: resolve_selector checks a spec once and makes the block
selection functions the MC engine calls (the adaptive one hands back its plan
and counts), and select_row runs a spec on one vector into a SelectResult.
The cores write the selection of a (rows, d) block of observations into a
bool block and never write the observations.

Boundary conventions are normative, not cosmetic: selection events use the
closed inequality ``>= t`` exactly as defined, and the adaptive procedure's
blocks are half-open ``w(g_k) <= |x| < w(g_{k-1})``.  With continuous noise
the boundaries are measure-zero; for Bernoulli/Poisson data they are not,
and the closed-form risks in :mod:`hamsel.risk` match these conventions
bit for bit.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import numkit
from .model import (
    Adaptive,
    CrowdInstance,
    Family,
    Interval,
    LowerBound,
    ProblemInstance,
    SelectorSpec,
    SupportVector,
    Threshold,
    TopS,
    TwoSided,
    _check_d_s,
    _check_family,
    _check_finite,
    _check_interval,
    _check_positive,
    _check_snr,
)


class SelectResult(NamedTuple):
    """A rule's selection on one instance and what it computed on the way;
    diagnostics["threshold_used"] is the cut the rule applied."""

    support: SupportVector
    diagnostics: dict


def minimax_threshold(d: int, s: int, a: float, sigma: float = 1.0) -> float:
    """t = a/2 + (sigma^2/a) log((d-s)/s).

    The minimax threshold of the one-sided problem, the Gaussian llr cut at
    a0 = 0.  May be negative when s > d/2; it is returned as-is (callers
    needing an |x| threshold clamp at zero themselves).
    """
    ratio = _check_d_s(d, s)
    _check_snr(a, sigma)
    return _llr_cut(Family.GAUSSIAN, ratio, 0.0, a, sigma)


# ---------------------------------------------------------------------------
# Cosh likelihood-ratio selector
# ---------------------------------------------------------------------------


def _cosh_cut(r: float, log_ratio: float) -> float:
    """The |x|/sigma cut (1/r) arccosh(u), u = e^{r^2/2} (d-s)/s, of the
    log-cosh event at r = a/sigma and log_ratio = log((d-s)/s); 0 when u <= 1."""
    log_u = r * r / 2.0 + log_ratio
    if log_u <= 0.0:
        return 0.0
    return (1.0 / r) * numkit.arccosh_exp(log_u)


def cosh_threshold(d: int, s: int, a: float, sigma: float = 1.0) -> float:
    """The |x| cut equivalent to the canonical log-cosh selection event.

    The event log cosh(a x / sigma^2) >= a^2/(2 sigma^2) + log((d-s)/s)
    is, for u = e^{a^2/(2 sigma^2)} (d-s)/s, the same as
    |x| >= (sigma^2/a) arccosh(u) when u > 1 and always true otherwise;
    that case is reported as a zero threshold.
    """
    log_ratio = math.log(_check_d_s(d, s))
    q = _cosh_cut(_check_snr(a, sigma), log_ratio)
    return _check_finite(sigma * q, "cosh threshold")


def cosh_selector(
    x, d: int, s: int, a: float, sigma: float = 1.0
) -> SupportVector:
    """Exact-minimax symmetric selector for the two-sided class.

    The "cosh" spec, a cut at the equivalent |x| threshold of
    :func:`cosh_threshold`, run by select_row; tests assert agreement with
    the literal log-cosh comparison.
    """
    spec = Threshold(cosh_threshold(d, s, a, sigma), two_sided=True)
    return select_row(spec, x, d, sigma=sigma).support


# ---------------------------------------------------------------------------
# General likelihood-ratio selectors
# ---------------------------------------------------------------------------


def llr_threshold(
    family: Family, d: int, s: int, a0: float, a1: float, sigma: float = 1.0
) -> float:
    """Observation-scale cut equivalent to LLR(x) >= log((d-s)/s).

    All three families have likelihood ratios monotone increasing in x, so
    the selection event reduces to x >= t with

        Gaussian: t = (a1+a0)/2 + sigma^2 log((d-s)/s) / (a1-a0)
        Bernoulli: t = (log((d-s)/s) - log((1-a1)/(1-a0)))
                       / log((a1/(1-a1)) ((1-a0)/a0))
        Poisson:  t = (log((d-s)/s) + a1 - a0) / log(a1/a0)

    Where a quotient of the rates overflows or underflows (a rate near 0 or
    1), its log is taken as the difference of the logs.
    """
    return _llr_cut(family, _check_d_s(d, s), a0, a1, sigma)


def _llr_cut(family: Family, ratio: float, a0: float, a1: float, sigma: float) -> float:
    """llr_threshold at a checked ratio = (d-s)/s; checks the rest."""
    family = _check_interval(family, a0, a1)
    log_ratio = math.log(ratio)
    if family is Family.GAUSSIAN:
        r = _check_snr(a1 - a0, sigma, name="a1 - a0")
        return _check_finite((a1 + a0) / 2.0 + sigma * ((1.0 / r) * log_ratio), "llr threshold")
    if family is Family.BERNOULLI:
        slope, intercept = _bernoulli_llr(a0, a1)
        if not slope > 0.0:
            raise ValueError(f"rates a0={a0} and a1={a1} are too close to tell apart")
        return (log_ratio - intercept) / slope
    q = a1 / a0
    slope = math.log(q) if _is_normal(q) else math.log(a1) - math.log(a0)
    return (log_ratio + a1 - a0) / slope


def _is_normal(q: float) -> bool:
    """Whether q is a positive normal float, so that log q keeps its digits:
    a quotient that overflowed to inf or underflowed to 0 or a subnormal is not."""
    return sys.float_info.min <= q < math.inf


def _bernoulli_llr(a0: float, a1: float) -> tuple[float, float]:
    """(slope, intercept) of the Bernoulli log-likelihood ratio x slope +
    intercept of rate a1 against a0: slope = log((a1/(1-a1)) ((1-a0)/a0)),
    intercept = log((1-a1)/(1-a0)).  The odds product overflows or
    underflows at a rate near 0 or 1; there the slope is the difference of
    the four logs."""
    odds = (a1 / (1.0 - a1)) * ((1.0 - a0) / a0)
    if _is_normal(odds):
        slope = math.log(odds)
    else:
        slope = math.log(a1) - math.log(1.0 - a1) + math.log(1.0 - a0) - math.log(a0)
    return slope, math.log((1.0 - a1) / (1.0 - a0))


def check_observations(x, d: int, family: Family = Family.GAUSSIAN) -> np.ndarray:
    """d finite observations as a float array; 0/1 or counts for the
    Bernoulli and Poisson families."""
    family = _check_family(family)
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("observations must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError("observations must be finite")
    if arr.size != operator.index(d):
        raise ValueError(f"expected {d} observations, got {arr.size}")
    if family is Family.BERNOULLI:
        if not np.isin(arr, (0.0, 1.0)).all():
            raise ValueError("Bernoulli observations must be 0/1 valued")
    elif family is Family.POISSON:
        if (arr < 0.0).any() or not (arr == np.floor(arr)).all():
            raise ValueError("Poisson observations must be nonnegative integers")
    return arr


def crowd_weights(rates) -> tuple[list[float], float]:
    """Per-worker log-likelihood weights and the shared intercept.

    Item j's log-likelihood ratio is sum_i votes[i,j] * w_i + b with each
    worker's Bernoulli slope w_i and intercept b_i from _bernoulli_llr, the
    llr cut's own, and b = sum_i b_i, summed in worker order as _crowd_llr
    adds.  math.log, not numpy's log, whose kernel numpy picks by CPU.
    """
    weights, intercept = [], 0.0
    for a0, a1 in rates:
        slope, b = _bernoulli_llr(a0, a1)
        weights.append(slope)
        intercept += b
    return weights, intercept


def _crowd_llr(votes, weights, intercept: float) -> np.ndarray:
    """Each item's log-likelihood ratio: crowd_weights' intercept, then each
    worker's weight added in worker order wherever that worker voted 1.
    votes is any iterable of the m workers' 0/1 vote arrays.  crowd_selector
    and risk.psi_crowd both sum here, so they decide every pattern alike."""
    llr = intercept
    for w, row in zip(weights, votes, strict=True):
        llr = np.where(row == 1, llr + w, llr)
    return llr


def crowd_selector(c: CrowdInstance, s: int) -> SelectResult:
    """Aggregate m workers' votes by likelihood ratio against the cut
    log((d-s)/s); the diagnostics give the workers' weights, the intercept
    and the cut."""
    cut = math.log(_check_d_s(c.d, s))
    weights, intercept = crowd_weights(c.rates)
    support = SupportVector(_crowd_llr(c.votes, weights, intercept) >= cut)
    diagnostics = {"weights": weights, "intercept": intercept, "threshold_used": cut}
    return SelectResult(support, diagnostics)


# ---------------------------------------------------------------------------
# Order statistics, universal, adaptive
# ---------------------------------------------------------------------------


def row_counts(bits: np.ndarray) -> np.ndarray:
    """Number of True entries in each row of a 2-d bool array: one byte sum
    along the rows, in uint16 below d = 2^16 and uint32 from there."""
    dtype = np.uint16 if bits.shape[1] < 1 << 16 else np.uint32
    return np.add.reduce(bits.view(np.uint8), axis=1, dtype=dtype).astype(np.intp)


def top_s_into(key: np.ndarray, s: int, out: np.ndarray, part: np.ndarray) -> None:
    """Core of the top-s rule on a (rows, d) block of keys (x, or |x| when
    two-sided), 1 <= s <= d, writing the selection into the bool block out.

    Each row selects its s largest keys with ties at the s-th value going
    to the lowest indices: exactly the first s entries of a stable argsort
    of -key, found in O(d) by partitioning a copy of key in part, a float
    block of the same shape.  key is only read.  Only rows with ties at
    the s-th value pay for the tie fill.
    """
    d = key.shape[1]
    part[...] = key
    part.partition(d - s, axis=1)
    kth = part[:, d - s, None]
    np.greater_equal(key, kth, out=out)  # at least s per row, more where the s-th value is tied
    if np.count_nonzero(out) > s * len(out):
        counts = row_counts(out)
        for r in np.flatnonzero(counts > s):
            ties = np.flatnonzero(key[r] == kth[r])
            out[r, ties[s - counts[r] + ties.size :]] = False


def universal_threshold(d: int, sigma: float = 1.0) -> float:
    d = operator.index(d)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    _check_positive(sigma, "sigma")
    return _check_finite(sigma * math.sqrt(2.0 * math.log(d)), "universal threshold")


class AdaptivePlan(NamedTuple):
    """The data-independent part of the adaptive selector for one (d, s_star, sigma)."""

    grid: list
    thresholds: list
    tau: float


def adaptive_plan(d: int, s_star: int, sigma: float = 1.0) -> AdaptivePlan:
    """Dyadic grid g_k = 2^(k-1), k = 1..M, M = max{m : 2^(m-1) <= s_star},
    band thresholds w(g_k) and tolerance tau (see adaptive_selector).
    s_star is checked as the Adaptive spec checks it."""
    _check_positive(sigma, "sigma")
    s_star = Adaptive(s_star).s_star
    grid = [2 ** (k - 1) for k in range(1, s_star.bit_length() + 1)]
    if 4 * s_star > d:
        raise ValueError(f"need s_star <= d/4, got s_star={s_star}, d={d}")
    tau = math.log(_check_d_s(d, s_star)) ** (-1.0 / 7.0)
    w = [sigma * math.sqrt(2.0 * math.log(_check_d_s(d, g))) for g in grid]
    return AdaptivePlan(grid, w, tau)


def adaptive_into(
    mag: np.ndarray, plan: AdaptivePlan, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Core of the adaptive rule on a (rows, d) block of magnitudes |x|,
    writing the selection into the bool block out.

    Returns each row's chosen m and its (rows, M-1) band counts N_2..N_M.
    mag is only read.  Only the entries at or above the lowest cut w(g_M)
    fall in a band, so only they are counted: the number of cuts at or
    below such an entry is 1..M, and band k holds the entries with exactly
    M - k + 1, since the cuts decrease along the grid.  m_hat is the first
    m whose bands m..M all pass, a running AND from band M down; a row
    whose band M fails takes M.  The selection |x| >= w(g_m_hat) is the
    lowest cut's, less the entries below the row's own cut.
    """
    grid, w, tau = plan
    m_cap, rows = len(grid), len(mag)
    np.greater_equal(mag, w[-1], out=out)
    hit_rows, hit_cols = np.divmod(np.flatnonzero(out), mag.shape[1])
    cuts_below = np.searchsorted(np.array(w[::-1]), mag[hit_rows, hit_cols], side="right")
    per_row = np.bincount(hit_rows * (m_cap + 1) + cuts_below, minlength=rows * (m_cap + 1))
    counts = per_row.reshape(rows, m_cap + 1)[:, m_cap - 1 : 0 : -1]
    passes = counts <= np.array([tau * g for g in grid[1:]])
    tail_passes = np.logical_and.accumulate(passes[:, ::-1], axis=1)[:, ::-1]
    tail_passes[:, -1] = True  # M when no m qualifies: a failing band M fails every m
    chosen = tail_passes.argmax(axis=1) + 2
    below = cuts_below < m_cap + 1 - chosen[hit_rows]
    out[hit_rows[below], hit_cols[below]] = False
    return chosen, counts


def adaptive_selector(x, s_star: int, sigma: float = 1.0) -> SelectResult:
    """Data-driven two-sided threshold over the dyadic sparsity grid.

    With w(s) = sigma sqrt(2 log((d-s)/s)) and tau = (log(d/s_star - 1))^(-1/7),
    count the coordinates in each band N_k = #{j : w(g_k) <= |x_j| < w(g_{k-1})}
    for k = 2..M and take

        m_hat = min{m in {2..M} : N_k <= tau g_k for all k in {m..M}},

    falling back to M when no m qualifies.  The selection is the two-sided
    threshold at w(g_m_hat); the diagnostics give m_hat first, as chosen_m.
    Requires 2 <= s_star <= d/4 so every band threshold is real and positive.
    """
    return select_row(Adaptive(s_star), x, np.size(x), sigma=sigma)


# ---------------------------------------------------------------------------
# Selection functions: a spec run on a block of observations
# ---------------------------------------------------------------------------


# select(x, out): writes the selection of an (m, d) block of observations
# x into the bool block out of the same shape, and may overwrite x.  The
# adaptive one hands back its plan and each row's chosen m and band counts.
Select = Callable[[np.ndarray, np.ndarray], object]


def resolve_selector(
    spec: SelectorSpec, d: int, family: Family = Family.GAUSSIAN, sigma: float = 1.0
) -> Callable[[int], Select]:
    """Check spec against observations of length d from family, and return
    a maker of selection functions: make(rows) gives a Select for blocks of
    up to ``rows`` replications with its own buffers (top-s's partitioned
    copy of a block), so that each share of a run makes its own.

    Rejects a top-s spec with s > d, and a two-sided threshold or the
    adaptive rule outside the Gaussian family, allocating no array.  What
    depends only on (spec, d, sigma), such as the adaptive grid, is computed
    here, once.  A Select takes |x| in place for the two-sided rules, so
    only a caller that owns x may pass it.
    """
    d, family = operator.index(d), _check_family(family)
    if isinstance(spec, TopS):
        if spec.s > d:
            raise ValueError(f"top-s selector needs s <= d, got s={spec.s}, d={d}")

        def make_top_s(rows: int) -> Select:
            part = np.empty((rows, d))
            return lambda x, out: top_s_into(
                x if spec.one_sided else np.abs(x, out=x), spec.s, out, part[: len(x)]
            )

        return make_top_s
    if not isinstance(spec, (Threshold, Adaptive)):
        raise TypeError(f"unknown selector spec {type(spec).__name__}")
    if isinstance(spec, Threshold) and not spec.two_sided:
        return lambda rows: lambda x, out: np.greater_equal(x, spec.t, out=out)
    if family is not Family.GAUSSIAN:
        name = "two-sided threshold" if isinstance(spec, Threshold) else "adaptive"
        raise ValueError(f"{name} selector requires the Gaussian family")
    if isinstance(spec, Threshold):
        return lambda rows: lambda x, out: np.greater_equal(np.abs(x, out=x), spec.t, out=out)
    plan = adaptive_plan(d, spec.s_star, sigma)
    return lambda rows: lambda x, out: (plan, *adaptive_into(np.abs(x, out=x), plan, out))


def select_row(
    spec: SelectorSpec, x, d: int, family: Family = Family.GAUSSIAN, sigma: float = 1.0
) -> SelectResult:
    """spec's SelectResult on one vector x of d observations from family,
    checked first; x itself is not written.  The diagnostics are threshold_used
    alone (a Threshold's t, None for TopS) but for Adaptive (adaptive_selector)."""
    block = check_observations(x, d, family)[None].copy()
    bits = np.empty(block.shape, dtype=bool)
    handed = resolve_selector(spec, d, family, sigma)(1)(block, bits)
    if not isinstance(spec, Adaptive):
        t = spec.t if isinstance(spec, Threshold) else None
        return SelectResult(SupportVector(bits[0]), {"threshold_used": t})
    plan, chosen, counts = handed
    m_hat = int(chosen[0])
    diagnostics = {
        "chosen_m": m_hat,
        **plan._asdict(),  # grid, thresholds, tau
        "block_counts": {k: int(n) for k, n in enumerate(counts[0], start=2)},
        "threshold_used": plan.thresholds[m_hat - 1],
    }
    return SelectResult(SupportVector(bits[0]), diagnostics)


# ---------------------------------------------------------------------------
# Symbolic selector kinds -> concrete specs
# ---------------------------------------------------------------------------

SELECTOR_KINDS = (
    "plus",
    "two-sided",
    "cosh",
    "llr",
    "tops",
    "universal",
    "adaptive",
)


def spec_for_kind(kind: str, p: ProblemInstance, s_star: int | None = None) -> SelectorSpec:
    """Instantiate a named selector at its canonical parameters for p.

    The one place a kind becomes a cut, each through its public threshold
    function: plus and two-sided at the minimax threshold (two-sided clamped
    at zero), cosh at cosh_threshold, llr at llr_threshold (a0 = 0 for a
    LowerBound signal) and universal at universal_threshold.
    """
    if kind not in SELECTOR_KINDS:
        raise ValueError(f"unknown selector kind {kind!r}")
    d, s, sig, sigma = p.d, p.s, p.signal, p.sigma
    if kind == "tops":
        return TopS(s, one_sided=isinstance(sig, (LowerBound, Interval)))
    if kind == "adaptive":
        if s_star is None:
            raise ValueError("adaptive selector needs s_star")
        return Adaptive(s_star)
    if kind == "universal":
        return Threshold(universal_threshold(d, sigma), two_sided=True)
    if kind == "llr":
        if isinstance(sig, TwoSided):
            raise ValueError("likelihood-ratio selection needs a LowerBound or Interval signal")
        a0, a1 = (sig.a0, sig.a1) if isinstance(sig, Interval) else (0.0, sig.a)
        return Threshold(llr_threshold(p.family, d, s, a0, a1, sigma))
    if not isinstance(sig, (LowerBound, TwoSided)):
        raise ValueError(f"selector kind {kind!r} needs a LowerBound or TwoSided signal")
    if kind == "cosh":
        return Threshold(cosh_threshold(d, s, sig.a, sigma), two_sided=True)
    t = minimax_threshold(d, s, sig.a, sigma)
    if kind == "plus":
        return Threshold(t)
    return Threshold(max(t, 0.0), two_sided=True)

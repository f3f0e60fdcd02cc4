"""Seeded Monte Carlo engine for selector risk under least-favorable priors.

Reproducibility contract
------------------------
Replication r of a run with seed S consumes exactly the counter-based
stream (S, stream_offset + r), so results are bit-identical no matter how
replications are scheduled across threads.  Each worker keeps one Philox
generator and re-keys it to (S, stream_offset + r) before replication r,
which leaves it in the same state as a fresh ``rng_stream(S,
stream_offset + r)``; the draws, and so the results, are unchanged.

Within one replication the draw order is fixed: support permutation,
global sign (TwoSided only), common Gaussian factor Z0 (always consumed,
even at rho = 0, so runs at different rho share all other draws), the
i.i.d. noise vector, and stress magnitudes last, which lets a stress run
share its support, sign, and noise with the plain run at the same seed.

The selector spec is resolved once per run into a function from
observations to a bool selection, and a replication's loss is computed
from the support indices, without building ``SupportVector`` objects.
Losses land in a positional array and are reduced with numpy's pairwise
summation, so the aggregate is independent of completion order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import risk
from .model import (
    Adaptive,
    CoshLLR,
    Family,
    GeneralLLR,
    Interval,
    LossKind,
    LowerBound,
    OneSidedThreshold,
    ProblemInstance,
    RiskReport,
    SelectorSpec,
    SupportVector,
    TopS,
    TwoSided,
    TwoSidedThreshold,
    Universal,
    rng_stream,
)
from .selectors import (
    adaptive_bits,
    adaptive_plan,
    check_observations,
    cosh_abs_threshold,
    llr_threshold,
    one_sided_bits,
    top_s_bits,
    two_sided_bits,
    universal_threshold,
)

_STRESS_MULTIPLIERS = np.array([1.0, 2.0, 10.0])

THREADS_ENV = "HAMSEL_THREADS"


@dataclass(frozen=True)
class MCConfig:
    """Replication count, master seed, Gaussian equicorrelation, loss kind."""

    replications: int
    seed: int
    rho: float = 0.0
    loss_kind: LossKind = LossKind.HAMMING

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"need rho in [0,1), got {self.rho}")
        object.__setattr__(self, "loss_kind", LossKind(self.loss_kind))


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_gaussian(
    theta, sigma: float, rho: float, rng: np.random.Generator
) -> np.ndarray:
    """X = theta + sigma (sqrt(rho) Z0 1 + sqrt(1-rho) Z).

    One-factor equicorrelated noise: variance sigma^2, pairwise correlation
    rho, O(d) per draw.  rho = 0 reduces to i.i.d. bitwise (the Z0 draw is
    still consumed).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a nonempty 1-d vector")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"need sigma > 0, got {sigma}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"need rho in [0,1), got {rho}")
    common, own = math.sqrt(rho), math.sqrt(1.0 - rho)
    return theta + _correlated_noise(theta.size, sigma, common, own, rng)


def _correlated_noise(
    d: int, sigma: float, common: float, own: float, rng: np.random.Generator
) -> np.ndarray:
    """sigma (common Z0 + own Z), with common = sqrt(rho), own = sqrt(1-rho)."""
    z0 = rng.standard_normal()
    noise = rng.standard_normal(d)
    noise *= own
    noise += common * z0
    noise *= sigma
    return noise


def generate_family(
    eta: SupportVector,
    family: Family,
    a0: float,
    a1: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Coordinate j drawn from P1 if eta_j = 1 else P0 (Bernoulli/Poisson)."""
    if not a0 < a1:
        raise ValueError(f"need a0 < a1, got ({a0}, {a1})")
    if family is Family.BERNOULLI:
        if not (0.0 < a0 and a1 < 1.0):
            raise ValueError(f"Bernoulli rates must lie in (0,1), got ({a0}, {a1})")
    elif family is Family.POISSON:
        if not a0 > 0.0:
            raise ValueError(f"Poisson rates must be positive, got a0={a0}")
    else:
        raise ValueError("generate_family covers the Bernoulli and Poisson families")
    return _family_draw(family, np.where(eta.bits, a1, a0), rng)


def _family_draw(family: Family, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if family is Family.BERNOULLI:
        return (rng.random(means.size) < means).astype(float)
    return rng.poisson(means).astype(float)


# ---------------------------------------------------------------------------
# Selector application
# ---------------------------------------------------------------------------


def _llr_params(p: ProblemInstance) -> tuple[float, float]:
    sig = p.signal
    if isinstance(sig, Interval):
        return sig.a0, sig.a1
    if isinstance(sig, LowerBound):
        return 0.0, sig.a
    raise ValueError(
        "likelihood-ratio selection needs a LowerBound or Interval signal"
    )


def _check_spec(p: ProblemInstance, spec: SelectorSpec) -> None:
    if p.family is not Family.GAUSSIAN and isinstance(
        spec, (TwoSidedThreshold, CoshLLR, Universal, Adaptive)
    ):
        raise ValueError(
            f"{type(spec).__name__} selector requires the Gaussian family"
        )
    if isinstance(spec, GeneralLLR):
        _llr_params(p)
    if isinstance(spec, Universal) and spec.d != p.d:
        raise ValueError(f"universal selector built for d={spec.d}, instance has d={p.d}")
    if isinstance(spec, TopS) and spec.s > p.d:
        raise ValueError(f"top-s selector needs s <= d, got s={spec.s}, d={p.d}")
    if isinstance(spec, Adaptive) and 4 * spec.s_star > p.d:
        raise ValueError(
            f"adaptive selector needs s_star <= d/4, got s_star={spec.s_star}, d={p.d}"
        )


def _resolve_selector(
    spec: SelectorSpec, p: ProblemInstance
) -> Callable[[np.ndarray], np.ndarray]:
    """The spec as a function from p's observations to a bool selection.

    Every cut that depends only on (spec, p) is computed here, once.
    """
    if isinstance(spec, OneSidedThreshold):
        return partial(one_sided_bits, t=spec.t)
    if isinstance(spec, TwoSidedThreshold):
        return partial(two_sided_bits, t=spec.t)
    if isinstance(spec, CoshLLR):
        return partial(two_sided_bits, t=cosh_abs_threshold(spec.a, spec.t, p.sigma))
    if isinstance(spec, GeneralLLR):
        a0, a1 = _llr_params(p)
        t = llr_threshold(p.family, p.d, p.s, a0, a1, p.sigma)
        return partial(one_sided_bits, t=t)
    if isinstance(spec, TopS):
        return partial(top_s_bits, s=spec.s, one_sided=spec.one_sided)
    if isinstance(spec, Universal):
        return partial(two_sided_bits, t=universal_threshold(spec.d, p.sigma))
    if isinstance(spec, Adaptive):
        plan = adaptive_plan(p.d, spec.s_star, p.sigma)
        return lambda x: adaptive_bits(x, plan)[0]
    raise TypeError(f"unknown selector spec {type(spec).__name__}")


def apply_selector(spec: SelectorSpec, x, p: ProblemInstance) -> SupportVector:
    """Run a selector spec on observations from instance p."""
    arr = check_observations(x, p.d, p.family)
    _check_spec(p, spec)
    return SupportVector(_resolve_selector(spec, p)(arr))


# ---------------------------------------------------------------------------
# Replication loop
# ---------------------------------------------------------------------------


def _check_compatible(
    p: ProblemInstance, spec: SelectorSpec, cfg: MCConfig, stress: bool
) -> None:
    gaussian = p.family is Family.GAUSSIAN
    if cfg.rho != 0.0 and not gaussian:
        raise ValueError("correlated noise is defined for the Gaussian family only")
    if stress and not (gaussian and isinstance(p.signal, (LowerBound, TwoSided))):
        raise ValueError("stress magnitudes apply to LowerBound/TwoSided signals")
    _check_spec(p, spec)


def _stream_rekeyer(seed: int) -> Callable[[int], np.random.Generator]:
    """index -> a generator in the state of a fresh rng_stream(seed, index).

    One Philox generator is re-keyed in place (counter 0, empty buffer), so
    every call returns the same object; indices are not range-checked.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state

    def at(index: int) -> np.random.Generator:
        key[1] = index
        state["state"]["key"] = key
        bitgen.state = state
        return rng

    return at


def _sampler(
    p: ProblemInstance, rho: float, stress: bool
) -> Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]]:
    """One replication's draws: rng -> (observations, support indices).

    The draws and the arithmetic are those of least_favorable_draw /
    uniform_support followed by generate_gaussian / generate_family, in the
    order the module docstring fixes; the support is the first s entries
    of one permutation of range(d).
    """
    d, s, sig = p.d, p.s, p.signal
    if p.family is not Family.GAUSSIAN:

        def draw_family(rng):
            idx = rng.permutation(d)[:s]
            means = np.full(d, sig.a0)
            means[idx] = sig.a1
            return _family_draw(p.family, means, rng), idx

        return draw_family

    sigma, common, own = p.sigma, math.sqrt(rho), math.sqrt(1.0 - rho)
    signs = isinstance(sig, TwoSided)
    base, level = (sig.a0, sig.a1) if isinstance(sig, Interval) else (0.0, sig.a)

    def draw_gaussian(rng):
        idx = rng.permutation(d)[:s]
        value = -level if signs and rng.random() < 0.5 else level
        theta = np.full(d, base)
        theta[idx] = value
        noise = _correlated_noise(d, sigma, common, own, rng)
        if stress:
            mult = _STRESS_MULTIPLIERS[rng.integers(0, 3, size=d)]
            theta *= mult
        theta += noise
        return theta, idx

    return draw_gaussian


def estimate_risk(
    p: ProblemInstance,
    spec: SelectorSpec,
    cfg: MCConfig,
    *,
    threads: int | None = None,
    stream_offset: int = 0,
    stress: bool = False,
) -> RiskReport:
    """Monte Carlo risk of a selector under the class's least-favorable prior.

    Gaussian LowerBound/TwoSided instances draw (theta, eta) from the
    least-favorable prior; Interval instances (every family) draw a uniform
    support with the two-point signal.  The report carries the mean loss and
    stderr = sample sd / sqrt(R) for cfg.loss_kind.

    threads defaults to the HAMSEL_THREADS environment variable (1 if
    unset); the result does not depend on it.  Each worker re-keys one
    generator to stream (seed, stream_offset + r) before replication r,
    which reproduces rng_stream's draws exactly.  stress replaces the
    boundary magnitudes by per-coordinate draws from {a, 2a, 10a} while
    keeping all other draws identical.
    """
    _check_compatible(p, spec, cfg, stress)
    n = cfg.replications
    if not (0 <= stream_offset and stream_offset + n <= 2**64):
        raise ValueError(
            f"stream indices {stream_offset}..{stream_offset + n - 1} out of range"
        )
    threads = _resolve_threads(threads)
    draw = _sampler(p, cfg.rho, stress)
    select = _resolve_selector(spec, p)
    s = p.s
    errors = np.empty(n, dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        stream = _stream_rekeyer(cfg.seed)
        for r in range(lo, hi):
            x, idx = draw(stream(stream_offset + r))
            sel = select(x)
            errors[r] = np.count_nonzero(sel) + s - 2 * np.count_nonzero(sel[idx])

    if threads == 1 or n < 2:
        fill(0, n)
    else:
        k = min(threads, n)
        cuts = np.linspace(0, n, k + 1).astype(int)
        with ThreadPoolExecutor(max_workers=k) as pool:
            futures = [
                pool.submit(fill, int(lo), int(hi))
                for lo, hi in zip(cuts[:-1], cuts[1:])
            ]
            for fut in futures:
                fut.result()

    if cfg.loss_kind is LossKind.HAMMING:
        losses = errors.astype(float)
    elif cfg.loss_kind is LossKind.NORMALIZED_HAMMING:
        losses = errors / s
    else:
        losses = (errors != 0).astype(float)
    estimate = float(losses.mean())
    stderr = float(losses.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return RiskReport(
        loss_kind=cfg.loss_kind,
        mc_estimate=estimate,
        mc_stderr=stderr,
        replications=n,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Bayes floor
# ---------------------------------------------------------------------------


class BayesFloorResult(NamedTuple):
    estimate: float
    floor: float
    passed: bool
    stderr: float


def bayes_floor_check(
    p: ProblemInstance,
    spec: SelectorSpec,
    cfg: MCConfig,
    *,
    threads: int | None = None,
) -> BayesFloorResult:
    """Estimate a selector's uniform-prior risk and test it against the floor.

    The floor is the exact Bayes risk of the optimal separable selector
    (one that decides coordinate j from x_j alone) under the
    least-favorable prior: s Psi+ for a LowerBound class, s PsiBar for a
    TwoSided class (divided by s under the normalized loss).  It binds only
    separable selectors: top-s and the adaptive rule use all coordinates at
    once and can beat it (top-s does at d = 10^4).  The gate is 3 stderr:
    passed = estimate >= floor - 3 stderr.
    """
    if p.family is not Family.GAUSSIAN:
        raise ValueError("the Bayes floor is defined for the Gaussian family")
    sig = p.signal
    if isinstance(sig, LowerBound):
        base = p.s * risk.psi_plus(p.d, p.s, sig.a, p.sigma)
    elif isinstance(sig, TwoSided):
        base = p.s * risk.psi_bar(p.d, p.s, sig.a, p.sigma)
    else:
        raise ValueError("the Bayes floor needs a LowerBound or TwoSided class")
    if cfg.loss_kind is LossKind.WRONG_RECOVERY:
        raise ValueError("the Bayes floor is a Hamming-loss statement")
    floor = base if cfg.loss_kind is LossKind.HAMMING else base / p.s
    report = estimate_risk(p, spec, cfg, threads=threads)
    passed = report.mc_estimate >= floor - 3.0 * report.mc_stderr
    return BayesFloorResult(report.mc_estimate, floor, passed, report.mc_stderr)


# ---------------------------------------------------------------------------
# Phase sweeps
# ---------------------------------------------------------------------------

_ONE_SIDED_KINDS = ("plus", "tops", "llr")

SRule = Union[int, Callable[[int], int]]


def phase_sweep(
    d_list: Sequence[int],
    s_rule: SRule,
    a_multipliers: Sequence[float],
    kinds: Sequence[str],
    cfg: MCConfig,
    *,
    sigma: float = 1.0,
    a_ref: str = "almost-full",
    s_star: int | None = None,
    threads: int | None = None,
) -> list[dict]:
    """Run estimate_risk over the (d, multiplier, kind) grid.

    s_rule is a constant or a callable d -> s.  Each cell's signal level is
    multiplier times the reference boundary of phase_point(d, s):
    a_almost_full ("almost-full") or a_exact ("exact").  Cell c uses streams
    (seed, c * 2^40 + r), so every cell is reproducible in isolation and
    rows do not depend on grid order.

    Returns long-format row dicts (one per cell) ready for CSV emission.
    """
    if a_ref not in ("almost-full", "exact"):
        raise ValueError(f"a_ref must be 'almost-full' or 'exact', got {a_ref!r}")
    if not d_list or not a_multipliers or not kinds:
        raise ValueError("d_list, a_multipliers, and kinds must be nonempty")
    from .selectors import spec_for_kind

    rows: list[dict] = []
    cell = 0
    for d in d_list:
        s = int(s_rule(d)) if callable(s_rule) else int(s_rule)
        point = risk.phase_point(d, s, sigma)
        a_base = point.a_almost_full if a_ref == "almost-full" else point.a_exact
        for mult in a_multipliers:
            if not (mult > 0.0 and math.isfinite(mult)):
                raise ValueError(f"need multiplier > 0, got {mult}")
            a = mult * a_base
            for kind in kinds:
                signal = LowerBound(a) if kind in _ONE_SIDED_KINDS else TwoSided(a)
                p = ProblemInstance(d, s, signal, sigma=sigma)
                spec = spec_for_kind(kind, p, s_star=s_star)
                report = estimate_risk(
                    p, spec, cfg, threads=threads, stream_offset=cell << 40
                )
                rows.append(
                    {
                        "d": d,
                        "s": s,
                        "a": a,
                        "sigma": sigma,
                        "rho": cfg.rho,
                        "family": "gaussian",
                        "selector": kind,
                        "loss_kind": cfg.loss_kind.value,
                        "estimate": report.mc_estimate,
                        "stderr": report.mc_stderr,
                        "replications": cfg.replications,
                        "seed": cfg.seed,
                        "a_multiplier": float(mult),
                        "a_almost_full": point.a_almost_full,
                        "a_exact": point.a_exact,
                        "t_star": point.t_star,
                    }
                )
                cell += 1
    return rows


# ---------------------------------------------------------------------------
# Printed-form oracle for PsiBar
# ---------------------------------------------------------------------------


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
    if not 1 <= s < d:
        raise ValueError(f"need 1 <= s < d, got s={s}, d={d}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"need a > 0, got {a}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"need sigma > 0, got {sigma}")
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

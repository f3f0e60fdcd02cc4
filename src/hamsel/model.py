"""Shared domain types: problem classes, supports, selector specs and
reports (frozen, checked and coerced at construction); the shared input
checks; counter-based RNG streams and the support and least-favorable
samplers, each taking its ``numpy.random.Generator`` explicitly; and the
CSV readers.  Indices are 0-based internally and 1-based in every
user-facing serialization.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .numkit import POISSON_RATE_MAX


class DataFormatError(ValueError):
    """Malformed user-supplied data file (message carries the line number)."""


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"


class LossKind(str, Enum):
    HAMMING = "hamming"
    NORMALIZED_HAMMING = "normalized-hamming"
    WRONG_RECOVERY = "wrong-recovery"


def _check_d_s(d: int, s: int, sparse: bool = False) -> float:
    """(d - s)/s, the ratio every cut and Psi weight reads, for integers
    1 <= s < d (a float is a TypeError), with 2s < d as well when sparse;
    a ratio above the largest float is a ValueError."""
    d, s = operator.index(d), operator.index(s)
    if not 1 <= s < d:
        raise ValueError(f"need 1 <= s < d, got s={s}, d={d}")
    if sparse and 2 * s >= d:
        raise ValueError(f"need 2s < d, got s={s}, d={d}")
    try:
        return (d - s) / s
    except OverflowError:
        raise ValueError(f"(d - s)/s is above the largest float at s={s}, d={d}") from None


def _check_positive(value: float, name: str) -> float:
    """value, positive and finite (None is neither); name labels it."""
    if value is None or not 0.0 < value < math.inf:
        raise ValueError(f"need {name} > 0, got {value}")
    return value


def _check_snr(a: float, sigma: float, name: str = "a") -> float:
    """r = a/sigma for a level and a noise scale, each _check_positive
    (name labels a); r must square to a finite nonzero value: the Gaussian
    formulas read a and sigma only through r."""
    r = _check_positive(a, name) / _check_positive(sigma, "sigma")
    if not 0.0 < r * r < math.inf:
        raise ValueError(f"need (a/sigma)^2 finite and nonzero, got a={a}, sigma={sigma}")
    return r


def _check_finite(value: float, name: str) -> float:
    """value, unless a formula of checked inputs overflowed or came out NaN."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite at these inputs, got {value}")
    return value


def _check_family(family: Family | str) -> Family:
    """A noise family as its Family member, given the member or its name."""
    return family if type(family) is Family else Family(family)


def _check_interval(family: Family | str, a0: float, a1: float) -> Family:
    """family as a member (_check_family), given finite a0 < a1 and rates it
    can have: (0,1) for Bernoulli, 0 < a0 < a1 <= POISSON_RATE_MAX for Poisson."""
    family = _check_family(family)
    if not (math.isfinite(a0) and math.isfinite(a1) and a0 < a1):
        raise ValueError(f"need finite a0 < a1, got ({a0}, {a1})")
    if family is Family.BERNOULLI:
        if not (0.0 < a0 and a1 < 1.0):
            raise ValueError(f"Bernoulli rates must lie in (0,1), got ({a0}, {a1})")
    elif family is Family.POISSON:
        if not a0 > 0.0:
            raise ValueError(f"Poisson rates must be positive, got a0={a0}")
        if a1 > POISSON_RATE_MAX:
            raise ValueError(f"Poisson a1 = {a1} is over the limit {POISSON_RATE_MAX}")
    return family


def _check_seed(seed: int) -> int:
    """A master seed as an int: a 64-bit unsigned integer, never a float."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_rho(rho: float) -> None:
    """An equicorrelation lies in [0, 1)."""
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"need rho in [0,1), got {rho}")


def _check_rates(rates) -> tuple[tuple[float, float], ...]:
    """Crowd workers' (a_i0, a_i1) pairs as floats, each in (0,1) and unequal."""
    out = tuple((float(a0), float(a1)) for a0, a1 in rates)
    if not out:
        raise ValueError("need at least one worker")
    for i, (a0, a1) in enumerate(out):
        if not (0.0 < a0 < 1.0 and 0.0 < a1 < 1.0):
            raise ValueError(f"worker {i + 1}: rates must lie in (0,1), got ({a0}, {a1})")
        if a0 == a1:
            raise ValueError(f"worker {i + 1}: rates must differ, got a0 = a1 = {a0}")
    return out


# ---------------------------------------------------------------------------
# Signal classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBound:
    """One-sided class: s support coordinates with theta_j >= a, rest 0."""

    a: float


@dataclass(frozen=True)
class TwoSided:
    """Symmetric class: s support coordinates with |theta_j| >= a, rest 0."""

    a: float


@dataclass(frozen=True)
class Interval:
    """Two-value class: support coordinates at level a1, others at a0.

    For the Gaussian family a0 < a1 are arbitrary means (a0 = 0 recovers the
    one-sided class); for Bernoulli/Poisson they are the two rates.
    """

    a0: float
    a1: float


Signal = Union[LowerBound, TwoSided, Interval]


@dataclass(frozen=True)
class ProblemInstance:
    """A fully specified selection problem.

    Parameters
    ----------
    d, s : int
        Dimension and sparsity, 1 <= s < d, stored as int (a float is a TypeError).
    signal : Signal
        Signal-strength description; LowerBound/TwoSided are Gaussian-only,
        Interval covers the two-distribution setting for every family.
    family : Family
        Noise family, given as the member or its name; stored as the member.
    sigma : float
        Gaussian noise level (ignored by Bernoulli/Poisson but kept positive
        for uniformity).
    """

    d: int
    s: int
    signal: Signal
    family: Family = Family.GAUSSIAN
    sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "s", operator.index(self.s))
        object.__setattr__(self, "family", _check_family(self.family))
        _check_d_s(self.d, self.s)
        _check_positive(self.sigma, "sigma")
        sig = self.signal
        if isinstance(sig, (LowerBound, TwoSided)):
            if self.family is not Family.GAUSSIAN:
                raise ValueError(
                    f"{type(sig).__name__} signal requires the Gaussian family"
                )
            _check_positive(sig.a, "signal level a")
        elif isinstance(sig, Interval):
            _check_interval(self.family, sig.a0, sig.a1)
        else:
            raise TypeError(f"unknown signal type {type(sig).__name__}")


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SupportVector:
    """Binary support pattern eta in {0,1}^d, stored as a read-only bool array."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("support bits must be a nonempty 1-d array")
        if b.dtype != np.bool_:
            vals = np.unique(b)
            if not np.isin(vals, (0, 1)).all():
                raise ValueError("support bits must be 0/1 valued")
            b = b.astype(bool)
        else:
            b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def d(self) -> int:
        return int(self.bits.size)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.bits))

    def indices(self) -> list[int]:
        """Selected positions, 1-based, ascending (the I/O convention)."""
        return [int(j) + 1 for j in np.flatnonzero(self.bits)]

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupportVector):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )

    __hash__ = None  # type: ignore[assignment]


def hamming_distance(u: SupportVector, v: SupportVector) -> int:
    """Number of positions where the two supports differ."""
    if u.d != v.d:
        raise ValueError(f"length mismatch: {u.d} vs {v.d}")
    return int(np.count_nonzero(u.bits != v.bits))


def support_summary(sv: SupportVector) -> dict:
    """JSON-ready view: 1-based indices plus the bitstring."""
    return {"selected": sv.indices(), "bits": sv.bitstring()}


# ---------------------------------------------------------------------------
# Selector specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Threshold:
    """Select j iff x_j >= t, or iff |x_j| >= t when two_sided (then t >= 0).

    Every minimax threshold rule is one of these at a computed cut: the
    one-sided rule, the log-cosh rule, the likelihood-ratio rule of each
    family (monotone in x) and the universal threshold; see spec_for_kind.
    """

    t: float
    two_sided: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError(f"threshold must be finite, got {self.t}")
        if self.two_sided and not self.t >= 0.0:
            raise ValueError(f"two-sided threshold must be finite and >= 0, got {self.t}")


@dataclass(frozen=True)
class TopS:
    """Select the s largest coordinates (by value, or by |value|)."""

    s: int
    one_sided: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", operator.index(self.s))
        if self.s < 1:
            raise ValueError(f"need s >= 1, got {self.s}")


@dataclass(frozen=True)
class Adaptive:
    """Dyadic-grid data-driven threshold up to sparsity budget s_star."""

    s_star: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_star", operator.index(self.s_star))
        if self.s_star < 2:
            raise ValueError(f"need s_star >= 2, got {self.s_star}")


SelectorSpec = Union[Threshold, TopS, Adaptive]


# ---------------------------------------------------------------------------
# Crowdsourcing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CrowdInstance:
    """m workers voting on d items, with per-worker error rates.

    rates[i] = (a_i0, a_i1): probability of voting 1 off-support and
    on-support respectively, both in (0,1), a_i0 != a_i1 (a worker may be
    anti-informative: a_i0 > a_i1 simply flips the sign of its weight).
    """

    votes: np.ndarray
    rates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.votes)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("votes must be a nonempty m x d matrix")
        if not np.isin(np.unique(v), (0, 1)).all():
            raise ValueError("votes must be 0/1 valued")
        v = v.astype(np.int8)
        v.setflags(write=False)
        rates = _check_rates(self.rates)
        if len(rates) != v.shape[0]:
            raise ValueError(
                f"got {len(rates)} rate pairs for {v.shape[0]} workers"
            )
        object.__setattr__(self, "votes", v)
        object.__setattr__(self, "rates", rates)

    @property
    def d(self) -> int:
        return int(self.votes.shape[1])


# ---------------------------------------------------------------------------
# Risk reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport:
    """A Monte Carlo risk estimate with its standard error, replication count
    and seed; the run's fields are checked together."""

    loss_kind: LossKind
    mc_estimate: float
    mc_stderr: float
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("MC estimate requires replications >= 1")
        if self.mc_stderr < 0.0:
            raise ValueError(f"need mc_stderr >= 0, got {self.mc_stderr}")


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------


def rng_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: an independent generator per (seed, index).

    Philox keyed by the pair makes replication #index reproducible on its
    own, so parallel schedules and sequential runs give identical draws.
    """
    seed, index = _check_seed(seed), operator.index(index)
    if not 0 <= index < 2**64:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fresh_seed() -> int:
    """OS-entropy 64-bit seed for runs where the caller supplied none.

    Callers must echo it back in their output, otherwise the run cannot be
    reproduced.
    """
    return int(np.random.SeedSequence().entropy) & (2**64 - 1)


def floyd_resolve(t: np.ndarray, d: int) -> np.ndarray:
    """Rows of Floyd's step draws -> the s-subsets of {0..d-1} they pick.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM
    1987) runs s steps; step k draws t_k from {0 .. j_k}, j_k = d - s + k,
    and adds t_k to the set, or j_k when t_k is already taken.  Every
    s-subset comes out with the same probability.  Row r of the result
    (same shape as t, one row per set) holds what step k of row r adds.

    The steps are resolved together, with no loop over k.  A t_k below
    d - s is taken iff it repeats an earlier t of its row, since every j
    is at least d - s.  A t_k = j_m with m < k is taken iff it repeats an
    earlier t or step m added j_m, that is, iff t_m was taken; t_k = j_k
    never is.  That dependence only runs back to earlier steps, so
    iterating it from the repeats to a fixpoint gives the sequential
    answer.
    """
    rows, s = t.shape
    j0 = d - s
    # t_k s + k sorts a row by t, equal t in step order: every repeat
    # follows its first occurrence
    key = np.sort(t * s + np.arange(s), axis=1)
    t_sorted = key // s
    taken = np.zeros(rows * s, dtype=bool)
    taken[(key % s + np.arange(0, rows * s, s)[:, None])[:, 1:]] = (
        t_sorted[:, 1:] == t_sorted[:, :-1]
    )
    flat = t.reshape(-1)
    high = np.flatnonzero(flat >= j0)
    if high.size:
        repeats = taken[high]
        step = flat[high] - j0 + high // s * s  # flat position of step m
        while True:
            now = repeats | taken[step]
            if np.array_equal(now, taken[high]):
                break
            taken[high] = now
    return np.where(taken.reshape(rows, s), np.arange(j0, d), t)


def uniform_supports(u: np.ndarray, d: int) -> np.ndarray:
    """Rows of s uniforms in [0, 1) -> rows of s distinct indices in {0..d-1}.

    Each row is one uniform s-subset, by Floyd's algorithm on the steps
    t_k = floor(u_k (d - s + k + 1)) (see floyd_resolve), in the order the
    steps add them.  A 53-bit uniform makes each t_k uniform on its range
    to within a relative (d - s + k + 1) 2^-53.
    """
    s = u.shape[-1]
    return floyd_resolve((u * np.arange(d - s + 1, d + 1)).astype(np.intp), d)


def uniform_support(d: int, s: int, rng: np.random.Generator) -> SupportVector:
    """Uniformly random s-subset of {1..d} as a support vector.

    Draws s uniforms, one Philox word each, and places them with
    uniform_supports in O(s log s) steps, whatever d.  s = d is allowed
    (the full support is forced).
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    bits = np.zeros(d, dtype=bool)
    bits[uniform_supports(rng.random((1, s)), d)] = True
    return SupportVector(bits)


def least_favorable_draw(
    p: ProblemInstance, rng: np.random.Generator
) -> tuple[np.ndarray, SupportVector]:
    """Draw (theta, eta) from the least-favorable prior of p's class.

    LowerBound: support uniform over s-subsets, all signal values equal to a.
    TwoSided: additionally one global sign flip with probability 1/2 (the
    mixture of the two pure-sign priors), not per-coordinate signs.

    Draw order is part of the reproducibility contract: the support's s
    uniforms are consumed first, then (TwoSided only) the sign.
    """
    sig = p.signal
    if isinstance(sig, Interval):
        raise ValueError(
            "Interval class has a fixed two-point least-favorable configuration; "
            "draw only the support"
        )
    eta = uniform_support(p.d, p.s, rng)
    value = sig.a
    if isinstance(sig, TwoSided) and rng.random() < 0.5:
        value = -sig.a
    theta = np.where(eta.bits, value, 0.0)
    return theta, eta


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _data_lines(path: str, what: str):
    """Yield (line number, stripped text) for each line of a header-less
    data file.

    Blank lines may only trail the data: one followed by data is reported
    by its line number, and a file with no data line as an empty ``what``
    file.
    """
    blank_at: int | None = None
    empty = True
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                blank_at = blank_at or ln
            elif blank_at is not None:
                raise DataFormatError(f"{path}: line {blank_at}: empty row")
            else:
                empty = False
                yield ln, text
    if empty:
        raise DataFormatError(f"{path}: empty {what} file")


def read_observations_csv(path: str) -> np.ndarray:
    """One numeric value per line, no header."""
    values: list[float] = []
    for ln, text in _data_lines(path, "observations"):
        try:
            val = float(text)
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: not a number: {text!r}") from None
        if not math.isfinite(val):
            raise DataFormatError(f"{path}: line {ln}: non-finite value {text!r}")
        values.append(val)
    return np.asarray(values, dtype=float)


def read_votes_csv(path: str) -> np.ndarray:
    """m header-less rows of d comma-separated 0/1 entries."""
    rows: list[list[int]] = []
    for ln, text in _data_lines(path, "votes"):
        row = []
        for f in text.split(","):
            f = f.strip()
            if f not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: line {ln}: vote entries must be 0 or 1, got {f!r}"
                )
            row.append(int(f))
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(
                f"{path}: line {ln}: expected {len(rows[0])} entries, got {len(row)}"
            )
        rows.append(row)
    return np.asarray(rows, dtype=np.int8)


def read_rates_csv(path: str) -> list[tuple[float, float]]:
    """m rows of "a_i0,a_i1"."""
    rates: list[tuple[float, float]] = []
    for ln, text in _data_lines(path, "rates"):
        fields = text.split(",")
        if len(fields) != 2:
            raise DataFormatError(f"{path}: line {ln}: expected 'a0,a1', got {text!r}")
        try:
            rates.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: not numeric: {text!r}") from None
    return rates

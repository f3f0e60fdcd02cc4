"""Seeded Monte Carlo engine for selector risk under least-favorable priors.

Reproducibility contract
------------------------
Replication r of a run with seed S consumes exactly the counter-based
stream (S, stream_offset + r), so results are bit-identical no matter how
replications are grouped into blocks or spread over threads.  Each
worker keeps one Philox generator and re-keys it to (S, stream_offset + r)
before replication r, which leaves it in the same state as a fresh
``rng_stream(S, stream_offset + r)``.

Within one replication the draw order is fixed: the support's s
uniforms, global sign (TwoSided only; the s uniforms and the sign come
from one call of s + 1 uniforms), then the row's noise as
generate_gaussian or generate_family draws it.  The Gaussian factor Z0 is
always consumed, even at rho = 0, so runs at different rho share all
other draws.  The support is the s-subset Floyd's algorithm picks from
those uniforms (model.uniform_supports), O(s) whatever d.

Replications run in blocks of B rows, as many as a DRAW_BYTES draw
buffer holds (see _block_layout).  One row loop serves every family: it
re-keys the worker's generator and draws each row's uniforms and noise
(see _block_sampler).  The block's supports, the placement of its signal,
the selector and the loss then run once on the whole block.  The spec is
resolved once per run (selectors.resolve_selector); each worker makes its
own selection function from it, which writes a block's selection into the
worker's (B, d) bool buffer and may overwrite the block's observations,
which are not read again.  A replication's loss is the count of the
selection XOR its support, without building ``SupportVector`` objects.
Losses land in a positional array and are reduced with numpy's pairwise
summation, so the aggregate is independent of B and completion order.

The engine picks its own worker count from d (see PARALLEL_MIN_D): one
thread below it, where the per-row draw loop, the selector and the
once-per-block loss hold the interpreter lock long enough that a second
thread gains little or loses, and min(blocks, usable CPUs) at or above
it, where the d-length Philox fills release the lock.  Results never
depend on the count.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import risk
from .model import (
    Family,
    Interval,
    LossKind,
    LowerBound,
    ProblemInstance,
    RiskReport,
    SelectorSpec,
    SupportVector,
    TwoSided,
    _check_interval,
    _check_positive,
    _check_rho,
    _check_seed,
    uniform_supports,
)
from .selectors import Select, resolve_selector, row_counts, select_row, spec_for_kind

# Most replications one run accepts, 2^27 = 134,217,728: estimate_risk's
# float64 loss array stays within 1 GiB, and the 2^40-wide stream ranges of
# phase_sweep's cells stay apart.
MAX_REPLICATIONS = 2**27


@dataclass(frozen=True)
class MCConfig:
    """Replication count, master seed, Gaussian equicorrelation, loss kind."""

    replications: int
    seed: int
    rho: float = 0.0
    loss_kind: LossKind = LossKind.HAMMING

    def __post_init__(self) -> None:
        n = operator.index(self.replications)
        if n < 1:
            raise ValueError(f"need replications >= 1, got {n}")
        if n > MAX_REPLICATIONS:
            raise ValueError(f"{n} replications are over the limit of {MAX_REPLICATIONS}")
        object.__setattr__(self, "replications", n)
        object.__setattr__(self, "seed", _check_seed(self.seed))
        _check_rho(self.rho)
        object.__setattr__(self, "loss_kind", LossKind(self.loss_kind))


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
    _check_positive(sigma, "sigma")
    _check_rho(rho)
    common, own = math.sqrt(rho), math.sqrt(1.0 - rho)
    z = rng.standard_normal(theta.size + 1)
    return theta + _scale_noise(z, sigma, common, own)


def _scale_noise(z: np.ndarray, sigma: float, common: float, own: float) -> np.ndarray:
    """In place along the last axis: rows [Z0, Z_1..Z_d] -> sigma (common Z0 + own Z).

    common = sqrt(rho), own = sqrt(1-rho); returns the noise view z[..., 1:].
    One standard_normal call of d+1 values draws Z0 and then Z, exactly as
    a scalar draw followed by a d-vector draw would.  Passes that multiply
    by 1 or add 0 * Z0 are skipped: they change at most the sign of a zero,
    which no selection rule can see.
    """
    noise = z[..., 1:]
    if own != 1.0:
        noise *= own
    if common != 0.0:
        noise += common * z[..., :1]
    if sigma != 1.0:
        noise *= sigma
    return noise


def generate_family(
    eta: SupportVector,
    family: Family,
    a0: float,
    a1: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Coordinate j drawn from P1 if eta_j = 1 else P0 (Bernoulli/Poisson).

    Bernoulli: d uniforms, each below a1 on the support and a0 off it.
    Poisson: d Poisson(a0) counts, then s = |eta| Poisson(a1 - a0) counts
    added to the support coordinates in ascending order; a sum of
    independent Poissons is Poisson, so a support count is Poisson(a1)
    (to the rounding of a1 - a0).
    """
    family = _check_interval(family, a0, a1)
    if family is Family.GAUSSIAN:
        raise ValueError("generate_family covers the Bernoulli and Poisson families")
    if family is Family.BERNOULLI:
        return (rng.random(eta.d) < np.where(eta.bits, a1, a0)).astype(float)
    x = rng.poisson(a0, eta.d).astype(float)
    x[eta.bits] += rng.poisson(a1 - a0, eta.weight)
    return x


# ---------------------------------------------------------------------------
# Selector application
# ---------------------------------------------------------------------------


def apply_selector(spec: SelectorSpec, x, p: ProblemInstance) -> SupportVector:
    """Run a selector spec on observations from instance p: select_row at
    p's d, family and sigma."""
    return select_row(spec, x, p.d, p.family, p.sigma).support


# ---------------------------------------------------------------------------
# Replication blocks
# ---------------------------------------------------------------------------

# A block holds as many rows as its (B, d + 1) float64 draw buffer fits in
# DRAW_BYTES, and at least one: B = 407 at d = 200, 39 at d = 2,048, 8 at
# d = 10^4 and 1 from d = 40,960.  The draw buffer, the (B, d) selection
# and top-s's (B, d) partition buffer are allocated once per worker, so the
# selector runs once per block with no block-sized temporary, which at
# 128 KiB or more (glibc's default mmap threshold) would be a fresh mapping
# whose pages fault in on every call.  640 KiB is the largest budget that
# keeps d = 10^4 at 8-row blocks: 1 MiB was no faster at d = 200, and its
# 13-row blocks at d = 10^4 held more memory.
DRAW_BYTES = 640 * 1024

# Bytes of one replication's d-length rows that estimate_risk accepts: its
# draw row, d + 1 floats (d + s for a Poisson row's support counts), in
# which the selector takes |x|, and top-s's partition row of d floats, so d
# up to about 4.2 million.  The support and selection rows are smaller.
ROW_BYTES_LIMIT = 64 * 1024 * 1024

# Smallest d at which replications are spread over threads: a row's fills
# release the interpreter lock and grow with d.  Median speedup of 2 workers
# over 1 on 2 CPUs in each of two sweeps, then the runs of 9 that 2 won in
# each (s = 10, 4,000 replications, 9 alternated runs).  768 is the smallest
# d where 2 won at least 8 of 9 for every rule, as from 1,024 to 2,048 in an
# earlier sweep.
#   d         512            640            768            896
#   plus      1.26/0.93 9,1  0.99/1.37 3,7  1.33/1.46 9,9  1.39/1.59 9,9
#   top-s     1.16/1.23 9,9  1.48/1.14 9,9  1.61/1.40 9,9  1.40/1.47 9,9
#   adaptive  1.10/1.10 7,6  1.16/1.16 7,8  1.38/1.10 9,9  1.30/1.46 9,9
#   Poisson   1.34/1.28 8,8  1.23/1.51 7,9  1.09/1.53 9,9  1.56/1.55 9,9
PARALLEL_MIN_D = 768


def _block_layout(d: int, n: int) -> int:
    """Block rows B for n replications at dimension d: 1 <= B <= n (see
    DRAW_BYTES)."""
    return min(n, max(1, DRAW_BYTES // (8 * (d + 1))))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one), not the CPUs installed."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(d: int, blocks: int) -> int:
    """Threads for a run of the given number of blocks at dimension d."""
    if d < PARALLEL_MIN_D:
        return 1
    return min(blocks, _usable_cpus())


def _stream_rekeyer(seed: int) -> tuple[np.random.Generator, Callable[[int], None]]:
    """A Philox generator and rekey(index), which re-keys it in place
    (counter 0, empty buffer) to the state of a fresh rng_stream(seed,
    index); indices are not range-checked."""
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # Lists, not arrays: the state setter reads them one entry at a time,
    # which costs a numpy scalar per entry on an array.
    key = [seed, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(index: int) -> None:
        key[1] = index
        bitgen.state = state

    return np.random.Generator(bitgen), rekey


def _block_sampler(
    p: ProblemInstance, rho: float, seed: int, rows: int
) -> Callable[[int, int], tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """One worker's generator and draw buffers for blocks of up to ``rows``
    replications: draw(first, m) -> (x, on) for replications first ..
    first + m - 1, valid until the next call: the (m, d) observations and
    the (row, column) index pair of the supports, so x[on] is (m, s).  Row
    i re-keys the generator to (seed, first + i), draws the support's s
    uniforms (s + 1 with a TwoSided sign) into a row of u, then the
    family's row fill into a row of z, which x views: Z0 and the noise, d
    uniforms, or d Poisson(a0) counts then s Poisson(a1 - a0) ones.  The
    supports and the signal's placement draw nothing and run once per block.
    """
    rng, rekey = _stream_rekeyer(seed)
    d, s, sig, family = p.d, p.s, p.signal, p.family
    signs = isinstance(sig, TwoSided)
    u = np.empty((rows, s + signs))  # TwoSided: the sign's uniform follows the support's
    row_index = np.arange(rows)[:, None]

    if family is Family.BERNOULLI:
        z = x = np.empty((rows, d))
        fill = rng.random
    elif family is Family.POISSON:
        z = np.empty((rows, d + s))
        x = z[:, :d]
        a0, rate, poisson = sig.a0, sig.a1 - sig.a0, rng.poisson

        def fill(out):
            out[:d] = poisson(a0, d)
            out[d:] = poisson(rate, s)

    else:
        sigma, common, own = p.sigma, math.sqrt(rho), math.sqrt(1.0 - rho)
        base, level = (sig.a0, sig.a1) if isinstance(sig, Interval) else (0.0, sig.a)
        z = np.empty((rows, d + 1))
        x = z[:, 1:]
        fill = rng.standard_normal
    u_rows, z_rows = list(u), list(z)  # row views made once, not once per row per block

    def draw(first, m):
        for index, u_row, z_row in zip(range(first, first + m), u_rows, z_rows):
            rekey(index)
            rng.random(out=u_row)
            fill(out=z_row)
        idx = uniform_supports(u[:m, :s], d)
        on, xm = (row_index[:m], idx), x[:m]
        if family is Family.BERNOULLI:
            hits = xm[on] < sig.a1
            xm[...] = xm < sig.a0
            xm[on] = hits
        elif family is Family.POISSON:
            idx.sort(axis=1)  # in place (on too), as generate_family adds counts in index order
            xm[on] += z[:m, d:]
        else:
            # x = theta + noise with theta = base off the support and a row's level on it
            _scale_noise(z[:m], sigma, common, own)
            hits = xm[on] + (np.where(u[:m, s:] < 0.5, -level, level) if signs else level)
            if base:
                xm += base
            xm[on] = hits
        return xm, on

    return draw


def _check_run(
    p: ProblemInstance, spec: SelectorSpec, cfg: MCConfig, stream_offset: int
) -> tuple[Callable[[int], Select], int]:
    """Raise on a run of estimate_risk that cannot go ahead, before
    anything is drawn or allocated; return the run's selector maker
    (resolve_selector) and its stream offset as an int."""
    offset = operator.index(stream_offset)
    if cfg.rho != 0.0 and p.family is not Family.GAUSSIAN:
        raise ValueError("correlated noise is defined for the Gaussian family only")
    make_select = resolve_selector(spec, p.d, p.family, p.sigma)
    n = cfg.replications
    if not (0 <= offset and offset + n <= 2**64):
        raise ValueError(f"stream indices {offset}..{offset + n - 1} out of range")
    row_bytes = 8 * (2 * p.d + (p.s if p.family is Family.POISSON else 1))  # ROW_BYTES_LIMIT
    if row_bytes > ROW_BYTES_LIMIT:
        raise ValueError(
            f"d={p.d} needs {row_bytes} bytes of buffers per replication, "
            f"over the limit of {ROW_BYTES_LIMIT}"
        )
    return make_select, offset


def estimate_risk(
    p: ProblemInstance,
    spec: SelectorSpec,
    cfg: MCConfig,
    *,
    stream_offset: int = 0,
) -> RiskReport:
    """Monte Carlo risk of a selector under the class's least-favorable prior.

    Gaussian LowerBound/TwoSided instances draw (theta, eta) from the
    least-favorable prior; Interval instances (every family) draw a uniform
    support with the two-point signal.  The report carries the mean loss and
    stderr = sample sd / sqrt(R) for cfg.loss_kind.

    Replications run in blocks of B rows (_block_layout), spread over the
    workers the module docstring describes, the calling thread taking the
    first share; neither B nor the worker count changes the results.
    MCConfig bounds R, ProblemInstance a Poisson class's rates, and
    _check_run refuses a non-integer stream_offset, or a d whose
    per-replication buffers exceed ROW_BYTES_LIMIT, before anything is
    allocated.
    """
    make_select, stream_offset = _check_run(p, spec, cfg, stream_offset)
    n = cfg.replications
    rows = _block_layout(p.d, n)
    blocks = -(-n // rows)
    losses = np.empty(n)  # each row's error count, at most d < 2^53, so exact

    def fill(first_block: int, end_block: int) -> None:
        draw = _block_sampler(p, cfg.rho, cfg.seed, rows)
        select = make_select(rows)
        selected = np.empty((rows, p.d), dtype=bool)
        for b in range(first_block, end_block):
            lo, hi = b * rows, min(n, (b + 1) * rows)
            x, on = draw(stream_offset + lo, hi - lo)
            sel = selected[: hi - lo]
            select(x, sel)  # may overwrite x, the block's own draws
            # flipping the support turns each row into selection XOR truth,
            # whose count is the Hamming loss
            sel[on] ^= True
            losses[lo:hi] = row_counts(sel)

    workers = _worker_count(p.d, blocks)
    if workers == 1:
        fill(0, blocks)
    else:
        from concurrent.futures import ThreadPoolExecutor

        cuts = [k * blocks // workers for k in range(workers + 1)]
        # The calling thread runs the first share itself, so the pool holds
        # one thread, and one set of block buffers, fewer than there are shares.
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(fill, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
            fill(cuts[0], cuts[1])
            for fut in futures:
                fut.result()

    if cfg.loss_kind is LossKind.NORMALIZED_HAMMING:
        losses /= p.s
    elif cfg.loss_kind is LossKind.WRONG_RECOVERY:
        np.minimum(losses, 1.0, out=losses)
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
    a_ref: str = "almost-full",
    s_star: int | None = None,
) -> list[dict]:
    """Run estimate_risk over the (d, multiplier, kind) grid.

    s_rule is a constant or a callable d -> s.  Each cell's signal level is
    multiplier times the reference boundary of phase_point(d, s):
    a_almost_full ("almost-full") or a_exact ("exact"), at sigma = 1: every
    risk reads a only as a/sigma, so levels are in units of sigma.  Cell c
    uses streams (seed, c * 2^40 + r), so every cell is reproducible in
    isolation and rows do not depend on grid order.  Every cell is built
    and checked before the first one runs, so an invalid cell fails the
    sweep at once.

    Returns long-format row dicts (one per cell) ready for CSV emission.
    """
    if a_ref not in ("almost-full", "exact"):
        raise ValueError(f"a_ref must be 'almost-full' or 'exact', got {a_ref!r}")
    if not d_list or not a_multipliers or not kinds:
        raise ValueError("d_list, a_multipliers, and kinds must be nonempty")
    cells: list[tuple[dict, ProblemInstance, SelectorSpec]] = []
    for d in d_list:
        s = s_rule(d) if callable(s_rule) else s_rule
        point = risk.phase_point(d, s)
        a_base = point.a_almost_full if a_ref == "almost-full" else point.a_exact
        for mult in a_multipliers:
            _check_positive(mult, "multiplier")
            a = mult * a_base
            for kind in kinds:
                signal = LowerBound(a) if kind in _ONE_SIDED_KINDS else TwoSided(a)
                p = ProblemInstance(d, s, signal)
                spec = spec_for_kind(kind, p, s_star=s_star)
                _check_run(p, spec, cfg, len(cells) << 40)
                row = {
                    "d": d,
                    "s": s,
                    "a": a,
                    "sigma": 1.0,
                    "rho": cfg.rho,
                    "family": "gaussian",
                    "selector": kind,
                    "loss_kind": cfg.loss_kind.value,
                    "estimate": None,
                    "stderr": None,
                    "replications": cfg.replications,
                    "seed": cfg.seed,
                    "a_multiplier": float(mult),
                    "a_almost_full": point.a_almost_full,
                    "a_exact": point.a_exact,
                    "t_star": point.t_star,
                }
                cells.append((row, p, spec))
    for cell, (row, p, spec) in enumerate(cells):
        report = estimate_risk(p, spec, cfg, stream_offset=cell << 40)
        row["estimate"], row["stderr"] = report.mc_estimate, report.mc_stderr
    return [row for row, _, _ in cells]

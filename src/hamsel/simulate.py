"""Seeded Monte Carlo engine for selector risk under least-favorable priors.

Reproducibility contract
------------------------
Replication r of a run with seed S consumes exactly the counter-based
stream (S, stream_offset + r), so results are bit-identical no matter how
replications are grouped into blocks or shares, or which process runs
them.  Each process keeps one Philox generator per share and re-keys it to
(S, stream_offset + r) before replication r, which leaves it in the same
state as a fresh ``rng_stream(S, stream_offset + r)``.

Within one replication the draw order is fixed: the support's s
uniforms, global sign (TwoSided only; the s uniforms and the sign come
from one call of s + 1 uniforms), then the row's noise as
generate_gaussian or generate_family draws it.  The Gaussian factor Z0 is
always consumed, even at rho = 0, so runs at different rho share all
other draws.  A Bernoulli or Poisson row is d uniforms, one a coordinate,
compared with a rate or inverted through a Poisson CDF table
(_poisson_table): the table fixes the counts, whatever searches it.  The
support is the s-subset Floyd's algorithm picks from those uniforms
(model.uniform_supports), O(s) whatever d.

Replications run in blocks of B rows, as many as a DRAW_BYTES draw
buffer holds (see _block_layout).  One row loop serves every family: it
re-keys the generator and draws each row's uniforms and noise (see
_share).  The block's supports, the placement of its signal, the
selector and the loss then run once on the whole block.  The spec is
resolved once per share (selectors.resolve_selector) into a selection
function, which writes a block's selection into the share's
(B, d) bool buffer and may overwrite the block's observations, which are
not read again.  A replication's loss is its selection's size plus s
less twice the selected entries of its support, counted without writing
into the selection or building ``SupportVector`` objects.  Losses land in
a positional array and are reduced with numpy's pairwise summation, so
the aggregate is independent of B, of the shares and of completion order.

The engine picks its own worker count from the run's size n d (see
SHARE_MIN_WORK): one process below 2 SHARE_MIN_WORK, where a worker's
start-up and round trip cost more than it saves, otherwise up to the
usable CPUs.  A run is cut into that many shares of equal replication
counts, at any replication: the calling process runs the first, and
persistent worker processes, forked by the first run that needs them and
reused by later ones, run the others, each with its own generator and
buffers.  A worker sends back each block's error counts, which land in
their slice of the caller's loss array.  Results never depend on the
worker count.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import operator
import os
import threading
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
from .selectors import resolve_selector, row_counts, select_row, spec_for_kind

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
    """Coordinate j drawn from P1 if eta_j = 1 else P0 (Bernoulli/Poisson):
    d uniforms, one a coordinate, which _observe turns into counts."""
    family = _check_interval(family, a0, a1)
    if family is Family.GAUSSIAN:
        raise ValueError("generate_family covers the Bernoulli and Poisson families")
    x = rng.random(eta.d)
    _observe(x, eta.bits, family, a0, a1)
    return x


@functools.lru_cache(maxsize=16)
def _poisson_table(lam: float) -> tuple[int, np.ndarray]:
    """(k0, F), F[i] = P(X <= k0 + i) for X ~ Poisson(lam), read-only, for
    inversion (Devroye, "Non-Uniform Random Variate Generation", 1986,
    III.2): 22 entries at lam = 1, 60,697 at POISSON_RATE_MAX.

    The pmf's weights relative to the mode's come from its recurrence,
    outward while at least 1e-20, so under 1e-15 of the mass is left off
    either end.  They are normalised by their fsum, each tail summed from
    its own end, and the last entry is 1, so every u in [0, 1) maps in.
    """
    mode = math.floor(lam)
    below, w = [], 1.0
    for k in range(mode, 0, -1):  # the weight of k - 1
        w *= k / lam
        if w < 1e-20:
            break
        below.append(w)
    above, w, k = [], lam / (mode + 1), mode + 1
    while w >= 1e-20:
        above.append(w)
        k += 1
        w *= lam / k
    below.reverse()
    total = math.fsum(below + [1.0] + above)
    # F summed from k0 up to the mode; past it, 1 less the weight above k,
    # summed from the top, which leaves exactly 1 last (or 1 / 1 at lam < 1e-20)
    top = [0.0, *itertools.accumulate(reversed(above))][: len(above)]
    table = [c / total for c in itertools.accumulate(below + [1.0])]
    table += [1.0 - t / total for t in reversed(top)]
    f = np.array(table)
    f.setflags(write=False)
    return mode - len(below), f


def _observe(x: np.ndarray, on, family: Family, a0: float, a1: float) -> None:
    """In place: contiguous uniforms x become a Bernoulli or Poisson
    family's counts, from P1 at the entries x[on] (the support) and from P0
    elsewhere: 1 for a uniform below the rate, or the Poisson count
    k0 + #{i : F[i] <= u} of the rate's table (_poisson_table)."""
    if family is Family.BERNOULLI:
        hits = x[on] < a1
        x[...] = x < a0
    else:
        hits = x[on]
        for lam, u in ((a1, hits), (a0, x)):
            k0, f = _poisson_table(lam)
            flat = u.reshape(-1)
            for lo in range(0, flat.size, 4096):  # so no temporary the size of u appears
                part = flat[lo : lo + 4096]
                np.add(np.searchsorted(f, part, side="right"), k0, out=part)
    x[on] = hits


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
# and top-s's (B, d) partition buffer are allocated once per share, that
# is, once per run in each process, so the selector runs once per block
# with no block-sized temporary, which at 128 KiB or more (glibc's default mmap threshold) would be a fresh mapping
# whose pages fault in on every call.  640 KiB is the largest budget that
# keeps d = 10^4 at 8-row blocks: 1 MiB was no faster at d = 200, and its
# 13-row blocks at d = 10^4 held more memory.
DRAW_BYTES = 640 * 1024

# Bytes of one replication's d-length rows that estimate_risk accepts, the
# same for every family: its draw row, d + 1 floats (d for a Bernoulli or
# Poisson row), in which the selector takes |x|, and top-s's partition row of
# d floats, so d up to about 4.2 million.  The support and selection rows
# are smaller.
ROW_BYTES_LIMIT = 64 * 1024 * 1024

def _block_layout(d: int, n: int) -> int:
    """Block rows B for n replications at dimension d: 1 <= B <= n (see
    DRAW_BYTES)."""
    return min(n, max(1, DRAW_BYTES // (8 * (d + 1))))


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


def _check_run(p: ProblemInstance, spec: SelectorSpec, cfg: MCConfig, stream_offset: int) -> int:
    """Raise on a run of estimate_risk that cannot go ahead, before
    anything is drawn or allocated (resolve_selector checks the spec);
    return the run's stream offset as an int."""
    offset = operator.index(stream_offset)
    if cfg.rho != 0.0 and p.family is not Family.GAUSSIAN:
        raise ValueError("correlated noise is defined for the Gaussian family only")
    resolve_selector(spec, p.d, p.family, p.sigma)
    n = cfg.replications
    if not (0 <= offset and offset + n <= 2**64):
        raise ValueError(f"stream indices {offset}..{offset + n - 1} out of range")
    row_bytes = 8 * (2 * p.d + 1)  # ROW_BYTES_LIMIT
    if row_bytes > ROW_BYTES_LIMIT:
        raise ValueError(
            f"d={p.d} needs {row_bytes} bytes of buffers per replication, "
            f"over the limit of {ROW_BYTES_LIMIT}"
        )
    return offset


def _share(p: ProblemInstance, spec: SelectorSpec, rho: float, seed: int, start: int, n: int):
    """Run replications start .. start + n - 1 (stream indices) in blocks;
    yield (lo, counts) per block: the Hamming error counts of the share's
    replications lo .. lo + len(counts) - 1, valid until the next block.

    A share is the unit of work the calling process and each worker run,
    with its own generator, selection function and buffers for blocks of
    up to B rows (_block_layout).  Row i of the block at lo re-keys the
    generator to (seed, start + lo + i), draws the support's s uniforms
    (s + 1 with a TwoSided sign) into a row of u, then the family's row
    fill: Z0 and the noise into a row of z, which x views, or, for a
    Bernoulli or Poisson row, d uniforms into a row of x.  The supports,
    the signal's placement or the uniforms' conversion (_observe), the
    selection and the loss draw nothing and run once per block.
    """
    d, s, sig, family = p.d, p.s, p.signal, p.family
    rows = _block_layout(d, n)
    select = resolve_selector(spec, d, family, p.sigma)(rows)
    rng, rekey = _stream_rekeyer(seed)
    signs = isinstance(sig, TwoSided)
    u = np.empty((rows, s + signs))  # TwoSided: the sign's uniform follows the support's
    row_index = np.arange(rows)[:, None]
    selected = np.empty((rows, d), dtype=bool)

    if family is Family.GAUSSIAN:
        sigma, common, own = p.sigma, math.sqrt(rho), math.sqrt(1.0 - rho)
        base, level = (sig.a0, sig.a1) if isinstance(sig, Interval) else (0.0, sig.a)
        z = np.empty((rows, d + 1))
        x = z[:, 1:]
        fill, out_rows = rng.standard_normal, list(z)
    else:
        x = np.empty((rows, d))
        fill, out_rows = rng.random, list(x)
    u_rows = list(u)  # row views made once, not once per row per block

    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        for index, u_row, out in zip(range(start + lo, start + lo + m), u_rows, out_rows):
            rekey(index)
            rng.random(out=u_row)
            fill(out=out)
        idx = uniform_supports(u[:m, :s], d)
        on, xm = (row_index[:m], idx), x[:m]
        if family is Family.GAUSSIAN:
            # x = theta + noise with theta = base off the support and a row's level on it
            _scale_noise(z[:m], sigma, common, own)
            hits = xm[on] + (np.where(u[:m, s:] < 0.5, -level, level) if signs else level)
            if base:
                xm += base
            xm[on] = hits
        else:
            _observe(xm, on, family, sig.a0, sig.a1)
        sel = selected[:m]
        select(xm, sel)  # may overwrite x, the block's own draws
        # Hamming loss |sel| + s - 2 |sel on the support|: on holds s distinct indices a row
        yield lo, row_counts(sel) + (s - 2 * np.count_nonzero(sel[on], axis=1))


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

# Least work, in replications times d, of each share when a run is split:
# a run takes min(usable CPUs, n, n d // SHARE_MIN_WORK) processes, so one
# below n d = 2^18.  Median speedup of 2 processes over 1 on a 2-vCPU VM,
# then how many of 9 alternated runs 2 won (s = 10; plus on LowerBound,
# top-s on TwoSided, llr on Poisson Interval(1, 3)).  From 2^16 on, 2 won
# nearly every run; at 2^18 a share takes 2-4 ms, so a worker's round trip,
# about 0.3 ms, costs about a tenth of it.
#   n d              2^16      2^17      2^18      2^19
#   d = 200 plus     1.54 9    1.65 9    1.77 8    1.81 9
#           top-s    1.58 9    1.53 9    1.61 9    1.78 9
#           Poisson  1.55 8    1.54 9    1.63 9    1.95 9
#   d = 2,000 plus   1.30 9    1.18 9    1.34 9    1.83 9
#           top-s    1.53 9    1.58 9    1.71 9    1.73 9
#           Poisson  1.48 9    1.76 9    1.72 9    1.85 9
#   d = 10^4 plus    1.20 9    1.44 9    1.61 9    1.37 8
#           top-s    1.03 8    1.21 9    1.22 9    1.30 9
#           Poisson  1.22 9    1.31 9    1.41 9    1.43 9
SHARE_MIN_WORK = 2**17

# The started worker processes, which later runs reuse, one run at a time.
_pool: list = []
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one), not the CPUs installed."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(d: int, n: int) -> int:
    """Processes, the calling one included, for n replications at dimension d."""
    return max(1, min(_usable_cpus(), n, n * d // SHARE_MIN_WORK))


def _serve(conn) -> None:
    """A worker's loop: run each share that arrives on conn and send back
    each block's error counts as float64 bytes, until the caller closes its
    end or exits."""
    try:
        while True:
            for _, counts in _share(*conn.recv()):
                conn.send_bytes(counts.astype(np.float64))
    except (EOFError, BrokenPipeError, ConnectionResetError):
        return


# Forked by hand, not as multiprocessing Processes: multiprocessing lets no
# daemonic process (a Pool worker) start one, and its exit handler, which a
# child made by os.fork inherits, terminates its process's daemonic ones,
# so that child's normal exit would kill the caller's workers.
class _Worker:
    """A forked worker process: the caller's end of its connection, its
    pid, and its exit code once it has been reaped."""

    def __init__(self) -> None:
        import signal
        from multiprocessing import Pipe

        self.conn, child = Pipe()
        self.alive, self.exitcode = True, None
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                self.conn.close()
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # the caller's to handle
                _serve(child)
                code = 0
            except BaseException:
                import traceback

                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)  # not the caller's exit handlers, nor its buffered output
        child.close()

    def exited(self, wait: bool = False) -> bool:
        """Whether the process has exited, reaping it if so (with wait,
        once it has)."""
        if self.alive:
            try:
                pid, status = os.waitpid(self.pid, 0 if wait else os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere: its exit code is lost
                pid, status = self.pid, None
            if pid:
                self.alive = False
                self.exitcode = None if status is None else os.waitstatus_to_exitcode(status)
        return not self.alive

    def stop(self) -> None:
        import signal

        self.conn.close()
        if not self.exited():
            os.kill(self.pid, signal.SIGKILL)
            self.exited(wait=True)

    def lost(self) -> RuntimeError:
        """The error of a run this worker stopped in (its connection failed,
        so it has exited or is exiting)."""
        self.exited(wait=True)
        return RuntimeError(
            f"MC worker process {self.pid} stopped during the run "
            f"(exit code {self.exitcode}); no estimate was made"
        )


def _stop_workers(workers: list) -> None:
    """Stop the given workers and drop them from the pool."""
    for worker in workers:
        worker.stop()
        if worker in _pool:
            _pool.remove(worker)


def _forget_workers() -> None:
    """In a process forked from one with workers: they and the pool lock's
    holder belong to the parent, so start afresh."""
    global _pool, _pool_lock
    for worker in _pool:
        worker.conn.close()  # this process's copy
    _pool, _pool_lock = [], threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)
atexit.register(lambda: _stop_workers(list(_pool)))


def _ready_workers(k: int) -> list:
    """k live workers, reusing the pool's and starting the rest; a worker
    that has exited since the last run (its connection is at EOF) is
    dropped first."""
    _stop_workers([w for w in _pool if w.conn.poll() or w.exited()])
    while len(_pool) < k:
        _pool.append(_Worker())
    return _pool[:k]


def _receive(shares: list, losses: np.ndarray, wait: bool) -> None:
    """Copy the blocks the workers have sent into their slices of losses;
    with wait, until every share is in.  shares holds [worker, lo, hi]
    items, lo advancing as blocks arrive."""
    from multiprocessing.connection import wait as readable

    pending = shares
    while pending:
        for share in pending:
            worker, lo, hi = share
            try:
                while lo < hi and worker.conn.poll():
                    lo += worker.conn.recv_bytes_into(losses[lo:hi]) // 8
            except (EOFError, OSError) as exc:
                raise worker.lost() from exc
            share[1] = lo
        pending = [share for share in pending if share[1] < share[2]]
        if not (wait and pending):
            return
        readable([worker.conn for worker, _, _ in pending])


def _run_shares(
    losses: np.ndarray, p: ProblemInstance, spec: SelectorSpec, cfg: MCConfig,
    offset: int, workers: int,
) -> None:
    """Fill losses with each replication's error count: the calling process
    runs the first of ``workers`` equal shares, worker processes the others,
    whose blocks are copied into their slices of losses as they arrive."""
    n = len(losses)
    cuts = [k * n // workers for k in range(workers + 1)]
    run = (p, spec, cfg.rho, cfg.seed)
    own = _share(*run, offset, cuts[1])
    if workers == 1:
        for lo, counts in own:
            losses[lo : lo + len(counts)] = counts
        return
    with _pool_lock:
        pool = _ready_workers(workers - 1)
        try:
            shares = []
            for worker, lo, hi in zip(pool, cuts[1:], cuts[2:]):
                try:
                    worker.conn.send((*run, offset + lo, hi - lo))
                except OSError as exc:
                    raise worker.lost() from exc
                shares.append([worker, lo, hi])
            for lo, counts in own:
                losses[lo : lo + len(counts)] = counts
                _receive(shares, losses, wait=False)  # a worker blocks once its buffer is full
            _receive(shares, losses, wait=True)
        except BaseException:
            _stop_workers(pool)  # they may hold blocks of this run unsent or unread
            raise


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

    Replications run in blocks of B rows (_block_layout), in shares spread
    over the processes the module docstring describes, the calling one
    taking the first; neither B nor the worker count changes the results.
    MCConfig bounds R, ProblemInstance a Poisson class's rates, and
    _check_run refuses a non-integer stream_offset, or a d whose
    per-replication buffers exceed ROW_BYTES_LIMIT, before anything is
    allocated.
    """
    stream_offset = _check_run(p, spec, cfg, stream_offset)
    n = cfg.replications
    losses = np.empty(n)  # each row's error count, at most d < 2^53, so exact
    workers = _worker_count(p.d, n)
    _run_shares(losses, p, spec, cfg, stream_offset, workers)

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

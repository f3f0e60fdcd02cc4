"""The benchmark's workloads: seeded inputs, the timed closed loop, and gates.

A workload is one round of ops run over and over by a single client, each op
starting when the previous one has finished and been checked.  Building the
ops is the set-up that ``setup_s`` measures (see ``probe.py``); references for
the correctness gates are computed afterwards by ``prepare``, and each gate runs
after its op's timer has stopped, so neither is in a timed region.

Selectors are built only through ``spec_for_kind`` and the CLI kind names, and
``estimate_risk`` is never given ``threads=``: the engine's own default is what
gets measured.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hamsel.cli  # noqa: F401  (set-up covers the CLI import, as a user pays it)
from hamsel import risk
from hamsel.model import Family, Interval, LowerBound, ProblemInstance, TwoSided
from hamsel.selectors import (
    adaptive_selector,
    cosh_selector,
    cosh_threshold,
    llr_threshold,
    spec_for_kind,
)
from hamsel.simulate import MCConfig, estimate_risk, phase_sweep

WORKLOADS = ("mc-d200", "mc-d10k", "closed-form", "cli")

# |z| allowed between an MC estimate and its closed form.  Looser than the
# acceptance tests' 3 sigma so that a fresh benchmark seed does not trip it by
# chance over the thousands of ops a full set of runs makes.
Z_GATE = 5.0
# Closed forms against mpmath.
RTOL = 1e-12

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


@dataclass(frozen=True)
class Sizes:
    d200_reps: int  # replications per estimate_risk call on mc-d200
    d10k_reps: int  # ... on mc-d10k
    grid_copies: int  # jittered copies of the closed-form grid in one batch
    setup_repeats: int  # fresh interpreters timed for setup_s
    full_cli: bool  # the whole CLI command list, or one command per group


FULL = Sizes(d200_reps=2000, d10k_reps=200, grid_copies=8, setup_repeats=7, full_cli=True)
SMOKE = Sizes(d200_reps=200, d10k_reps=20, grid_copies=1, setup_repeats=1, full_cli=False)


@dataclass
class Op:
    """One unit of client work: ``run(i)`` is timed, ``check`` is not.

    ``i`` numbers the op's invocations within a run, so MC ops draw a fresh
    seed each time.  ``reference`` is what ``check(i, output, reference)``
    compares against; tests swap in a wrong one to show the gate can fail.
    """

    label: str
    group: str
    work: int
    run: Callable[[int], Any]
    check: Callable[[int, Any, Any], bool]
    reference: Any = None


@dataclass
class Workload:
    name: str
    unit: str  # what ``work`` counts: reps, evals or cmds
    ops: list
    warmup: bool  # one untimed round first (not for cli: a round is ~6 s)
    prepare: Callable[["Workload"], None]  # sets each op's reference
    phase: dict | None = None  # the cli workload's phase grid


def op_seed(seed: int, i: int) -> int:
    """64-bit MC seed of invocation i, a pure function of the run seed."""
    state = np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint64)
    return int(state[0])


# ---------------------------------------------------------------------------
# mc-d200 and mc-d10k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    label: str
    p: ProblemInstance
    kind: str
    spec: Any
    rho: float
    reps: int


def mc_cells(name: str, sizes: Sizes = FULL) -> list:
    """The MC cells of an mc-* workload, built through the public API."""
    cells = []

    def add(label, p, kind, rho=0.0, s_star=None):
        spec = spec_for_kind(kind, p, s_star=s_star)
        reps = sizes.d200_reps if name == "mc-d200" else sizes.d10k_reps
        cells.append(Cell(label, p, kind, spec, rho, reps))

    if name == "mc-d200":
        one = ProblemInstance(200, 10, LowerBound(3.0))
        two = ProblemInstance(200, 10, TwoSided(3.0))
        poisson = ProblemInstance(200, 10, Interval(1.0, 3.0), Family.POISSON)
        add("plus/LowerBound", one, "plus")
        add("cosh/TwoSided", two, "cosh")
        add("tops/LowerBound", one, "tops")
        add("plus/LowerBound/rho=0.5", one, "plus", rho=0.5)
        add("llr/Poisson-Interval(1,3)", poisson, "llr")
    elif name == "mc-d10k":
        d = 10_000
        universal = ProblemInstance(d, 100, TwoSided(risk.phase_point(d, 100).a_exact))
        a = risk.a0_adaptive(d, 16, risk.adaptive_A_min(d, 64))
        adaptive = ProblemInstance(d, 16, TwoSided(a))
        add("universal/TwoSided/s=100", universal, "universal")
        add("adaptive/TwoSided/s=16", adaptive, "adaptive", s_star=64)
        add("tops/TwoSided/s=16", adaptive, "tops")
    else:
        raise ValueError(f"{name} has no MC cells")
    return cells


def mc_reference(cell: Cell) -> tuple:
    """What an MC estimate of the cell's Hamming risk is checked against.

    ("closed", s Psi) where the selector is minimax for the class;
    ("floor", s Psi) for the universal threshold, a separable selector that
    cannot beat the Bayes risk of the least-favorable prior; for top-s and
    adaptive, which use all coordinates at once and can beat that floor
    (top-s does on mc-d10k), ("count", m): every loss is a whole number of
    errors, a multiple of m (top-s errs in pairs, a miss and a false alarm).
    """
    p, sig = cell.p, cell.p.signal
    if cell.kind == "tops":
        return "count", 2
    if cell.kind == "adaptive":
        return "count", 1
    if isinstance(sig, Interval):
        return "closed", p.s * risk.psi_general(p.family, p.d, p.s, sig.a0, sig.a1, p.sigma)
    if isinstance(sig, LowerBound):
        return "closed", p.s * risk.psi_plus(p.d, p.s, sig.a, p.sigma)
    value = p.s * risk.psi_bar(p.d, p.s, sig.a, p.sigma)
    return ("closed" if cell.kind == "cosh" else "floor"), value


def mc_gate(report, reference) -> bool:
    kind, value = reference
    est, se, n = report.mc_estimate, report.mc_stderr, report.replications
    if not (math.isfinite(est) and math.isfinite(se) and se >= 0.0):
        return False
    if kind == "closed":
        return abs(est - value) <= Z_GATE * se
    if kind == "floor":
        return est >= value - Z_GATE * se
    total = est * n
    return est >= 0.0 and abs(total - value * round(total / value)) <= 1e-6 * n


def _mc_workload(name: str, seed: int, sizes: Sizes) -> Workload:
    cells = mc_cells(name, sizes)
    ops = []
    for cell in cells:

        def run(i, cell=cell):
            cfg = MCConfig(replications=cell.reps, seed=op_seed(seed, i), rho=cell.rho)
            return estimate_risk(cell.p, cell.spec, cfg)

        ops.append(Op(cell.label, cell.kind, cell.reps, run, lambda i, out, ref: mc_gate(out, ref)))

    def prepare(wl):
        for op, cell in zip(wl.ops, cells):
            op.reference = mc_reference(cell)

    return Workload(name, "reps", ops, True, prepare)


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

# (d, s) pairs of the Gaussian grid, and targets Y for a/2 + log((d-s)/s)/a:
# Psi+'s false-positive argument is -Y, so the grid sits on both sides of
# gaussian_cdf's continued-fraction seam (-8) and of _scaled_tail's log route
# (-36), and each Y gives two signal levels a (both roots).  Large roots take
# psi_bar through arccosh_exp's asymptotic branch, small ones push its
# false-positive argument past log_gaussian_tail's seam at 35.
GAUSS_DS = ((200, 10), (500, 5), (10_000, 100), (1_000_000, 10))
SEAM_Y = (5.0, 7.5, 8.5, 20.0, 35.5, 36.5)
GAUSS_GENERAL = ((-2.0, 1.5), (0.5, 9.0), (3.0, 40.0))
BERNOULLI_DS = ((200, 10), (4, 2), (4, 3))
BERNOULLI_RATES = ((0.1, 0.6), (0.3, 0.9), (0.01, 0.2))
POISSON_DS = ((200, 10), (4, 2))
# poisson_cdf sums below lambda = 32 and uses the incomplete gamma above.
POISSON_RATES = ((1.0, 3.0), (2.0, 5.5), (31.0, 33.0), (40.0, 60.0), (100.0, 130.0))
JITTER = 1e-6


def closed_form_grid(seed: int, copies: int = 1) -> dict:
    """``copies`` copies of the fixed grid, each level scaled by its own seeded
    factor within 1e-6 of 1 (so no point moves across a seam)."""
    rng = np.random.default_rng([seed, 0xC10])

    def jit(v: float) -> float:
        return float(v * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))

    gauss, general, phase = [], [], []
    for _ in range(copies):
        for d, s in GAUSS_DS:
            log_ratio = math.log((d - s) / s)
            for y in SEAM_Y:
                root = math.sqrt(y * y - 2.0 * log_ratio)
                for a in (y + root, 2.0 * log_ratio / (y + root)):
                    gauss.append((d, s, jit(a)))
        for d, s in GAUSS_DS:
            for a0, a1 in GAUSS_GENERAL:
                general.append((Family.GAUSSIAN, d, s, jit(a0), jit(a1)))
        for d, s in BERNOULLI_DS:
            for a0, a1 in BERNOULLI_RATES:
                general.append((Family.BERNOULLI, d, s, jit(a0), jit(a1)))
        for d, s in POISSON_DS:
            for a0, a1 in POISSON_RATES:
                general.append((Family.POISSON, d, s, jit(a0), jit(a1)))
        phase += GAUSS_DS
    return {"gauss": gauss, "general": general, "phase": phase}


def closed_form_calls(grid: dict) -> list:
    """(function, args) for one evaluation batch."""
    calls = []
    for d, s, a in grid["gauss"]:
        calls.append((risk.psi_plus, (d, s, a)))
        calls.append((risk.psi_two_sided, (d, s, a)))
        calls.append((risk.psi_bar, (d, s, a)))
        calls.append((risk.delta_bounds, (d, s, a)))
        calls.append((risk.wrong_recovery_bounds, (d, s, a)))
    for args in grid["general"]:
        calls.append((risk.psi_general, args))
    for d, s in grid["phase"]:
        calls.append((risk.phase_point, (d, s)))
    return calls


def run_batch(calls: list) -> list:
    out = []
    for fn, args in calls:
        value = fn(*args)
        if isinstance(value, tuple):
            out.extend(value)
        else:
            out.append(value)
    return out


def closed_form_gate(out, reference) -> bool:
    got = np.asarray(out, dtype=float)
    if got.shape != reference.shape:
        return False
    return bool(np.all(np.abs(got - reference) <= RTOL * np.abs(reference)))


def _closed_form_workload(seed: int, sizes: Sizes) -> Workload:
    calls = closed_form_calls(closed_form_grid(seed, sizes.grid_copies))
    op = Op(
        "batch",
        "batch",
        len(calls),
        lambda i: run_batch(calls),
        lambda i, out, ref: closed_form_gate(out, ref),
    )

    def prepare(wl):
        from oracle import reference_batch

        wl.ops[0].reference = reference_batch(calls)

    return Workload("closed-form", "evals", [op], True, prepare)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# risk commands whose stdout must equal the README examples byte for byte.
README_RISK = (
    (
        "--class plus --d 200 --s 10 --a 3 --which psi-plus",
        '{"psi_plus": 0.42634390465278238}\n',
    ),
    ("--class two-sided --d 200 --s 10 --a 3", '{"psi_bar": 0.5137425295562259}\n'),
    (
        "--class poisson --d 4 --s 2 --a0 1 --a1 2.718281828459045",
        '{"psi": 0.5096032322364451, "t": 1.7182818284590451}\n',
    ),
    (
        "--class plus --d 500 --s 5 --a 5.3 --which bounds",
        '{"w": 18.899760299730822, "delta": 1.782996254691587, '
        '"lower": 0.18646728250182659, "upper": 0.84033872761633799}\n',
    ),
)
OBS_D, OBS_S, OBS_A, OBS_S_STAR = 200, 10, 3.0, 8
PHASE = {
    "d_list": [100, 200, 400, 800],
    "s": 8,
    "a_mult": [0.8, 1.0, 1.2],
    "selectors": ["plus", "cosh", "tops", "universal"],
    "reps": 100,
}
SMOKE_PHASE = {"d_list": [100], "s": 8, "a_mult": [1.0], "selectors": ["plus"], "reps": 10}


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("HAMSEL_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list, env: dict) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "hamsel.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def _json_gate(out, reference) -> bool:
    code, stdout = out
    if code != 0:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    return all(got.get(k) == v for k, v in reference.items())


def _bytes_gate(out, reference) -> bool:
    return out[0] == 0 and out[1] == reference


def _phase_gate(out, reference) -> bool:
    code, stdout = out
    lines = stdout.splitlines()
    if code != 0 or len(lines) != len(reference) + 1:
        return False
    header = lines[0].split(",")
    for line, want in zip(lines[1:], reference):
        for col, text in zip(header, line.split(",")):
            value = want[col]
            if isinstance(value, float):
                if float(text) != value:
                    return False
            elif text != str(value):
                return False
    return True


def _seeded_risk_commands(seed: int) -> list:
    """risk calls for the classes the README has no example of, plus a Poisson
    call above lambda = 32; levels drawn from the seed."""
    rng = np.random.default_rng([seed, 0xC11])
    g0, g1 = round(rng.uniform(-1.0, 0.0), 6), round(rng.uniform(2.0, 4.0), 6)
    b0, b1 = round(rng.uniform(0.05, 0.2), 6), round(rng.uniform(0.6, 0.9), 6)
    p0, p1 = round(rng.uniform(36.0, 44.0), 6), round(rng.uniform(56.0, 64.0), 6)
    return [
        ("interval", Family.GAUSSIAN, 200, 10, g0, g1),
        ("bernoulli", Family.BERNOULLI, 200, 10, b0, b1),
        ("poisson", Family.POISSON, 200, 10, p0, p1),
    ]


def observations(seed: int) -> np.ndarray:
    """A two-sided sparse signal plus noise, d = 200, from the seed."""
    rng = np.random.default_rng([seed, 0xC12])
    theta = np.zeros(OBS_D)
    support = rng.choice(OBS_D, OBS_S, replace=False)
    theta[support] = OBS_A * rng.choice([-1.0, 1.0], OBS_S)
    return theta + rng.standard_normal(OBS_D)


def _cli_workload(seed: int, sizes: Sizes) -> Workload:
    env = cli_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    obs_path = os.path.join(OUT_DIR, f"obs-{seed}.csv")
    x = observations(seed)
    with open(obs_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in x.tolist()))
    phase = PHASE if sizes.full_cli else SMOKE_PHASE

    def cli_op(label, group, argv, check):
        return Op(label, group, 1, lambda i: run_cli(argv, env), lambda i, out, ref: check(out, ref))

    ops = []
    readme = README_RISK if sizes.full_cli else README_RISK[:1]
    for args, _ in readme:
        ops.append(cli_op(f"risk {args}", "risk", ["risk", *args.split()], _bytes_gate))
    seeded = _seeded_risk_commands(seed) if sizes.full_cli else []
    for klass, _, d, s, a0, a1 in seeded:
        argv = ["risk", "--class", klass, "--d", str(d), "--s", str(s), "--a0", repr(a0), "--a1", repr(a1)]
        ops.append(cli_op(" ".join(argv), "risk", argv, _json_gate))
    select_cosh = ["select", "--input", obs_path, "--method", "cosh", "--s", str(OBS_S), "--a", repr(OBS_A)]
    select_adaptive = ["select", "--input", obs_path, "--method", "adaptive", "--s-star", str(OBS_S_STAR)]
    ops.append(cli_op("select cosh", "select", select_cosh, _json_gate))
    if sizes.full_cli:
        ops.append(cli_op("select adaptive", "select", select_adaptive, _json_gate))
    phase_argv = [
        "phase",
        "--d-list", ",".join(map(str, phase["d_list"])),
        "--s-rule", f"fixed:{phase['s']}",
        "--a-mult", ",".join(map(repr, phase["a_mult"])),
        "--selectors", ",".join(phase["selectors"]),
        "--reps", str(phase["reps"]),
        "--seed", str(seed),
    ]
    ops.append(cli_op("phase grid", "phase", phase_argv, _phase_gate))

    def prepare(wl):
        refs = [want for _, want in readme]
        for _, family, d, s, a0, a1 in seeded:
            refs.append(
                {
                    "psi": risk.psi_general(family, d, s, a0, a1),
                    "t": llr_threshold(family, d, s, a0, a1),
                }
            )
        sv = cosh_selector(x, OBS_D, OBS_S, OBS_A)
        refs.append({"selected": sv.indices(), "threshold_used": cosh_threshold(OBS_D, OBS_S, OBS_A)})
        if sizes.full_cli:
            res = adaptive_selector(x, OBS_S_STAR)
            refs.append(
                {
                    "selected": res.support.indices(),
                    "threshold_used": res.diagnostics["threshold_used"],
                }
            )
        refs.append(phase_rows(phase, seed))
        for op, ref in zip(wl.ops, refs):
            op.reference = ref

    return Workload("cli", "cmds", ops, False, prepare, phase)


def phase_rows(phase: dict, seed: int) -> list:
    """The rows the CLI's phase grid must print, computed in-process."""
    return phase_sweep(
        phase["d_list"],
        phase["s"],
        phase["a_mult"],
        phase["selectors"],
        MCConfig(replications=phase["reps"], seed=seed),
    )


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------


def build(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    if name in ("mc-d200", "mc-d10k"):
        return _mc_workload(name, seed, sizes)
    if name == "closed-form":
        return _closed_form_workload(seed, sizes)
    if name == "cli":
        return _cli_workload(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class LoopResult:
    latencies: list  # seconds per op, in the order the ops ran
    calibration: list  # seconds of the calibration op run just before each op
    attempted: int
    failed: int
    rounds: int
    peak_rss_mb: float


# Invocation numbers of warm-up ops, far from those of the timed loop.
WARMUP_INDEX = 1 << 40
_CAL_X = [-10.0 + 20.0 * k / 3000 for k in range(3000)]


def calibration_op() -> float:
    """A fixed computation that uses no hamsel code, about 1 ms long.

    Timed right before every op, it measures how fast the host is running
    this process at that moment: interpreted float math plus a numpy draw and
    sort, the two kinds of work the workloads do.
    """
    total = 0.0
    for x in _CAL_X:
        total += math.erfc(x) * math.exp(-x * x / 8.0)
    z = np.random.default_rng(0).standard_normal(20_000)
    return total + float(np.sort(z[:5000])[0])


def call_op(op: Op, i: int) -> tuple:
    """(seconds, ok): the op timed, then its gate, untimed."""
    t0 = time.perf_counter()
    try:
        out = op.run(i)
    except Exception:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, False
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(i, out, op.reference))
    except Exception:
        ok = False
    return elapsed, ok


def run_loop(wl: Workload, seconds: float) -> LoopResult:
    """Whole rounds of the workload's ops until ``seconds`` have passed.

    Rounds are never cut short, so every op appears equally often and the
    latency mix is the same in every run.
    """
    if wl.warmup:
        for k, op in enumerate(wl.ops):
            calibration_op()
            call_op(op, WARMUP_INDEX + k)
    latencies, calibration, attempted, failed, rounds = [], [], 0, 0, 0
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            t0 = time.perf_counter()
            calibration_op()
            calibration.append(time.perf_counter() - t0)
            elapsed, ok = call_op(op, attempted)
            attempted += 1
            latencies.append(elapsed)
            failed += 0 if ok else 1
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return LoopResult(latencies, calibration, attempted, failed, rounds, peak_rss_mb(wl.name == "cli"))


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of it and its children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0

"""The traced run: per-layer metrics, timed from outside around public calls.

Nothing under ``src/`` is instrumented.  Each layer is timed by wrapping calls
into its public functions in spans that are kept in memory and written to
``bench/out/trace-<workload>-<seed>.jsonl`` when the run ends.  The replay and
kernel sections stop after a fixed number of rounds, which bounds the spans
kept, so a traced run may end before ``--seconds``.

Every traced run measures every layer, so each workload reports the same
metrics: the sections on the workload's own path get the run's ``--seconds``,
the rest one short round.  Sections:

* ``d200`` / ``d10k``: a per-stage replay of mc-d200 / mc-d10k replications,
  ``rng_stream`` -> support draw -> noise draw -> selector ->
  ``hamming_distance``, checked against ``estimate_risk`` on the same seed
  and streams, plus the Philox words each draw consumes;
* ``kernels``: ns per call of the numkit branches and risk formulas on the
  closed-form grid;
* ``startup``: module import times from ``python -X importtime``;
* ``cli``: wall time per CLI command group and in-process ms per phase cell.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from hamsel import numkit, risk
from hamsel.model import (
    Family,
    Interval,
    SupportVector,
    hamming_distance,
    least_favorable_draw,
    rng_stream,
    uniform_support,
)
from hamsel.selectors import llr_threshold
from hamsel.simulate import (
    MCConfig,
    apply_selector,
    estimate_risk,
    generate_family,
    generate_gaussian,
)

import workloads
from workloads import OUT_DIR, ROOT, call_op, cli_env, closed_form_calls, closed_form_grid, op_seed

ns = time.perf_counter_ns

# Replications replayed per cell and round, and how many of them also have
# their Philox words counted (counting reads generator state, so it is a
# separate, untimed pass).
REPLAY_REPS = {"d200": 100, "d10k": 20}
SMOKE_REPLAY_REPS = {"d200": 5, "d10k": 2}
REPLAY_MAX_ROUNDS = 10
WORD_REPS = 20
IMPORT_MODULES = ("numpy", "hamsel.model", "hamsel.numkit", "hamsel.cli")
MIN_KERNEL_ROUNDS = 20
MAX_KERNEL_ROUNDS = 2000


class Tracer:
    """Spans in memory: (id, parent, trace, name, start_ns, end_ns)."""

    def __init__(self):
        self.spans = []

    def span(self, name, start, end, parent=None, trace=None) -> int:
        sid = len(self.spans)
        self.spans.append((sid, parent, sid if trace is None else trace, name, start, end))
        return sid

    def durations(self, name) -> list:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def write(self, path):
        """One JSON line naming the fields, then one JSON array per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "trace", "name", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class Section:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def _rounds(budget_s, minimum=1, maximum=None):
    """Round numbers: at least ``minimum``, then more until the budget passes
    or ``maximum`` rounds are done (which bounds the spans kept in memory)."""
    start = time.perf_counter()
    r = 0
    while r < minimum or (time.perf_counter() - start < budget_s and (maximum is None or r < maximum)):
        yield r
        r += 1


# ---------------------------------------------------------------------------
# Per-stage replay
# ---------------------------------------------------------------------------


def _philox_words(rng) -> int:
    """64-bit words drawn so far: 4 per counter step, less what is buffered."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4


def _stage_names(cell) -> tuple:
    """Names of the support and noise stages the engine runs for this cell."""
    p, sig = cell.p, cell.p.signal
    if p.family is Family.GAUSSIAN:
        if isinstance(sig, Interval):
            return "model.uniform_support", "simulate.generate_gaussian"
        return "model.least_favorable_draw", "simulate.generate_gaussian"
    return "model.uniform_support", "simulate.generate_family"


def _support(cell, rng):
    p, sig = cell.p, cell.p.signal
    if p.family is Family.GAUSSIAN and not isinstance(sig, Interval):
        theta, eta = least_favorable_draw(p, rng)
        return theta, eta
    eta = uniform_support(p.d, p.s, rng)
    theta = np.where(eta.bits, sig.a1, sig.a0) if p.family is Family.GAUSSIAN else None
    return theta, eta


def _noise(cell, theta, eta, rng):
    p, sig = cell.p, cell.p.signal
    if p.family is Family.GAUSSIAN:
        return generate_gaussian(theta, p.sigma, cell.rho, rng)
    return generate_family(eta, p.family, sig.a0, sig.a1, rng)


def replay_one(tracer, prefix, cell, seed, r) -> float:
    """Replication r of (seed, r) rebuilt from public calls, one span per stage."""
    support_name, noise_name = _stage_names(cell)
    t0 = ns()
    rng = rng_stream(seed, r)
    t1 = ns()
    theta, eta = _support(cell, rng)
    t2 = ns()
    x = _noise(cell, theta, eta, rng)
    t3 = ns()
    eta_hat = apply_selector(cell.spec, x, cell.p)
    t4 = ns()
    loss = float(hamming_distance(eta_hat, eta))
    t5 = ns()
    root = tracer.span(f"{prefix}.replication", t0, t5)
    for name, a, b in (
        ("model.rng_stream", t0, t1),
        (support_name, t1, t2),
        (noise_name, t2, t3),
        (f"selectors.{cell.kind}", t3, t4),
        ("model.hamming_distance", t4, t5),
    ):
        tracer.span(f"{prefix}.{name}", a, b, parent=root, trace=root)
    # SupportVector construction runs inside the support and selector stages;
    # it is timed on its own, after the replication, on the selector's bits.
    t6 = ns()
    SupportVector(eta_hat.bits)
    tracer.span(f"{prefix}.model.SupportVector", t6, ns(), trace=root)
    return loss


def count_words(cell, seed, r) -> tuple:
    rng = rng_stream(seed, r)
    theta, eta = _support(cell, rng)
    support = _philox_words(rng)
    _noise(cell, theta, eta, rng)
    return support, _philox_words(rng) - support


def replay_stages(cells) -> list:
    names = ["model.rng_stream"]
    for cell in cells:
        for name in (*_stage_names(cell), f"selectors.{cell.kind}"):
            if name not in names:
                names.append(name)
    return names + ["model.hamming_distance"]


def replay_section(tracer, prefix, wname, seed, budget_s, sizes) -> Section:
    sec = Section()
    cells = workloads.mc_cells(wname, sizes)
    reps = (REPLAY_REPS if sizes is workloads.FULL else SMOKE_REPLAY_REPS)[prefix]
    untraced_ns = 0
    untraced_reps = 0
    support_words, noise_words = [], []
    for rnd in _rounds(budget_s, maximum=REPLAY_MAX_ROUNDS):
        seed_r = op_seed(seed, 1_000_000 + rnd)
        for cell in cells:
            cfg = MCConfig(replications=reps, seed=seed_r, rho=cell.rho)
            t0 = ns()
            report = estimate_risk(cell.p, cell.spec, cfg)
            untraced_ns += ns() - t0
            untraced_reps += reps
            losses = np.array([replay_one(tracer, prefix, cell, seed_r, r) for r in range(reps)])
            stderr = float(losses.std(ddof=1) / math.sqrt(reps))
            sec.check(float(losses.mean()) == report.mc_estimate and stderr == report.mc_stderr)
            if rnd == 0:
                for r in range(min(reps, WORD_REPS)):
                    sw, nw = count_words(cell, seed_r, r)
                    support_words.append(sw)
                    noise_words.append(nw)
    root_ns = sum(tracer.durations(f"{prefix}.replication"))
    for name in replay_stages(cells):
        durs = tracer.durations(f"{prefix}.{name}")
        sec.put(f"{prefix}.{name}.us", statistics.median(durs) / 1e3, "us")
        sec.put(f"{prefix}.{name}.share", sum(durs) / root_ns, "fraction")
    sec.put(f"{prefix}.model.SupportVector.us", statistics.median(tracer.durations(f"{prefix}.model.SupportVector")) / 1e3, "us")
    sec.put(f"{prefix}.model.support.words", statistics.fmean(support_words), "count")
    sec.put(f"{prefix}.simulate.noise.words", statistics.fmean(noise_words), "count")
    sec.put(f"{prefix}.simulate.estimate_risk.us_per_rep", untraced_ns / untraced_reps / 1e3, "us")
    sec.put(f"{prefix}.trace.replay_ratio", root_ns / untraced_ns, "ratio")
    return sec


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def kernel_args(grid) -> dict:
    """Arguments each kernel receives on the closed-form grid, split by branch."""
    ys, tails, log_us = [], [], []
    for d, s, a in grid["gauss"]:
        log_ratio = math.log((d - s) / s)
        half, shift = a / 2.0, log_ratio / a
        ys += [-half - shift, -half + shift]
        if half + shift > 35.0:
            tails.append((half + shift,))
        log_us.append((a * a / 2.0 + log_ratio,))
    sums, gammas = [], []
    for family, d, s, a0, a1 in grid["general"]:
        if family is Family.POISSON:
            k = math.ceil(llr_threshold(family, d, s, a0, a1)) - 1
            for lam in (a0, a1):
                (sums if lam <= 32.0 else gammas).append((k, lam))
    general = {f: [args for args in grid["general"] if args[0] is f] for f in Family}
    gauss = grid["gauss"]
    return {
        "numkit.gaussian_cdf.erfc": (numkit.gaussian_cdf, [(y,) for y in ys if y >= -8.0]),
        "numkit.gaussian_cdf.cf": (numkit.gaussian_cdf, [(y,) for y in ys if y < -8.0]),
        "numkit.log_gaussian_tail.asym": (numkit.log_gaussian_tail, tails),
        "numkit.arccosh_exp": (numkit.arccosh_exp, log_us),
        "numkit.poisson_cdf.sum": (numkit.poisson_cdf, sums),
        "numkit.poisson_cdf.gamma": (numkit.poisson_cdf, gammas),
        "risk.psi_plus": (risk.psi_plus, gauss),
        "risk.psi_two_sided": (risk.psi_two_sided, gauss),
        "risk.psi_bar": (risk.psi_bar, gauss),
        "risk.psi_general.gaussian": (risk.psi_general, general[Family.GAUSSIAN]),
        "risk.psi_general.bernoulli": (risk.psi_general, general[Family.BERNOULLI]),
        "risk.psi_general.poisson": (risk.psi_general, general[Family.POISSON]),
        "risk.phase_point": (risk.phase_point, grid["phase"]),
    }


def kernel_section(tracer, seed, budget_s) -> Section:
    from oracle import reference_batch

    sec = Section()
    grid = closed_form_grid(seed)
    calls = closed_form_calls(grid)
    sec.check(workloads.closed_form_gate(workloads.run_batch(calls), reference_batch(calls)))
    kernels = kernel_args(grid)
    for _ in _rounds(budget_s, MIN_KERNEL_ROUNDS, MAX_KERNEL_ROUNDS):
        for name, (fn, arglist) in kernels.items():
            t0 = ns()
            for args in arglist:
                fn(*args)
            t1 = ns()
            tracer.span(f"kernels.{name}", t0, t1)
    for name, (fn, arglist) in kernels.items():
        per_call = [d / len(arglist) for d in tracer.durations(f"kernels.{name}")]
        sec.put(f"{name}.ns", statistics.median(per_call), "ns")
    return sec


# ---------------------------------------------------------------------------
# Start-up and CLI
# ---------------------------------------------------------------------------


def parse_importtime(text) -> list:
    """[(module, cumulative us, depth)] in the order ``-X importtime`` prints
    them: a module's own imports come right before it, one level deeper."""
    rows = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        rows.append((name.strip(), int(fields[1]), (len(name) - len(name.lstrip())) // 2))
    return rows


def import_ms(rows) -> dict:
    """Cumulative import times of IMPORT_MODULES; hamsel.model's excludes
    numpy when numpy was first imported inside it, so the two do not overlap."""
    pos = {name: k for k, (name, _, _) in enumerate(rows)}
    out = {m: rows[pos[m]][1] / 1e3 for m in IMPORT_MODULES}
    n_pos, m_pos = pos["numpy"], pos["hamsel.model"]
    m_depth = rows[m_pos][2]
    if n_pos < m_pos and all(depth > m_depth for _, _, depth in rows[n_pos:m_pos]):
        out["hamsel.model"] -= out["numpy"]
    return out


def startup_section(tracer, repeats) -> Section:
    sec = Section()
    samples = {m: [] for m in IMPORT_MODULES}
    env = cli_env()
    for _ in range(repeats):
        t0 = ns()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hamsel.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        tracer.span("startup.importtime", t0, ns())
        rows = parse_importtime(proc.stderr)
        ok = proc.returncode == 0 and set(IMPORT_MODULES) <= {name for name, _, _ in rows}
        sec.check(ok)
        if ok:
            for m, v in import_ms(rows).items():
                samples[m].append(v)
    for m, key in zip(IMPORT_MODULES, ("numpy", "model", "numkit", "cli")):
        sec.put(f"import.{key}_ms", statistics.median(samples[m]), "ms")
    return sec


def cli_section(tracer, seed, budget_s, sizes) -> Section:
    sec = Section()
    wl = workloads.build("cli", seed, sizes)
    wl.prepare(wl)
    firsts = {}
    for op in wl.ops:
        firsts.setdefault(op.group, op)
    i = 0
    for rnd in _rounds(budget_s):
        for op in wl.ops if budget_s > 0 else firsts.values():
            t0 = ns()
            _, ok = call_op(op, i)
            tracer.span(f"cli.{op.group}", t0, ns())
            sec.check(ok)
            i += 1
    for group in firsts:
        sec.put(f"cli.{group}.s", statistics.median(tracer.durations(f"cli.{group}")) / 1e9, "s")
    phase = wl.phase
    cells = len(phase["d_list"]) * len(phase["a_mult"]) * len(phase["selectors"])
    for _ in _rounds(budget_s / 4):
        t0 = ns()
        workloads.phase_rows(phase, seed)
        tracer.span("simulate.phase_sweep", t0, ns())
    per_cell = [d / cells / 1e6 for d in tracer.durations("simulate.phase_sweep")]
    sec.put("simulate.phase_sweep.ms_per_cell", statistics.median(per_cell), "ms")
    return sec


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

OWN_SECTION = {"mc-d200": "d200", "mc-d10k": "d10k", "closed-form": "kernels", "cli": "cli"}


def traced_run(name, seed, seconds, sizes) -> tuple:
    """(metrics, attempted, failed, detail) of a traced run of workload ``name``."""
    own = OWN_SECTION[name]
    tracer = Tracer()

    def budget(section):
        return seconds if section == own else 0.0

    import_repeats = 1 if sizes is workloads.SMOKE else 3
    sections = [
        replay_section(tracer, "d200", "mc-d200", seed, budget("d200"), sizes),
        replay_section(tracer, "d10k", "mc-d10k", seed, budget("d10k"), sizes),
        kernel_section(tracer, seed, budget("kernels")),
        startup_section(tracer, import_repeats * (2 if own == "cli" else 1)),
        cli_section(tracer, seed, budget("cli"), sizes),
    ]
    path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.jsonl")
    tracer.write(path)
    metrics = {}
    for sec in sections:
        metrics.update(sec.metrics)
    attempted = sum(sec.attempted for sec in sections)
    failed = sum(sec.failed for sec in sections)
    detail = {"spans": len(tracer.spans), "trace_file": os.path.relpath(path, ROOT)}
    return metrics, attempted, failed, detail

"""Run one workload of the hamsel benchmark and print its metrics.

    python3 bench/run.py --workload mc-d200 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` reports the end-to-end metrics of the timed
run, ``--trace 1`` the per-layer metrics of a separate traced run (see
``layers.py``).  ``--smoke`` shrinks every size so the benchmark's own tests
run quickly.  The last line of stdout is the result:

    {"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}

and the line before it holds the details (machine, sample counts, the tail
percentile, error rate, per-op medians).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(name: str, seed: int, sizes) -> list:
    """Seconds from spawning a fresh interpreter until it reports the workload
    built (imports of hamsel and hamsel.cli included), several times."""
    from workloads import SMOKE, cli_env

    argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), name, str(seed)]
    if sizes is SMOKE:
        argv.append("--smoke")
    samples = []
    for _ in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
        samples.append(elapsed)
    return samples


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    above it, or the maximum when there are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(name: str, seed: int, seconds: float, sizes) -> tuple:
    import workloads

    setup = measure_setup(name, seed, sizes)
    wl = workloads.build(name, seed, sizes)
    wl.prepare(wl)
    res = workloads.run_loop(wl, seconds)
    tail_s, tail_pct = tail(res.latencies)
    n = len(wl.ops)
    per_op = [res.latencies[k::n] for k in range(n)]
    work = sum(op.work for op in wl.ops)
    # Each op's latency in units of the calibration op timed just before it.
    # Other tenants of the host slow this machine by up to 2x for minutes at a
    # time; the ratio cancels most of that (see README.md, "Noise").  A
    # group's ops (same selector kind or CLI subcommand) are pooled so that the
    # CLI's few rounds give enough samples.
    ratios = {}
    for k, (lat, cal) in enumerate(zip(res.latencies, res.calibration)):
        ratios.setdefault(wl.ops[k % n].group, []).append(lat / cal)
    work_per_cal = work / sum(statistics.median(ratios[op.group]) for op in wl.ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "work_per_cal": {"value": work_per_cal, "unit": "1/cal"},
        "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
    }
    detail = {
        f"{wl.unit}_per_s_fastest": work / sum(min(times) for times in per_op),
        f"{wl.unit}_per_s_at_median": work / sum(statistics.median(times) for times in per_op),
        "calibration_op_s": statistics.median(res.calibration),
        "latency_p50_s": statistics.median(res.latencies),
        "latency_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "samples": len(res.latencies),
        "rounds": res.rounds,
        "error_rate": res.failed / res.attempted,
        "setup_samples_s": setup,
        "op_p50_s": {op.label: statistics.median(times) for op, times in zip(wl.ops, per_op)},
    }
    return metrics, res.attempted, res.failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hamsel benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=["mc-d200", "mc-d10k", "closed-form", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        parser.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "hamsel", "__init__.py")):
        print(f"error: no hamsel sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # The engine's thread count is left at its default, whatever the caller's
    # environment says; child processes inherit this.
    os.environ.pop("HAMSEL_THREADS", None)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.trace:
        from layers import traced_run

        metrics, attempted, failed, detail = traced_run(args.workload, args.seed, args.seconds, sizes)
    else:
        metrics, attempted, failed, detail = timed_run(args.workload, args.seed, args.seconds, sizes)
    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({**head, "machine": machine(), **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: a fresh interpreter that builds one workload and says so.

    python3 bench/probe.py <workload> <seed> [--smoke]

``run.py`` times from spawning this process until it prints ``ready``; that
span is one ``setup_s`` sample.  It covers interpreter start, ``import hamsel``,
``import hamsel.cli`` (via ``workloads``) and building the workload's
instances and specs, but not the references its gates need.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402

if __name__ == "__main__":
    sizes = workloads.SMOKE if "--smoke" in sys.argv[3:] else workloads.FULL
    workloads.build(sys.argv[1], int(sys.argv[2]), sizes)
    print("ready", flush=True)

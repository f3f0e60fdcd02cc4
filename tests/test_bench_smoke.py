"""The benchmark's traced smoke run, as part of the default test run.

A traced run of ``bench/run.py`` replays the mc-d200 and mc-d10k cells through
the public per-replication samplers and checks them against ``estimate_risk``
bit for bit, checks the modules ``import hamsel.cli`` loads, and runs the CLI
commands.  ``bench/test_bench.py`` runs it too, but outside the default test
paths, so without this module a change under ``src/`` that breaks the replay
contract would pass the default run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "mc-d200", "--seed", "1",
         "--seconds", "0", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert (report["correct"], report["failed"]) == (True, 0), report
    assert report["attempted"] >= 1

"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

They run the benchmark at ``--smoke`` sizes, so they check what it reports and
that its gates can fail, not how fast anything is.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0.0, m["name"]


@pytest.mark.parametrize("workload", ["mc-d200", "mc-d10k", "closed-form", "cli"])
def test_a_wrong_reference_is_counted_as_a_failed_op(workload):
    wl = workloads.build(workload, 5, workloads.SMOKE)
    wl.prepare(wl)
    op = wl.ops[0]
    if workload.startswith("mc-"):
        kind, value = op.reference
        op.reference = (kind, value * 1.5 + 1.0)
    elif workload == "closed-form":
        op.reference = op.reference.copy()
        op.reference[0] *= 1.0 + 1e-9
    else:
        op.reference = op.reference.replace("0.4", "0.5")
    res = workloads.run_loop(wl, 0.0)
    assert res.attempted == len(wl.ops)
    assert res.failed == 1


def test_inputs_are_a_function_of_the_seed():
    assert workloads.closed_form_grid(7) == workloads.closed_form_grid(7)
    assert workloads.closed_form_grid(7) != workloads.closed_form_grid(8)
    assert np.array_equal(workloads.observations(7), workloads.observations(7))
    assert workloads.op_seed(7, 0) == workloads.op_seed(7, 0) != workloads.op_seed(8, 0)


def test_without_the_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "mc-d200", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

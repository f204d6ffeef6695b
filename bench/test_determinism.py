"""Checks on the benchmark itself.

    python3 -m pytest bench/test_determinism.py

Two traced runs with the same seed must agree exactly on every per-layer
count, per-operation ratio, optimizer counter and gap ratio; and the
benchmark must refuse to run, without printing a result, where the waylimit
sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-batch", "oscillator-optimize", "cli-verify-cold")


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced_counts(workload, seed):
    proc = _run(ROOT, workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".per_op")) or name == "trace.spans"
            or (name.startswith("optimizer.") and not name.endswith("self_s"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 11)
    assert "optimizer.gap_ratio" in first and "linalg.Operator.calls" in first
    assert first == _traced_counts(workload, 11)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "verify-batch", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Smoke tests of the benchmark harness: one short swap-map run end to end,
and one traced.

Checks the shape of the result line, that the run is correct and that the
traced run binds every span and reports every declared per-layer metric;
timing values are noisy and are not asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_swap_map_run_reports_a_correct_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap-map", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(declared) == 3
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_swap_map_run_binds_every_span():
    # a renamed or re-imported function drops its span from the trace
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap-map", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert detail["result"]["unbound"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []
    assert result["correct"] is True
    assert result["failed"] == 0

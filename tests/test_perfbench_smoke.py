"""Smoke test of the benchmark harness: one short swap-map run end to end.

Checks the shape of the result line and that the run is correct; timing
values are noisy and are not asserted.
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

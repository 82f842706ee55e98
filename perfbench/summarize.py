"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/summarize.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                   [--seconds S] [--json FILE]

Runs ``run.py`` once per workload and seed, in sequence, from the root of
the checkout. For each metric it prints the median and the quartiles of
the runs (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json. ``--json`` also writes every run's
metrics and the summary to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                print(f"{workload} seed {seed}: correct={last['correct']} "
                      f"failed={last['failed']}", file=sys.stderr)
            runs.append({k: v["value"] for k, v in last["metrics"].items()})
        summary = {}
        print(f"{workload} ({len(runs)} runs)")
        for name in sorted(runs[0]):
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            print(f"  {name:44s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}" + (f"  bound {bound}" if bound else ""))
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, gate, then measure.

Started by run.py as a fresh interpreter with PYTHONPATH=<checkout>/src.
It prints ``READY`` the moment the workload's inputs exist (run.py times
set-up from spawn to that line) and, unless ``--setup-only``, one JSON
result line at the end.

Untraced (``--trace 0``): the gate, then whole blocks of requests until
``--seconds`` have passed; nothing in the program is rebound.

Traced (``--trace 1``): the gate and a fixed number of blocks under the
tracer. Each block also runs once untraced, alternating which goes first;
the ratio of the two totals is the tracing overhead. A fixed amount of
traced work keeps span counts comparable between program versions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


class Run:
    """Requests attempted in one run, their failures and output mismatches."""

    def __init__(self, wl, classify):
        self.wl, self.classify = wl, classify
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.n_mismatch = 0
        self.notes: list[str] = []  # first few mismatches and tracebacks

    def op(self, op, tracer=None):
        """Run and check one request; its seconds, or None if it failed."""
        self.attempted += 1
        try:
            seconds, out = self.wl.run(op, tracer)
        except Exception as exc:  # counted and reported, the run goes on
            kind = self.classify(exc)
            self.failures[kind] = self.failures.get(kind, 0) + 1
            self.note(traceback.format_exc(limit=4))
            return None
        self.mismatch(self.wl.check(op, out))
        return seconds

    def mismatch(self, issue) -> None:
        if issue:
            self.n_mismatch += 1
            self.note(issue)

    def note(self, text: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(text)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": sum(self.failures.values()),
                "failures": self.failures, "mismatches": self.n_mismatch,
                "notes": self.notes}


def measure(wl, run: Run, rng, seconds: float) -> dict:
    """Whole blocks until the next one would end past ``seconds``.

    The workload's reference runs after every request that succeeded, out
    of its timed region; ``op_over_ref.p50`` is the median over blocks of
    the block's request seconds over its reference seconds.
    """
    times, kinds, ratios = [], [], []
    start = time.perf_counter()
    while True:
        t_block = time.perf_counter()
        op_s = ref_s = 0.0
        for op in wl.block(rng):
            dt = run.op(op)
            if dt is not None:
                times.append(dt)
                kinds.append(op[0])
                op_s += dt
                ref_s += wl.reference_s()
        if ref_s:
            ratios.append(op_s / ref_s)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t_block) / 2 >= seconds:
            break
    if len(times) < 2:
        raise RuntimeError(f"{len(times)} of {run.attempted} requests succeeded")
    deciles = statistics.quantiles(times, n=10)
    out = {"ops": len(times), "blocks": len(ratios), "window_s": elapsed,
           "op_over_ref.p50": statistics.median(ratios),
           "ops_per_s": len(times) / sum(times), "op_s.p10": deciles[0],
           "op_s.p50": statistics.median(times)}
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        out["op_s.p90"] = deciles[-1]
    if wl.name == "cli-cold":
        out["by_subcommand_p50"] = {
            sub: statistics.median([t for t, k in zip(times, kinds) if k == sub])
            for sub in sorted(set(kinds))}
    return out


def measure_traced(wl, run: Run, rng, tracer, seconds: float) -> dict:
    """wl.trace_blocks blocks, each run untraced and traced."""
    untraced = traced = covered = 0.0
    start = time.perf_counter()
    for b in range(wl.trace_blocks):
        ops = wl.block(rng)
        for traced_turn in ((True, False) if b % 2 else (False, True)):
            if traced_turn:
                before = tracer.self_total()
                with tracer.active():
                    traced += sum(run.op(op, tracer) or 0.0 for op in ops)
                covered += tracer.self_total() - before
            else:
                untraced += sum(run.op(op) or 0.0 for op in ops)
        if time.perf_counter() - start > 2 * seconds:  # a slow program ends early
            break
    if not (traced and untraced):
        raise RuntimeError("every traced or untraced request failed")
    return {"bench.trace_overhead_frac": traced / untraced - 1.0,
            "bench.span_cover_frac": covered / traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    tmp = Path(args.tmp)

    t0 = time.perf_counter()  # set-up: the program's import, then its inputs
    import levicav.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    wl = workloads.WORKLOADS[args.workload](tmp)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import gate
    from spans import Tracer
    wl.prepare()
    rng = random.Random(args.seed)
    run = Run(wl, workloads.classify)
    tracer = Tracer() if args.trace else None
    traced = tracer.active if tracer else contextlib.nullcontext
    if tracer:
        tracer.add("cli.import", import_s)
    with traced():
        for issue in gate.run_gate(tmp, tracer):
            run.mismatch(f"gate: {issue}")
    if tracer:
        result = measure_traced(wl, run, rng, tracer, args.seconds)
    else:
        result = measure(wl, run, rng, args.seconds)
    with traced():
        done = wl.finish()
    if done is not None:
        result["finish_s"] = done[0]
        run.mismatch(done[1])
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer:
        result.update(tracer.snapshot())
    result.update(run.summary())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

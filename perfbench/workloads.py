"""The two workloads. Each is a closed loop: one client in one process
sends its next request when the previous one has returned; no threads.

A workload hands out its requests in blocks. A block holds the same mix of
work for every seed (every stratum or every request kind once, seeded
values inside), shuffled by the seed, and a run executes whole blocks, so
runs with different seeds measure the same amount and kind of work.

``run`` returns the request's own wall time with the output; checking the
output happens afterwards, outside the timed region. ``reference_s`` runs
the workload's reference work (reference.py) and returns its wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import levicav.cli as cli
import levicav.errors as errors
import levicav.pulse as pulse
import reference
from spans import SUBCOMMANDS

LAUNCHER = str(Path(__file__).resolve().parent / "launch.py")


class OpFailure(Exception):
    """A CLI request that exited non-zero; ``kind`` names how."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def classify(exc: Exception) -> str:
    """Failure class of a request: a CLI exit kind or an exception class."""
    if isinstance(exc, OpFailure):
        return exc.kind
    for name in ("GridError", "NoSwapError", "ValidationError"):
        if isinstance(exc, getattr(errors, name)):
            return name
    return "other"


class CliCold:
    """Fresh ``python -m levicav.cli`` processes over every subcommand and preset."""

    name = "cli-cold"
    trace_blocks = 1
    reference_s = staticmethod(reference.fresh_process_s)

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.paths = {}
        for preset in gate.PRESETS:
            self.paths[preset] = str(tmp / f"{preset}.yaml")
            cli.main(["preset", preset, "--out", self.paths[preset]])

    def prepare(self) -> None:
        self.golden = {(sub, p): gate.golden_text(f"cli/{sub}-{p}.txt")
                       for sub in SUBCOMMANDS for p in gate.PRESETS}

    def block(self, rng) -> list:
        ops = [(sub, preset) for sub in SUBCOMMANDS for preset in gate.PRESETS]
        rng.shuffle(ops)
        return ops

    def run(self, op, tracer=None):
        sub, preset = op
        argv = gate.cli_argv(sub, preset, self.paths[preset])
        if tracer is None:
            cmd, env = [sys.executable, "-m", "levicav.cli", *argv], None
        else:
            spans_file = self.tmp / "spans.json"
            cmd = [sys.executable, LAUNCHER, *argv]
            env = {**os.environ, "PERFBENCH_SPANS_OUT": str(spans_file)}
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            traceback = "Traceback (most recent call last)" in proc.stderr
            raise OpFailure("traceback" if traceback else f"exit{proc.returncode}")
        if tracer is not None:
            tracer.merge(json.loads(spans_file.read_text()))
        return seconds, proc.stdout

    def check(self, op, out):
        issue = gate.cli_output_mismatch(op[0], out, self.golden[op])
        return f"{op[1]} {issue}" if issue else None

    def finish(self):
        return None


class SwapMap:
    """Peak phonon number over a stratified (g/kappa, sigma/kappa) map.

    Trace cost grows with max(g, sigma), so every block visits each of the
    STRATA x STRATA cells once, at a seeded point inside the cell. The g
    range stops short of the corner (g/kappa near 2, sigma/kappa >= 6)
    where the preset's 2000-point grid raises GridError; the gate checks
    that corner once instead.
    """

    name = "swap-map"
    trace_blocks = 3
    reference_s = staticmethod(reference.in_process_s)
    G_RANGE = (0.25, 1.85)
    SIGMA_RANGE = (1.0, 10.0)
    STRATA = 4

    def __init__(self, tmp: Path):
        self.bases = gate.preset_scenarios()  # evaluate_scenario once per preset
        self.best = (-1.0, None, None)

    def prepare(self) -> None:
        pass

    def block(self, rng) -> list:
        (g_lo, g_hi), (s_lo, s_hi), n = self.G_RANGE, self.SIGMA_RANGE, self.STRATA
        ops = [(rng.choice(gate.PRESETS),
                g_lo + (i + rng.random()) * (g_hi - g_lo) / n,
                s_lo + (j + rng.random()) * (s_hi - s_lo) / n)
               for i in range(n) for j in range(n)]
        rng.shuffle(ops)
        return ops

    def run(self, op, tracer=None):
        preset, g, sigma = op
        t0 = time.perf_counter()
        p = gate.map_protocol(*self.bases[preset], g, sigma)
        trace = pulse.phonon_trace(p)
        peak = pulse.refined_peak(trace)
        return time.perf_counter() - t0, (p, trace, peak)

    def check(self, op, out):
        p, trace, (_, n_star) = out
        i = int(np.argmax(trace.n_phonon))
        oracle = pulse.phonon_expectation_direct(p, float(p.t_grid[i]))
        if not abs(oracle - trace.n_phonon[i]) <= gate.ORACLE_ATOL:
            return f"{op}: trace peak {trace.n_phonon[i]:.9f} vs oracle {oracle:.9f}"
        if n_star > self.best[0]:
            self.best = (n_star, p, trace)
        return None

    def finish(self):
        """Output-field envelope at the best point, with the photon
        bookkeeping check: emitted light plus final phonon number is 1."""
        _, p, trace = self.best
        t0 = time.perf_counter()
        env = pulse.output_field_envelope(p, p.t_grid)
        seconds = time.perf_counter() - t0
        emitted = float(np.trapezoid(np.abs(env) ** 2, p.t_grid))
        n_end = float(trace.n_phonon[-1])
        if not abs(emitted + n_end - 1.0) <= 1e-2:
            return seconds, f"best point: emitted {emitted:.4f} + phonon {n_end:.4f} != 1"
        return seconds, None


WORKLOADS = {w.name: w for w in (CliCold, SwapMap)}

"""Correctness gate: the program's outputs against the seed commit's.

The golden files in ``golden/`` were written by ``make_golden.py`` from
the seed commit. Reports, sweep documents and scenario dumps must match
byte for byte; phonon traces and the output-field envelope within 1e-12
absolute; refined map peaks must agree with the independent
double-quadrature oracle ``phonon_expectation_direct`` within 1e-6, the
tolerance of acceptance criterion 5. Any mismatch fails the run.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

import levicav.cli as cli
import levicav.pulse as pulse
import levicav.scenario as scenario
from levicav.errors import GridError
from spans import SUBCOMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
PRESETS = ("sphere-appendix-h", "rod-translation", "rod-rotation")

TRACE_ATOL = 1e-12
ORACLE_ATOL = 1e-6

# Fixed CLI requests, one per subcommand and preset.
SWEEP_ARGS = {
    "sphere-appendix-h": ["--axis", "power", "--values", "0.00025,0.0005,0.001"],
    "rod-translation": ["--axis", "mode1_power", "--values", "0.002,0.004,0.008"],
    "rod-rotation": ["--axis", "finesse", "--values", "50000,100000,200000"],
}
TRACE_ARGS = {
    "sphere-appendix-h": [],
    "rod-translation": ["--g-over-kappa", "0.5"],
    "rod-rotation": ["--g-over-kappa", "1.5", "--sigma-over-kappa", "8"],
}

# Fixed swap-map points (preset, g/kappa, sigma/kappa). The last lies in the
# corner where the 2000-point grid is too coarse and GridError is the
# documented outcome.
MAP_POINTS = (("sphere-appendix-h", 1.0, 5.6), ("rod-translation", 0.3, 2.0),
              ("rod-rotation", 1.8, 9.5))
GRID_ERROR_POINT = ("sphere-appendix-h", 2.0, 8.0)


def cli_argv(sub: str, preset: str, scenario_path: str) -> list[str]:
    if sub == "preset":
        return ["preset", preset, "--quiet"]
    extra = {"feasibility": [], "sweep": SWEEP_ARGS[preset],
             "trace": TRACE_ARGS[preset]}[sub]
    return [sub, scenario_path, *extra, "--quiet"]


def map_protocol(base, report, g_over_kappa: float, sigma_over_kappa: float):
    """PulseProtocol of one swap-map point of a preset scenario."""
    s = replace(base, protocol=replace(base.protocol, g_over_kappa=g_over_kappa,
                                       sigma_over_kappa=sigma_over_kappa))
    return scenario.build_protocol(s, report)


def cli_output_mismatch(sub: str, got: str, want: str) -> str | None:
    """Byte equality, except trace CSVs: times byte-equal, n_phonon within
    TRACE_ATOL plus one unit of the printed sixth significant figure."""
    if got == want:
        return None
    if sub != "trace":
        return f"{sub}: output differs from golden"
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return "trace: CSV shape or header differs from golden"
    for a, b in zip(got_rows[1:], want_rows[1:]):
        *ta, na = a.split(",")
        *tb, nb = b.split(",")
        if ta != tb or abs(float(na) - float(nb)) > TRACE_ATOL + 1e-5 * abs(float(nb)):
            return f"trace: row {a!r} differs from golden {b!r}"
    return None


def _close(got, want) -> bool:
    """Same shape and within TRACE_ATOL everywhere (NaN is never close)."""
    got = np.asarray(got)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= TRACE_ATOL))


def golden_text(relpath: str) -> str:
    return (GOLDEN / relpath).read_text(encoding="utf-8")


def preset_scenarios():
    """{preset: (Scenario, FeasibilityReport)} for the built-in presets."""
    out = {}
    for name in PRESETS:
        s = scenario.scenario_from_dict(scenario.preset_scenario_dict(name))
        out[name] = (s, scenario.evaluate_scenario(s))
    return out


def run_gate(tmp: Path, tracer=None) -> list[str]:
    """Check every golden output; return the mismatches (empty: pass).

    With a tracer, each CLI call is recorded as its ``cli.main.<sub>`` span.
    """
    errors = []
    for preset in PRESETS:
        path = str(tmp / f"gate-{preset}.yaml")
        for sub in SUBCOMMANDS:
            out = path if sub == "preset" else str(tmp / f"gate-{sub}-{preset}.txt")
            main = tracer.wrap(f"cli.main.{sub}", cli.main) if tracer else cli.main
            rc = main(cli_argv(sub, preset, path) + ["--out", out])
            got = Path(out).read_text(encoding="utf-8")
            issue = (f"{sub} {preset}: exit {rc}" if rc != 0 else
                     cli_output_mismatch(sub, got, golden_text(f"cli/{sub}-{preset}.txt")))
            if issue:
                errors.append(f"{preset} {issue}")

    bases = preset_scenarios()
    for preset, (s, _) in bases.items():
        dump = yaml.safe_dump(scenario.scenario_to_dict(s), sort_keys=False)
        if dump != golden_text(f"dump/{preset}.yaml"):
            errors.append(f"{preset}: scenario_to_dict dump differs from golden")
        path = tmp / f"gate-dump-{preset}.yaml"
        path.write_text(dump, encoding="utf-8")
        if scenario.load_scenario(path) != s:
            errors.append(f"{preset}: scenario does not survive a YAML round trip")

    arrays = np.load(GOLDEN / "arrays.npz")
    for i, (preset, g, sigma) in enumerate(MAP_POINTS):
        p = map_protocol(*bases[preset], g, sigma)
        trace = pulse.phonon_trace(p)
        if not _close(trace.n_phonon, arrays[f"trace{i}"]):
            errors.append(f"map point {i}: trace differs from golden")
        t_star, n_star = pulse.refined_peak(trace)
        oracle = pulse.phonon_expectation_direct(p, t_star)
        if not abs(oracle - n_star) <= ORACLE_ATOL:
            errors.append(f"map point {i}: peak {n_star:.9f} vs oracle {oracle:.9f}")
        if i == 0 and not _close(pulse.output_field_envelope(p, p.t_grid),
                                 arrays["envelope0"]):
            errors.append("output-field envelope differs from golden")

    preset, g, sigma = GRID_ERROR_POINT
    try:
        pulse.phonon_trace(map_protocol(*bases[preset], g, sigma))
        errors.append("coarse-grid corner did not raise GridError")
    except GridError:
        pass
    return errors

"""Write the golden outputs the correctness gate compares against.

Run once, from the root of a checkout of the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

It overwrites ``perfbench/golden``. The benchmark never runs it; a change
to the program's outputs is a gate failure, not a reason to regenerate.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

import gate
import levicav.cli as cli
import levicav.pulse as pulse
import levicav.scenario as scenario
from spans import SUBCOMMANDS


def main() -> int:
    golden = gate.GOLDEN
    (golden / "cli").mkdir(parents=True, exist_ok=True)
    (golden / "dump").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in gate.PRESETS:
            path = str(Path(tmp) / f"{preset}.yaml")
            for sub in SUBCOMMANDS:
                out = path if sub == "preset" else str(golden / "cli" / f"{sub}-{preset}.txt")
                if cli.main(gate.cli_argv(sub, preset, path) + ["--out", out]) != 0:
                    raise SystemExit(f"{sub} {preset} failed")
            (golden / "cli" / f"preset-{preset}.txt").write_text(
                Path(path).read_text(encoding="utf-8"), encoding="utf-8")

    bases = gate.preset_scenarios()
    for preset, (s, _) in bases.items():
        (golden / "dump" / f"{preset}.yaml").write_text(
            yaml.safe_dump(scenario.scenario_to_dict(s), sort_keys=False), encoding="utf-8")

    arrays = {}
    for i, (preset, g, sigma) in enumerate(gate.MAP_POINTS):
        p = gate.map_protocol(*bases[preset], g, sigma)
        arrays[f"trace{i}"] = pulse.phonon_trace(p).n_phonon
        if i == 0:
            arrays["envelope0"] = pulse.output_field_envelope(p, p.t_grid)
    np.savez(golden / "arrays.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())

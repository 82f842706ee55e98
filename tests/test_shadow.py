"""The report path against a 50-digit shadow of itself (tests/oracles.py).

On the twelve cases behind the golden report outputs, every printed value
is the correctly rounded exact-arithmetic value and every field is within
1e-12 of it. This checks the floating-point arithmetic of the formulas; the
independent routes in tests/oracles.py check the model.
"""

import ast
from decimal import Decimal
from pathlib import Path

import mpmath

from levicav.presets import PRESET_NAMES
from oracles import SHADOW_DPS, report_fields, shadow_reports

ROOT = Path(__file__).resolve().parent.parent
#: a slope the solver sets to an exact 0.0 along the coordinate it does not cool
UNCOOLED_SLOPES = ("selftrap.xi_z", "selftrap.xi_phi")
FLOAT_RTOL = 1e-12


def golden_cases() -> list:
    """Each preset's feasibility report and each point of the benchmark's
    fixed sweeps (``SWEEP_ARGS`` in perfbench/gate.py, read without
    importing it), as ``(preset, axis, value)``."""
    gate = ast.parse((ROOT / "perfbench" / "gate.py").read_text())
    sweeps = next(ast.literal_eval(node.value) for node in gate.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "SWEEP_ARGS")
    cases = [(preset, None, None) for preset in PRESET_NAMES]
    for preset, args in sweeps.items():
        axis, values = args[args.index("--axis") + 1], args[args.index("--values") + 1]
        cases += [(preset, axis, float(value)) for value in values.split(",")]
    return cases


def correctly_rounded(text: str) -> str:
    """The ``.6g`` spelling of a 50-digit decimal rounded to 6 figures."""
    return f"{float(format(Decimal(text), '.5e')):.6g}"


def test_report_path_matches_its_50_digit_shadow():
    cases = golden_cases()
    assert len(cases) == 12
    shadows = shadow_reports(cases)  # a separate interpreter from this float run
    checked = 0
    with mpmath.workdps(SHADOW_DPS):
        for case, shadow in zip(cases, shadows):
            floats = report_fields(case)
            assert floats.keys() == shadow.keys(), case
            for key, value in floats.items():
                kind, text = shadow[key]
                if not isinstance(value, float):  # names, flags, n/a rows
                    assert (kind, text) == (type(value).__name__, repr(value)), (case, key)
                elif key in UNCOOLED_SLOPES and value == 0.0:
                    assert (kind, text) == ("float", "0.0"), (case, key)
                else:
                    # a float here would mean a formula escaped the shadow math
                    assert kind == "mpf", (case, key)
                    exact = mpmath.mpf(text)
                    assert abs(value - exact) <= FLOAT_RTOL * abs(exact), (case, key, text)
                    assert f"{value:.6g}" == correctly_rounded(text), (case, key, text)
                checked += isinstance(value, float)
    assert checked == 300  # the float fields of the twelve reports, 8 exact zeros among them

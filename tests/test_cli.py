import ast
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import levicav.cli as cli
from levicav import pulse
from levicav.cli import main, render_kv


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.yaml"
    code = main(["preset", "sphere-appendix-h", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture
def rod_file(tmp_path):
    path = tmp_path / "rod.yaml"
    assert main(["preset", "rod-translation", "--out", str(path)]) == 0
    return str(path)


def open_preset():
    from levicav.scenario import preset_scenario_dict
    return yaml.safe_dump(preset_scenario_dict("sphere-appendix-h"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreset:
    def test_emits_loadable_yaml(self, capsys):
        code, out, _ = run(capsys, ["preset", "sphere-appendix-h"])
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["cavity"]["finesse"] == 1e5
        assert doc["object"]["radius_m"] == 250e-9

    def test_unknown_preset_exit_1(self, capsys):
        code, _, err = run(capsys, ["preset", "nonesuch"])
        assert code == 1
        assert "unknown preset" in err


class TestFeasibility:
    def test_report_to_stdout(self, capsys, sphere_file):
        code, out, err = run(capsys, ["feasibility", sphere_file])
        assert code == 0
        assert "good_cavity: true" in out
        assert "kappa_hz: 187370" in out
        assert "strong_coupling: true" in out
        assert "evaluating" in err

    def test_quiet_suppresses_chatter(self, capsys, sphere_file):
        code, out, err = run(capsys, ["feasibility", sphere_file, "--quiet"])
        assert code == 0
        assert err == ""
        assert "scenario: sphere-appendix-h" in out

    def test_out_file(self, capsys, sphere_file, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["feasibility", sphere_file, "--quiet",
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert "g_hz:" in text

    def test_rod_report_has_na_fields(self, capsys, rod_file):
        code, out, _ = run(capsys, ["feasibility", rod_file, "--quiet"])
        assert code == 0
        assert "scattering_finesse_ok: n/a" in out
        assert "selftrap:" in out

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["feasibility", str(tmp_path / "none.yaml")])
        assert code == 1
        assert "error" in err

    def test_invalid_scenario_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("cavity: {length_m: -1, finesse: 1e5, wavelength_m: 1e-6}\n")
        code, _, err = run(capsys, ["feasibility", str(bad)])
        assert code == 1

    def test_six_significant_figures(self, capsys, sphere_file):
        _, out, _ = run(capsys, ["feasibility", sphere_file, "--quiet"])
        for line in out.splitlines():
            if line.strip().startswith("kappa_hz:"):
                value = line.split(":")[1].strip()
                assert value == "187370"


class TestTrace:
    def test_csv_contract(self, capsys, sphere_file):
        code, out, _ = run(capsys, ["trace", sphere_file, "--quiet"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t_seconds", "t_kappa_units", "n_phonon"]
        assert len(rows) == 2001
        t_sec = [float(r[0]) for r in rows[1:]]
        t_kap = [float(r[1]) for r in rows[1:]]
        n = [float(r[2]) for r in rows[1:]]
        assert t_sec == sorted(t_sec)
        assert t_kap[-1] == pytest.approx(20.0, rel=1e-4)
        assert 0.0 <= max(n) <= 1.0

    def test_overrides_change_peak(self, capsys, sphere_file):
        _, out1, _ = run(capsys, ["trace", sphere_file, "--quiet"])
        _, out2, _ = run(capsys, ["trace", sphere_file, "--quiet",
                                  "--g-over-kappa", "0.25"])
        peak1 = max(float(r.split(",")[2]) for r in out1.splitlines()[1:])
        peak2 = max(float(r.split(",")[2]) for r in out2.splitlines()[1:])
        assert peak2 < peak1

    def test_pulse_before_t0_gives_zero_trace(self, capsys, tmp_path):
        # the pulse window closes at t = -3.2/kappa: nothing reaches the cavity
        doc = yaml.safe_load(open_preset())
        doc["protocol"]["delay_kappa"] = -5.0
        path = tmp_path / "early.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, _ = run(capsys, ["trace", str(path), "--quiet"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2000 and all(float(r[2]) == 0.0 for r in rows)

    def test_strong_coupling_peak(self, capsys, sphere_file):
        _, out, _ = run(capsys, ["trace", sphere_file, "--quiet",
                                 "--g-over-kappa", "1.0", "--sigma-over-kappa", "5.6"])
        peak = max(float(r.split(",")[2]) for r in out.splitlines()[1:])
        assert peak == pytest.approx(0.5, abs=0.05)


class TestMalformedScenario:
    """Each malformed value exits 1 with one ``error:`` line naming it."""

    @pytest.mark.parametrize("section, key, value, named", [
        ("cavity", "finesse", float("nan"), "cavity.finesse"),
        ("object", "radius_m", float("nan"), "object.radius_m"),
        ("protocol", "sigma_over_kappa", float("inf"), "protocol.sigma_over_kappa"),
        ("cavity", "finesse", "abc", "cavity.finesse"),
        ("gas", "temperature_K", [300.0], "gas.temperature_K"),
        ("protocol", "n_points", -5, "protocol.n_points"),
        ("cavity", None, 3, "'cavity'"),
        ("drive", None, "0.5 mW", "'drive'"),
        ("gas", "temprature_K", 10, "gas.temprature_K; did you mean gas.temperature_K"),
        ("cavity", "finesse_typo", 3, "cavity.finesse_typo; did you mean cavity.finesse"),
        (None, "cavty", {}, "cavty; did you mean cavity"),
        ("drive", "wavelength_m", 0, "drive.wavelength_m"),
        ("protocol", "n_points", 1e300, "protocol.n_points"),
        ("protocol", "sigma_over_kappa", -1, "protocol.sigma_over_kappa"),
        ("protocol", "t_max_kappa", 0, "protocol.t_max_kappa"),
        ("drive", "wavelength_m", 1.0e-310, "drive.wavelength_m"),
    ])
    @pytest.mark.parametrize("command", ["feasibility", "trace"])
    def test_exit_1_with_one_error_line(self, capsys, tmp_path, command, section, key,
                                        value, named):
        doc = yaml.safe_load(open_preset())
        if key is None:
            doc[section] = value
        else:
            (doc if section is None else doc[section])[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, [command, str(path), "--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("flag, value", [
        ("--sigma-over-kappa", "0"), ("--sigma-over-kappa", "-1"),
        ("--sigma-over-kappa", "nan"), ("--g-over-kappa", "-1"), ("--g-over-kappa", "inf")])
    def test_bad_trace_flag_named(self, capsys, sphere_file, flag, value):
        # the flags go through the protocol keys' checks: one reason per value,
        # naming the flag
        code, out, err = run(capsys, ["trace", sphere_file, flag, value, "--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}: must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("values", [",", ""])
    def test_sweep_without_values_exit_1(self, capsys, sphere_file, values):
        # an empty value list printed a blank document with exit 0
        code, out, err = run(capsys, ["sweep", sphere_file, "--axis", "power",
                                      "--values", values, "--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: sweep values") and err.count("\n") == 1


#: (preset, section, key, value) whose report overflows the float range (in
#: the rod cases, omega_t); the sphere preset is left out of the test id
OVERFLOWS = [
    ("sphere-appendix-h", "object", "eps1", 1e308),
    ("sphere-appendix-h", "object", "eps2", 1e308),
    ("sphere-appendix-h", "gas", "pressure_torr", 1e300),
    ("sphere-appendix-h", "drive", "power_W", 1e300),
    ("sphere-appendix-h", "thermal", "intensity_W_m2", 1e300),
    ("sphere-appendix-h", "thermal", "emissivity", 1e-300),
    ("sphere-appendix-h", "cavity", "wavelength_m", 1e300),
    ("rod-translation", "trap", "mode1_power_W", 1e300),
    ("rod-rotation", "cavity", "finesse", 1e300),
]


class TestExitCodes:
    @pytest.mark.parametrize("preset, section, key, value", [
        pytest.param(*case, id="-".join(map(str, case[1:] if case[0] == "sphere-appendix-h"
                                             else case)))
        for case in OVERFLOWS])
    def test_float_overflow_exit_2(self, capsys, tmp_path, preset, section, key, value):
        from levicav.scenario import preset_scenario_dict
        doc = preset_scenario_dict(preset)
        doc[section][key] = value
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, ["feasibility", str(path), "--quiet"])
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_overflow_names_the_report_field(self, capsys, tmp_path):
        doc = yaml.safe_load(open_preset())
        doc["drive"]["power_W"] = 1.0e300
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, ["feasibility", str(path), "--quiet"])
        assert (code, out) == (2, "")
        assert err == "numerical failure: report field optomech.alpha_abs is inf\n"

    def test_unexpected_exception_one_line(self, capsys, monkeypatch, sphere_file):
        # a defect in a subcommand reaches the user as one line, not a traceback
        import levicav.cli as cli

        def broken(_protocol):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "phonon_trace", broken)
        code, out, err = run(capsys, ["trace", sphere_file, "--quiet"])
        assert (code, out) == (2, "")
        assert err == "internal error: RuntimeError: boom second line\n"

    def test_keyboard_interrupt_passes_through(self, monkeypatch, sphere_file):
        import levicav.cli as cli

        def interrupted(_protocol):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "phonon_trace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["trace", sphere_file, "--quiet"])

    def test_yaml_syntax_error_one_line(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("cavity:\n  finesse: [1\n")
        code, _, err = run(capsys, ["feasibility", str(path)])
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "YAML" in err

    def test_numerical_failure_exit_2(self, capsys, tmp_path):
        # a grid too coarse to sample the trace is a numerical failure
        doc = yaml.safe_load(open_preset())
        doc["protocol"]["n_points"] = 60
        path = tmp_path / "coarse.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, ["trace", str(path), "--quiet",
                                    "--g-over-kappa", "1.0"])
        assert code == 2
        assert "numerical failure" in err

    def test_pulse_between_grid_points_exit_2(self, capsys, tmp_path):
        # at t_max = 1e308/kappa the pulse falls between the first two grid
        # points and every sample is 0; this exited 0 with an all-zero CSV
        doc = yaml.safe_load(open_preset())
        doc["protocol"]["t_max_kappa"] = 1.0e308
        path = tmp_path / "sparse.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, ["trace", str(path), "--quiet"])
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: time grid too coarse: every sample is 0 ")
        assert "1/sigma" in err and err.count("\n") == 1

    def test_zero_coupling_zero_trace_exit_0(self, capsys, sphere_file):
        # with g = 0 no phonon is made: the all-zero trace is the answer
        code, out, _ = run(capsys, ["trace", sphere_file, "--quiet", "--g-over-kappa", "0"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2000 and all(float(r[2]) == 0.0 for r in rows)

    @pytest.mark.parametrize("flags, file_value, key", [
        (["--sigma-over-kappa", "1e308"], None, "sigma_over_kappa"),
        (["--g-over-kappa", "1e308"], None, "g_over_kappa"),
        ([], 1.0e308, "sigma_over_kappa"),
    ], ids=["sigma-flag", "g-flag", "sigma-key"])
    def test_rate_overflow_names_the_key(self, capsys, tmp_path, flags, file_value, key):
        # a finite ratio times kappa that overflows the rate was reported as
        # "sigma must be finite" with exit 1, naming neither flag nor key
        doc = yaml.safe_load(open_preset())
        if file_value is not None:
            doc["protocol"][key] = file_value
        path = tmp_path / "rate.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, ["trace", str(path), "--quiet", *flags])
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: protocol.{key} * kappa = 1e+308 * ")
        assert err.endswith(" is inf\n") and err.count("\n") == 1


class TestSweep:
    def test_sweep_documents(self, capsys, sphere_file):
        code, out, _ = run(capsys, ["sweep", sphere_file, "--axis", "P",
                                    "--values", "0.00025,0.0005,0.001", "--quiet"])
        assert code == 0
        docs = out.split("---")
        assert len(docs) == 3
        assert "axis: P" in docs[0]
        assert "value: 0.00025" in docs[0]

    def test_unknown_axis_exit_1(self, capsys, sphere_file):
        code, _, err = run(capsys, ["sweep", sphere_file, "--axis", "nope",
                                    "--values", "1"])
        assert code == 1
        assert "axis" in err

    @pytest.mark.parametrize("values", ["nan,inf", "0.0005,inf", "0.0005,-inf"])
    def test_non_finite_values_exit_1(self, capsys, sphere_file, values):
        code, out, err = run(capsys, ["sweep", sphere_file, "--axis", "power",
                                      "--values", values, "--quiet"])
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_bad_values_exit_1(self, capsys, sphere_file):
        code, _, _ = run(capsys, ["sweep", sphere_file, "--axis", "P",
                                  "--values", "a,b"])
        assert code == 1

    @pytest.mark.parametrize("values", ["0", "1,-1"])
    def test_non_positive_sigma_exit_1(self, capsys, sphere_file, values):
        code, out, err = run(capsys, ["sweep", sphere_file, "--axis", "sigma",
                                      "--values", values, "--quiet"])
        assert (code, out) == (1, "")
        assert err.startswith("error: protocol.sigma_over_kappa") and err.count("\n") == 1


class TestRender:
    def test_nested_rendering(self):
        text = render_kv({"a": {"b": 1.2345678, "c": True}, "d": None})
        assert "a:" in text
        assert "  b: 1.23457" in text
        assert "  c: true" in text
        assert "d: n/a" in text


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "levicav.cli",
                           "preset", "rod-rotation"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "rod-rotation" in proc.stdout


SCIPY_PROBE = """
import json, sys

def heavy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

import levicav
after_package = heavy_modules()
import levicav.cli as cli
after_import = heavy_modules()
path = sys.argv[1]
codes = [cli.main(["preset", "sphere-appendix-h", "--out", path]),
         cli.main(["feasibility", path, "--quiet"]),
         cli.main(["sweep", path, "--axis", "P", "--values", "0.001", "--quiet"])]
introspection = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print("PROBE " + json.dumps([after_package, after_import, codes, heavy_modules(),
                             introspection, "yaml" in sys.modules]))
"""


def test_report_paths_import_no_scipy(tmp_path):
    # numpy and scipy are loaded only by trace/envelope calls and the
    # oracles; the package, the preset, feasibility and sweep paths start
    # without them. Records register with dataclasses only when something
    # asks for their dataclass fields, which these paths never do, so
    # neither dataclasses nor inspect loads either. levicav.kvdoc writes and
    # reads the preset file, so PyYAML does not load
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "s.yaml")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    after_package, after_import, codes, after_commands, introspection, pyyaml = json.loads(
        line[len("PROBE "):])
    assert after_package == []
    assert after_import == []
    assert codes == [0, 0, 0]
    assert after_commands == []
    assert introspection == []
    assert pyyaml is False


PRESET_PROBE = """
import json, sys
RECORD_MODULES = ("levicav.scenario", "levicav.cavity", "levicav.sphere", "levicav.rod",
                  "levicav.environment", "levicav.constants", "levicav.records")
had_dataclasses = "dataclasses" in sys.modules
import levicav
import levicav.cli as cli
code = cli.main(["preset", "sphere-appendix-h", "--out", sys.argv[1]])
loaded = [m for m in RECORD_MODULES if m in sys.modules]
if "dataclasses" in sys.modules and not had_dataclasses:
    loaded.append("dataclasses")
if "yaml" in sys.modules:
    loaded.append("yaml")
print("PROBE " + json.dumps([code, loaded]))
"""


def test_preset_loads_no_record_module(tmp_path):
    # a preset is a dict dumped as YAML: no record type, so neither the
    # record modules nor dataclasses load, and levicav.kvdoc writes it
    # without PyYAML
    proc = subprocess.run([sys.executable, "-c", PRESET_PROBE, str(tmp_path / "s.yaml")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    assert json.loads(line[len("PROBE "):]) == [0, []]


TRACE_PROBE = """
import json, sys
import levicav.cli as cli
codes = [cli.main(["preset", "rod-rotation", "--out", sys.argv[1]]),
         cli.main(["trace", sys.argv[1], "--quiet", "--out", sys.argv[1] + ".csv"])]
print("PROBE " + json.dumps([codes, "yaml" in sys.modules]))
"""


def test_trace_loads_no_pyyaml(tmp_path):
    # a preset file is read by levicav.kvdoc: PyYAML is only the fallback
    # for YAML outside the subset, so trace runs without it too
    proc = subprocess.run([sys.executable, "-c", TRACE_PROBE, str(tmp_path / "s.yaml")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    assert json.loads(line[len("PROBE "):]) == [[0, 0], False]


#: the 56 public names the package serves, by home module
PACKAGE_NAMES = {
    "cavity": ["BodyGeometry", "CavityConfig", "Rod", "Sphere", "derived_cavity_quantities",
               "numeric_derivatives"],
    "constants": ["CODATA", "PhysicalConstants", "angular_to_hz", "hz_to_angular",
                  "pa_to_torr", "torr_to_pa"],
    "environment": ["DecoherenceBudget", "GasEnvironment", "ThermalInput", "bulk_temperature",
                    "decoherence_budget", "decoherence_rates", "gas_damping",
                    "heating_time_and_bound", "quality_factor"],
    "pulse": ["PhononTrace", "PulseProtocol", "SuperpositionState", "amplification_envelope",
              "conditional_superposition", "phonon_trace", "refined_peak"],
    "presets": ["preset_scenario_dict"],
    "rod": ["C1", "C2", "LGPairProfile", "SelfTrapSolution", "rod_coupling_constants",
            "rod_frequency_profile", "rod_optomech_params", "rotation_configuration",
            "solve_self_trap", "translation_configuration"],
    "scenario": ["FeasibilityReport", "Scenario", "SelfTrapSpec", "build_protocol",
                 "evaluate_scenario", "load_scenario", "scattering_finesse_bound", "sweep"],
    "sphere": ["DielectricObject", "DriveConfig", "OptomechParams", "TweezerConfig",
               "assemble_optomech_params", "intracavity_amplitude", "sphere_frequency_profile",
               "sphere_linear_coupling", "tweezer_trap_frequency"],
}
HOME = {name: module for module, names in PACKAGE_NAMES.items() for name in names}


@pytest.mark.parametrize("name", HOME)
def test_pulse_names_served_lazily(name):
    # every public name, not only the pulse ones, is served on first use
    # as its home module's own object
    import importlib
    import levicav
    home = importlib.import_module(f"levicav.{HOME[name]}")
    assert getattr(levicav, name) is getattr(home, name)


def test_all_covers_the_public_names():
    import levicav
    assert len(HOME) == 56
    assert set(HOME) <= set(levicav.__all__)


def test_star_import_binds_every_name_in_all():
    import levicav
    namespace: dict = {}
    exec("from levicav import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(levicav.__all__)


def test_unknown_package_attribute_raises():
    import levicav
    with pytest.raises(AttributeError, match="no_such_name"):
        levicav.no_such_name


def csv_writer_trace(times, kappa, values) -> str:
    """The ``csv.writer`` formatting that ``cli._trace_csv`` replaced, kept as
    its reference."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t_seconds", "t_kappa_units", "n_phonon"])
    for t, n in zip(times, values):
        writer.writerow([f"{t:.6g}", f"{t * kappa:.6g}", f"{n:.6g}"])
    return buf.getvalue()


@pytest.mark.parametrize("case", ["seeded", "edges", "empty", "single"])
def test_trace_csv_matches_csv_writer(case):
    import numpy as np
    from levicav.cli import _trace_csv
    rng = np.random.default_rng(1207)
    # signed zeros, the smallest subnormal, huge magnitudes, and values at
    # the rounding edge of the sixth significant figure
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 9.9999995e-5,
                      9.99999949999e-5, 0.9999995, 1.0000005, 999999.5, 123456.45,
                      2.5e-7, 1.5e-300])
    times, values = {
        "seeded": (np.sort(rng.uniform(0.0, 2e-4, 2000)),
                   rng.lognormal(-3.0, 4.0, 2000) * rng.choice([-1.0, 1.0], 2000)),
        "edges": (edges, edges[::-1].copy()),
        "empty": (np.empty(0), np.empty(0)),
        "single": (np.array([1.7e-5]), np.array([0.4999995])),
    }[case]
    for kappa in (1177263.9, 1.0, 1e-3):
        assert _trace_csv(times, kappa, values) == csv_writer_trace(times, kappa, values)


ORACLE_NAMES = {"ModeField", "tem00_mode", "lg_pair_mode", "perturbative_shift"}


def identifiers(tree):
    """Every name a module defines, imports, exports or refers to."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            yield node.asname
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant):  # __all__ entries
            yield node.value


def test_oracles_stay_out_of_the_package():
    # the volume-quadrature route lives in tests/oracles.py, so the tests
    # compare the package against a route it does not share
    src = Path(__file__).resolve().parent.parent / "src" / "levicav"
    found = [(path.name, sorted(ORACLE_NAMES.intersection(identifiers(ast.parse(path.read_text())))))
             for path in sorted(src.glob("*.py"))]
    assert [(name, hits) for name, hits in found if hits] == []


#: values a mutation puts in place of a key or a section
ODD_VALUES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e300, 1e-308,
              -1.0, 0, 0.0, -5, "abc", "", [1.0], {"x": 1}, None, True, 10**400]


@st.composite
def mutated_preset(draw, sections=None, changes=(1, 3)):
    """A preset document with a few keys dropped, renamed or given odd values;
    only keys of ``sections`` when given."""
    from levicav.scenario import PRESET_NAMES, preset_scenario_dict
    doc = preset_scenario_dict(draw(st.sampled_from(PRESET_NAMES)))
    for _ in range(draw(st.integers(*changes))):
        paths = [(None, key) for key in doc] + [
            (section, key) for section, body in doc.items() if isinstance(body, dict)
            for key in body]
        paths = [path for path in paths if sections is None or path[0] in sections]
        section, key = draw(st.sampled_from(paths))
        owner = doc if section is None else doc[section]
        op = draw(st.sampled_from(["drop", "rename", "value"]))
        if op == "drop":
            del owner[key]
        elif op == "rename":
            owner[key + draw(st.sampled_from(["x", "_typo"]))] = owner.pop(key)
        else:
            owner[key] = draw(st.sampled_from(ODD_VALUES))
    return doc


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutated") / "scenario.yaml")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=mutated_preset(),
       axis=st.sampled_from(["P", "R", "F", "d", "pressure", "T", "I0", "mode1_power",
                             "sigma", "g_over_kappa"]),
       value=st.sampled_from(["0", "-1", "1e-3", "1e308", "2e5"]))
def test_mutated_scenarios_fail_cleanly(scenario_path, doc, axis, value):
    # every outcome is an exit code: a report, or one stderr line; traces
    # have their own test, which keeps n_points small
    Path(scenario_path).write_text(yaml.safe_dump(doc))
    for argv in (["feasibility", scenario_path],
                 ["sweep", scenario_path, "--axis", axis, "--values", value]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--quiet"])
        if code == 0:
            values = [line.split(":", 1)[1].strip() for line in out.getvalue().splitlines()
                      if not line.startswith("scenario:")]  # the name is free text
            assert not {"nan", "inf", "-inf"}.intersection(values), (argv, doc)
        else:
            assert code in (1, 2) and err.getvalue().count("\n") == 1, (argv, err.getvalue())


#: --g-over-kappa / --sigma-over-kappa arguments: none, a usual one or an odd one
OVERRIDES = st.one_of(st.none(), st.sampled_from(["0.25", "0.5", "1", "2.5"]),
                      st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf"]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(doc=st.one_of(mutated_preset(sections=("protocol",), changes=(0, 2)), mutated_preset()),
       n_points=st.just(400) | st.integers(3, 400),
       t_max_kappa=st.sampled_from([None, 6.0, 1e308]),
       g_over_kappa=OVERRIDES, sigma_over_kappa=OVERRIDES)
def test_mutated_traces_fail_cleanly(scenario_path, doc, n_points, t_max_kappa,
                                     g_over_kappa, sigma_over_kappa):
    # a trace is a finite CSV or one stderr line; half the documents change
    # at most the protocol, so many reach the swap numerics; n_points is drawn
    # small, so a mutation cannot ask for a large grid, and a shorter t_max
    # lets such a grid resolve the swap; at 1e308 the pulse falls between
    # two grid points, which must not pass as an all-zero trace
    if isinstance(doc.get("protocol"), dict):
        doc["protocol"]["n_points"] = n_points
        if t_max_kappa is not None:
            doc["protocol"]["t_max_kappa"] = t_max_kappa
    Path(scenario_path).write_text(yaml.safe_dump(doc))
    argv = ["trace", scenario_path, "--quiet"]
    for flag, value in (("--g-over-kappa", g_over_kappa),
                        ("--sigma-over-kappa", sigma_over_kappa)):
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "phonon_trace", wraps=cli.phonon_trace) as traced:
        code = main(argv)
    if code == 0:
        rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row), (argv, doc)
        # a coupled pulse that reaches the grid after t = 0 leaves a phonon
        protocol = traced.call_args.args[0]
        lo, hi = pulse._pulse_window(protocol)
        if protocol.g > 0.0 and hi > 0.0 and protocol.t_grid[-1] > max(lo, 0.0):
            assert any(float(row[2]) for row in rows), (argv, doc)
    else:
        assert code in (1, 2) and err.getvalue().count("\n") == 1, (argv, err.getvalue())

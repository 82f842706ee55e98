import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import levicav.cli as cli
from levicav import pulse, swap
from levicav.cli import _cmd_feasibility, _cmd_preset, _cmd_sweep, _cmd_trace, main, render_kv
from levicav.errors import ValidationError
from levicav.presets import PRESET_NAMES


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

    @pytest.mark.parametrize("offset", [0, 9000])
    def test_undecodable_file_exit_1(self, capsys, tmp_path, offset):
        # the offset counts from the start of the file, past the first
        # 8192-byte read chunk too
        path = tmp_path / "bytes.yaml"
        path.write_bytes(b"#" * offset + b"\xff\xfe: 2\n")
        code, out, err = run(capsys, ["feasibility", str(path), "--quiet"])
        assert (code, out) == (1, "")
        assert err == (f"error: scenario file {path} is not UTF-8 text: "
                       f"invalid start byte at byte {offset}\n")

    @pytest.mark.parametrize("argv, named", [
        ([], "levicav: missing subcommand"),
        (["bogus"], "levicav: unknown subcommand 'bogus'"),
        (["feasibility"], "levicav feasibility: missing SCENARIO.yaml"),
        (["trace", "F", "--g-over-kappa"], "levicav trace: --g-over-kappa expects a value"),
        (["trace", "F", "--g-over-kappa", "abc"], "levicav trace: --g-over-kappa expects a "
                                                   "number, got 'abc'"),
        (["sweep", "F", "--axis", "power"], "levicav sweep: missing --values CSV"),
        (["feasibility", "F", "extra"], "levicav feasibility: unexpected argument 'extra'"),
        (["feasibility", "F", "--quiet=1"], "levicav feasibility: --quiet takes no value, "
                                            "got '--quiet=1'"),
        (["feasibility", "F", "--nope"], "levicav feasibility: unrecognized option '--nope'"),
    ])
    def test_usage_error_exit_1(self, capsys, sphere_file, argv, named):
        # a malformed command line is a validation error: one line naming the
        # subcommand and the token, not argparse's exit 2 and usage block
        code, out, err = run(capsys, [sphere_file if arg == "F" else arg for arg in argv])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flags", [
        (None, ["--out", "--quiet", "--g-over-kappa", "--sigma-over-kappa", "--axis",
                "--values"]),
        ("preset", ["NAME", "--out", "--quiet"]),
        ("feasibility", ["SCENARIO.yaml", "--out", "--quiet"]),
        ("trace", ["SCENARIO.yaml", "--g-over-kappa", "--sigma-over-kappa", "--out",
                   "--quiet"]),
        ("sweep", ["SCENARIO.yaml", "--axis", "--values", "--out", "--quiet"]),
    ])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exit_0(self, capsys, command, flags, flag):
        code, out, err = run(capsys, [flag] if command is None else [command, flag])
        assert (code, err) == (0, "")
        assert out.startswith(f"levicav {command or 'preset'} ")
        assert all(name in out for name in flags)

    @pytest.mark.parametrize("argv", [
        ["feasibility"], ["sweep", "--axis", "pressure", "--values", "0,1e-6"]],
        ids=["feasibility", "sweep"])
    def test_zero_pressure_names_its_key(self, capsys, tmp_path, argv):
        # zero pressure makes Q infinite; a chamber without gas leaves the
        # gas section out
        doc = yaml.safe_load(open_preset())
        if argv[0] == "feasibility":
            doc["gas"]["pressure_torr"] = 0.0
        path = tmp_path / "vacuum.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:], "--quiet"])
        assert (code, out) == (1, "")
        assert err == "error: gas.pressure_torr: must be positive, got 0.0\n"

    @pytest.mark.parametrize("section, key, value, message", [
        ("gas", "temperature_K", 0.0, "gas: temperature and molecule mass must be positive"),
        ("gas", "molecule_mass_amu", 1e-320, "gas: temperature and molecule mass must be "
                                             "positive"),
        ("gas", "cooling_rate_per_s", 0.0, "gas.cooling_rate_per_s: must be positive, got 0.0"),
        ("gas", "cooling_rate_per_s", -1e5, "gas.cooling_rate_per_s: must be positive, "
                                            "got -100000.0"),
        ("cavity", "finesse", 1.0, "cavity: finesse must exceed 1"),
        ("object", "eps1", 0.5, "object: eps1 must be >= 1"),
        ("drive", "power_W", -1.0, "drive: drive power must be non-negative"),
        ("thermal", "emissivity", 2.0, "thermal: emissivity must be in (0, 1]"),
    ])
    def test_record_error_names_its_section(self, capsys, tmp_path, section, key, value,
                                            message):
        # a value that passes its key's check but not its record's
        doc = yaml.safe_load(open_preset())
        doc[section][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, ["feasibility", str(path), "--quiet"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("preset, section, key, axis, value, message", [
        ("sphere-appendix-h", "gas", "temperature_K", "T", 0.0,
         "gas: temperature and molecule mass must be positive"),
        ("sphere-appendix-h", "cavity", "finesse", "F", 1.0, "cavity: finesse must exceed 1"),
        ("sphere-appendix-h", "drive", "power_W", "P", -1.0,
         "drive: drive power must be non-negative"),
        ("rod-translation", "trap", "mode1_power_W", "mode1_power", 0.0,
         "trap: mode-1 power must be positive"),
    ], ids=["T", "F", "P", "mode1_power"])
    def test_sweep_record_error_reads_as_in_the_file(self, capsys, tmp_path, preset, section,
                                                     key, axis, value, message):
        # a sweep value that fails its record's check named no section
        from levicav.scenario import preset_scenario_dict
        doc = preset_scenario_dict(preset)
        good = tmp_path / "good.yaml"
        good.write_text(yaml.safe_dump(doc))
        doc[section][key] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        from_file = run(capsys, ["feasibility", str(bad), "--quiet"])
        from_sweep = run(capsys, ["sweep", str(good), "--axis", axis, "--values", str(value),
                                  "--quiet"])
        assert from_file == from_sweep == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["feasibility", "trace"])
    def test_gas_damping_underflow_exit_2(self, capsys, tmp_path, command):
        # a positive pressure whose damping rate underflows divided by zero
        # in the heating time, a message naming neither cause nor key
        doc = yaml.safe_load(open_preset())
        doc["object"]["density_kg_m3"] = 1.0e20
        doc["gas"]["pressure_torr"] = 1.0e-320
        path = tmp_path / "thin.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, [command, str(path), "--quiet"])
        assert (code, out) == (2, "")
        assert err == ("numerical failure: decoherence stage: gas damping underflows to 0 "
                       "at this gas.pressure_torr\n")

    @pytest.mark.parametrize("command", ["feasibility", "trace"])
    def test_trap_frequency_underflow_exit_2(self, capsys, tmp_path, command):
        # a trap frequency whose square underflows read as an input error, a
        # non-positive trap frequency, with exit 1
        doc = yaml.safe_load(open_preset())
        doc["object"]["density_kg_m3"] = 1.0e300
        path = tmp_path / "dense.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, out, err = run(capsys, [command, str(path), "--quiet"])
        assert (code, out) == (2, "")
        assert err == "numerical failure: coupling stage: tweezer trap frequency underflows to 0\n"

    def test_degenerate_time_grid_exit_1(self, capsys, tmp_path):
        # t_max_kappa / kappa = 1e-321: linspace's subnormal steps repeat
        # times, and the shared grid is rejected on every request, not only
        # on the one that built it
        from levicav import pulse
        from levicav.scenario import evaluate_scenario, scenario_from_dict
        doc = yaml.safe_load(open_preset())
        kappa = evaluate_scenario(scenario_from_dict(doc)).cavity.kappa
        doc["protocol"]["t_max_kappa"] = 1e-321 * kappa
        grid = pulse._uniform_grid(doc["protocol"]["t_max_kappa"] / kappa,
                                   doc["protocol"]["n_points"])
        assert not (grid[1:] > grid[:-1]).all()
        path = tmp_path / "instant.yaml"
        path.write_text(yaml.safe_dump(doc))
        for _ in range(2):
            code, out, err = run(capsys, ["trace", str(path), "--quiet"])
            assert (code, out) == (1, "")
            assert err == "error: t_grid must be a strictly increasing 1-D array\n"

    def test_duplicate_key_exit_1(self, capsys, tmp_path):
        # PyYAML would keep the later value silently
        text = open_preset()
        assert "  finesse: 100000.0\n" in text
        path = tmp_path / "dup.yaml"
        path.write_text(text.replace("  finesse: 100000.0\n",
                                     "  finesse: 100000.0\n  finesse: 1.0e+9\n"))
        lines = text.splitlines()  # 1-based: the cavity mapping and the second finesse
        start, second = lines.index("cavity:") + 2, lines.index("  finesse: 100000.0") + 2
        code, out, err = run(capsys, ["feasibility", str(path), "--quiet"])
        assert (code, out) == (1, "")
        assert err == (f"error: scenario file {path} is not valid YAML: while constructing a "
                       f"mapping in \"{path}\", line {start}, column 3 found duplicate key "
                       f"'finesse' in \"{path}\", line {second}, column 3\n")

    def test_unexpected_exception_one_line(self, capsys, monkeypatch, sphere_file):
        # a defect in a subcommand reaches the user as one line, not a traceback
        import levicav.cli as cli

        def broken(_protocol):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "phonon_trace", broken)
        code, out, err = run(capsys, ["trace", sphere_file, "--quiet"])
        assert (code, out) == (2, "")
        assert err == "internal error: RuntimeError: boom second line\n"

    @pytest.mark.parametrize("argv, code", [
        (["feasibility", "F"], 1),
        (["feasibility", "missing.yaml", "--quiet"], 1),
        (["trace", "F", "--sigma-over-kappa", "1e308", "--quiet"], 2),
    ], ids=["chatter", "validation", "numerical"])
    def test_unwritable_stderr_still_returns(self, capsys, monkeypatch, sphere_file, argv,
                                             code):
        # main returns its code when stderr cannot take a line: a failed
        # chatter line is a write error, and a failure keeps its own code
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stderr", Full())
        assert main([sphere_file if arg == "F" else arg for arg in argv]) == code
        assert capsys.readouterr().out == ""

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

    def test_phonon_number_above_one_exit_2(self, capsys, monkeypatch, sphere_file):
        # a valid protocol's peak is at most 1: a larger one is a computation
        # that failed, not an input error; trace takes the scalar route, and
        # test_pulse.py's TestTrace holds the library route's twin
        monkeypatch.setattr(swap, "vb_values", lambda p, t: [1.5] * len(t))
        code, out, err = run(capsys, ["trace", sphere_file, "--quiet"])
        assert (code, out) == (2, "")
        assert err == "numerical failure: phonon expectation exceeded 1: invalid protocol state\n"

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

    def test_underflowed_trace_exit_2(self, capsys, sphere_file):
        # at g = 1e-300 kappa every sample underflows to 0 on a grid step 18
        # times finer than the pulse: a numerical failure that says so, where
        # it was reported as a grid too coarse
        code, out, err = run(capsys, ["trace", sphere_file, "--quiet", "--g-over-kappa", "1e-300"])
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: phonon trace underflowed to 0: every sample ")
        assert "grid times inside the pulse window" in err and err.count("\n") == 1

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


def fresh(argv, stdout=subprocess.PIPE, entry=("-m", "levicav.cli"), unbuffered=False):
    """``python -m levicav.cli ARGV`` in a new process, its stdout
    block-buffered as for any pipe or file unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *entry, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


#: each subcommand's arguments after the scenario file, per preset
FRESH_ARGS = {
    ("sweep", "sphere-appendix-h"): ["--axis", "P", "--values", "0.00025,0.0005,0.001"],
    ("sweep", "rod-rotation"): ["--axis", "mode1_power", "--values", "0.002,0.004"],
}


class TestFreshProcess:
    """``python -m levicav.cli`` flushes its streams and ends with
    ``os._exit``: nothing written may be lost, and every failure is still
    one stderr line."""

    @pytest.mark.parametrize("command", ["preset", "feasibility", "trace", "sweep"])
    @pytest.mark.parametrize("preset", ["sphere-appendix-h", "rod-rotation"])
    def test_output_matches_main(self, capsys, tmp_path, preset, command):
        path = tmp_path / "s.yaml"
        assert main(["preset", preset, "--out", str(path)]) == 0
        argv = [command, preset if command == "preset" else str(path),
                *FRESH_ARGS.get((command, preset), []), "--quiet"]
        code, want, _ = run(capsys, argv)
        assert code == 0 and len(want) > (60_000 if command == "trace" else 300)
        proc = fresh(argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == want.encode()
        out = tmp_path / "out.txt"
        proc = fresh([*argv, "--out", str(out)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("argv, code, start", [
        (["trace"], 1, "error: levicav trace: missing SCENARIO.yaml"),
        (["sweep", "F", "--axis", "T", "--values", "0"], 1,
         "error: gas: temperature and molecule mass must be positive"),
        (["trace", "F", "--sigma-over-kappa", "1e308"], 2,
         "numerical failure: protocol.sigma_over_kappa * kappa = 1e+308 * "),
    ], ids=["usage", "validation", "numerical"])
    def test_failure_is_one_line(self, sphere_file, argv, code, start):
        proc = fresh([sphere_file if arg == "F" else arg for arg in argv] + ["--quiet"])
        err = proc.stderr.decode()
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert err.startswith(start) and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered, entry", [
        (False, ("-m", "levicav.cli")),
        (True, ("-m", "levicav.cli")),
        (False, ("-c", "import runpy, sys; sys.setprofile(lambda *a: None); "
                       "runpy.run_module('levicav.cli', run_name='__main__')")),
    ], ids=["buffered", "unbuffered", "profiled"])
    @pytest.mark.parametrize("command", ["feasibility", "trace"])
    def test_full_stdout_exit_1(self, sphere_file, command, unbuffered, entry):
        # a report fits the stdout buffer and fails only on the final flush;
        # the 60 KB trace fails inside main; a profiled run's normal exit
        # must not flush the failed buffer again
        with open("/dev/full", "wb") as full:
            proc = fresh([command, sphere_file, "--quiet"], stdout=full, entry=entry,
                         unbuffered=unbuffered)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Exception ignored" not in err

    @pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
    def test_closed_stdout_no_traceback(self, sphere_file):
        # stdout is None in the process: main reports it as a write error, in
        # one line, and the flush must not raise past it
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m",
                               "levicav.cli", "feasibility", sphere_file, "--quiet"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "error: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stderr_exit_1(self, sphere_file):
        # the chatter line fails, and so does the error line that reports it
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "levicav.cli", "feasibility",
                                   sphere_file], stdout=subprocess.PIPE, stderr=full,
                                  timeout=120)
        assert (proc.returncode, proc.stdout) == (1, b"")

    def test_profiled_run_prints_its_stats(self, capsys):
        # cProfile prints its table after the program ends through SystemExit;
        # os._exit would end the process first (on 3.12+ cProfile registers
        # as a sys.monitoring tool, not through sys.setprofile)
        _, want, _ = run(capsys, ["preset", "sphere-appendix-h", "--quiet"])
        proc = fresh(["preset", "sphere-appendix-h", "--quiet"],
                     entry=("-m", "cProfile", "-m", "levicav.cli"))
        out = proc.stdout.decode()
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.startswith(want) and "function calls" in out[len(want):]

    def test_console_script_enters_through_run(self, sphere_file):
        # the installed script calls the [project.scripts] entry as
        # sys.exit(entry()); its trace must equal python -m's
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        module, func = re.search(r'^levicav = "([\w.]+):(\w+)"$', text, re.M).groups()
        assert (module, func) == ("levicav.cli", "run")
        argv = ["trace", sphere_file, "--quiet"]
        script = (f"import sys; from {module} import {func}; "
                  f"sys.argv[0] = 'levicav'; sys.exit({func}())")
        got, want = fresh(argv, entry=("-c", script)), fresh(argv)
        assert (got.returncode, got.stderr) == (want.returncode, want.stderr) == (0, b"")
        assert got.stdout == want.stdout


class _Monitoring:
    """Stand-in for ``sys.monitoring`` with the given tool ids in use."""

    def __init__(self, *tools):
        self.tools = tools

    def get_tool(self, tool):
        return "tool" if tool in self.tools else None


def run_entry(monkeypatch, argv, writable=True, watch=None):
    """``cli.run()`` in this process with argv, stdout failing its flush
    unless ``writable``, and sys.gettrace, sys.getprofile and sys.monitoring
    replaced as ``watch`` says (unset when absent): ``(exits, stdout,
    stderr)``, exits being the ``(function, code)`` it left through."""
    watch = watch or {}

    class Stream(io.StringIO):
        def flush(self):
            if not writable and self is stdout:
                raise OSError(28, "No space left on device")

    class Exited(Exception):
        pass

    def leave_by(name):
        def leave(code):
            exits.append((name, code))
            raise Exited
        return leave

    stdout, stderr, exits = Stream(), Stream(), []
    monkeypatch.setattr(sys, "argv", ["levicav", *argv])
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    for name in ("gettrace", "getprofile"):
        monkeypatch.setattr(sys, name, watch.get(name, lambda: None))
    monkeypatch.setattr(sys, "monitoring", watch.get("monitoring"), raising=False)
    monkeypatch.setattr(sys, "exit", leave_by("sys.exit"))
    monkeypatch.setattr(os, "_exit", leave_by("os._exit"))
    with pytest.raises(Exited):
        cli.run()
    return exits, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("watch, exit_through", [
    ({}, "os._exit"),
    ({"gettrace": lambda: print}, "sys.exit"),
    ({"getprofile": lambda: print}, "sys.exit"),
    ({"monitoring": _Monitoring(2)}, "sys.exit"),
    ({"monitoring": _Monitoring(5)}, "sys.exit"),
    ({"monitoring": _Monitoring()}, "os._exit"),
], ids=["unwatched", "trace", "profile", "monitoring-profiler", "monitoring-5", "monitoring-idle"])
@pytest.mark.parametrize("writable", [True, False], ids=["written", "full"])
def test_run_exits_by_observer(monkeypatch, watch, exit_through, writable):
    # a watched process keeps the normal exit; an unwritable stdout is one
    # error line and exit 1 on either path
    exits, out, err = run_entry(monkeypatch, ["preset", "sphere-appendix-h"], writable, watch)
    assert exits == [(exit_through, 0 if writable else 1)]
    assert out.startswith("name: sphere-appendix-h\n")
    assert err == ("" if writable else "error: [Errno 28] No space left on device\n")


def test_run_keeps_the_error_of_main(monkeypatch):
    # a failed run reports its own error only, with its own code
    exits, out, err = run_entry(monkeypatch, ["preset", "nope"], writable=False)
    assert exits == [("os._exit", 1)]
    assert out == "" and err.startswith("error: unknown preset") and err.count("\n") == 1


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
parsers = [m for m in ("argparse", "gettext") if m in sys.modules]
print("PROBE " + json.dumps([after_package, after_import, codes, heavy_modules(),
                             introspection, "yaml" in sys.modules, parsers]))
"""


def test_report_paths_import_no_scipy(tmp_path):
    # numpy and scipy are loaded only by trace/envelope calls and the
    # oracles; the package, the preset, feasibility and sweep paths start
    # without them. Records register with dataclasses only when something
    # asks for their dataclass fields, which these paths never do, so
    # neither dataclasses nor inspect loads either. levicav.kvdoc writes and
    # reads the preset file, so PyYAML does not load, and cli._parse reads
    # the command line, so neither argparse nor gettext does
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "s.yaml")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    (after_package, after_import, codes, after_commands, introspection, pyyaml,
     parsers) = json.loads(line[len("PROBE "):])
    assert after_package == []
    assert after_import == []
    assert codes == [0, 0, 0]
    assert after_commands == []
    assert introspection == []
    assert pyyaml is False
    assert parsers == []


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
loaded += [m for m in ("yaml", "argparse", "gettext") if m in sys.modules]
print("PROBE " + json.dumps([code, loaded]))
"""


def test_preset_loads_no_record_module(tmp_path):
    # a preset is a dict dumped as YAML: no record type, so neither the
    # record modules nor dataclasses load, and levicav.kvdoc writes it
    # without PyYAML; the command line is read without argparse or gettext
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
print("PROBE " + json.dumps([codes, [m for m in ("yaml", "argparse", "gettext")
                                      if m in sys.modules]]))
"""


def test_trace_loads_no_pyyaml(tmp_path):
    # a preset file is read by levicav.kvdoc: PyYAML is only the fallback
    # for YAML outside the subset, so trace runs without it too, and without
    # argparse or gettext
    proc = subprocess.run([sys.executable, "-c", TRACE_PROBE, str(tmp_path / "s.yaml")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    assert json.loads(line[len("PROBE "):]) == [[0, 0], []]


#: ``python -m levicav.cli`` whose ``os._exit`` first writes the numpy and
#: scipy modules in sys.modules to stderr
NO_NUMPY_PROBE = """
import json, os, runpy, sys

def leave(code, exit=os._exit):
    heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
    sys.stderr.write("PROBE " + json.dumps(heavy) + "\\n")
    sys.stderr.flush()
    exit(code)

os._exit = leave
runpy.run_module("levicav.cli", run_name="__main__", alter_sys=True)
"""

#: the benchmark gate's trace overrides of each preset (perfbench/gate.py)
GATE_TRACE_ARGS = {"sphere-appendix-h": {}, "rod-translation": {"g_over_kappa": 0.5},
                   "rod-rotation": {"g_over_kappa": 1.5, "sigma_over_kappa": 8.0}}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_trace_imports_no_numpy(tmp_path, preset):
    # a fresh python -m levicav.cli trace, plain and with the gate's
    # overrides, ends with no numpy or scipy module loaded, and its CSV is
    # the numpy route's trace byte for byte
    from levicav.cli import _trace_csv
    from levicav.scenario import build_protocol, preset_scenario_dict, scenario_from_dict
    path = tmp_path / "s.yaml"
    assert main(["preset", preset, "--out", str(path)]) == 0
    for overrides in ({}, GATE_TRACE_ARGS[preset]):
        flags = [word for key, value in overrides.items()
                 for word in ("--" + key.replace("_", "-"), str(value))]
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, "trace", str(path),
                               "--quiet", *flags], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b"PROBE []\n"
        doc = preset_scenario_dict(preset)
        doc["protocol"] |= overrides
        p = build_protocol(scenario_from_dict(doc))
        trace = pulse.phonon_trace(p)
        assert proc.stdout == _trace_csv(trace.times, p.kappa, trace.n_phonon).encode()


#: the 52 public names the package serves, by home module
PACKAGE_NAMES = {
    "cavity": ["CavityConfig", "Rod", "Sphere", "derived_cavity_quantities",
               "numeric_derivatives"],
    "constants": ["CODATA", "PhysicalConstants", "angular_to_hz", "hz_to_angular",
                  "pa_to_torr", "torr_to_pa"],
    "environment": ["DecoherenceBudget", "GasEnvironment", "ThermalInput", "bulk_temperature",
                    "decoherence_budget", "decoherence_rates", "gas_damping",
                    "heating_time_and_bound", "quality_factor"],
    "pulse": ["PhononTrace", "PulseProtocol", "SuperpositionState", "amplification_envelope",
              "conditional_superposition", "phonon_trace", "refined_peak"],
    "presets": ["preset_scenario_dict"],
    "rod": ["C1", "C2", "LGPairProfile", "SelfTrapSolution", "rod_optomech_params",
            "rotation_configuration", "solve_self_trap", "translation_configuration"],
    "scenario": ["FeasibilityReport", "Scenario", "SelfTrapSpec", "build_protocol",
                 "evaluate_scenario", "load_scenario", "scattering_finesse_bound", "sweep"],
    "sphere": ["DielectricObject", "DriveConfig", "OptomechParams", "TweezerConfig",
               "assemble_optomech_params", "intracavity_amplitude", "sphere_linear_coupling",
               "tweezer_trap_frequency"],
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
    assert len(HOME) == 52
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


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli._parse`` replaced, kept as its reference."""
    parser = argparse.ArgumentParser(
        prog="levicav",
        description="Optomechanical feasibility and protocol dynamics for "
                    "dielectric objects levitated in a high-finesse cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
        p.add_argument("--quiet", action="store_true",
                       help="suppress everything except the report")

    p_feas = sub.add_parser("feasibility", help="evaluate a scenario file")
    p_feas.add_argument("scenario")
    add_common(p_feas)
    p_feas.set_defaults(func=_cmd_feasibility)

    p_trace = sub.add_parser("trace", help="phonon-expectation trace as CSV")
    p_trace.add_argument("scenario")
    p_trace.add_argument("--g-over-kappa", type=float, default=None)
    p_trace.add_argument("--sigma-over-kappa", type=float, default=None)
    add_common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario along one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers in boundary units")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="emit a built-in scenario file")
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    add_common(p_preset)
    p_preset.set_defaults(func=_cmd_preset)
    return parser


def argparse_outcome(argv):
    """("help",), ("error",) or ("ok", subcommand, values) from the reference."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("error",)
    return "ok", args.command, {k: v for k, v in vars(args).items()
                                if k not in ("command", "func")}


def parse_outcome(argv):
    """The same from ``cli._parse``."""
    try:
        command, args = cli._parse(list(argv))
    except ValidationError:
        return ("error",)
    return ("help",) if args is None else ("ok", command, vars(args))


#: tokens of the differential test. Forms where this parser and argparse
#: part, or argparse releases part, are the explicit cases below: a
#: negative number other than "-1" or "-.5" ("-1e5", "-1,2"), "--" before
#: the subcommand or as a flag's "=" value, and "-h" run together with
#: more letters ("-hx", "-hh")
FLAGS = ["--out", "--quiet", "--g-over-kappa", "--sigma-over-kappa", "--axis", "--values",
         "--help", "-h", "--o", "--q", "--qu", "--g", "--g-over", "--s", "--sigma", "--a",
         "--ax", "--v", "--val", "--h", "--he", "--nope", "-x", "--outx", "--quiet-x", "-inf"]
VALUES = ["0.5", "-1", "-0.5", "-.5", "-", "nan", "inf", "", "abc", "power", "1,2", "s.yaml",
          "x y", "trace"]


@st.composite
def command_lines(draw):
    """A top-level option or none, a subcommand or an unknown word, then flags
    alone, with a value or in '=' form, and words, with the positional
    bare or beside a '--'."""
    argv = draw(st.lists(st.sampled_from(["-h", "--help", "--he", "--nope", "-x"]), max_size=1))
    argv.append(draw(st.sampled_from(["preset", "feasibility", "trace", "sweep", "bogus", "-1"])))
    pieces = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(FLAGS)),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
        st.builds(lambda flag, value: (f"{flag}={value}",), st.sampled_from(FLAGS),
                  st.sampled_from(VALUES)),
        st.tuples(st.sampled_from(VALUES))), max_size=6))
    positional = draw(st.sampled_from([(), ("s.yaml",), ("--", "s.yaml"), ("s.yaml", "--"),
                                       ("--", "-h")]))
    pieces.insert(draw(st.integers(0, len(pieces))), positional)
    return argv + [token for piece in pieces for token in piece]


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argv=command_lines())
def test_parse_matches_argparse(argv):
    # same values where argparse accepted; exit 1 with one line where it
    # exited 2; exit 0 where it printed help
    want = argparse_outcome(argv)
    if want[0] == "ok":
        # repr tells nan from nan and -0.0 from 0.0
        assert repr(parse_outcome(argv)) == repr(want), argv
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if want[0] == "help":
        assert (code, err.getvalue()) == (0, ""), argv
        assert out.getvalue().startswith("levicav "), argv
    else:
        assert (code, out.getvalue()) == (1, ""), argv
        assert err.getvalue().startswith("error: levicav") and err.getvalue().count("\n") == 1, \
            (argv, err.getvalue())


@pytest.mark.parametrize("argv, want", [
    # "-hh" is two -h to argparse, and "-hx" an error to 3.11 and help to
    # 3.13.0; here -h takes no value
    (["feasibility", "s.yaml", "-hh"], ("error",)),
    (["feasibility", "s.yaml", "-hx"], ("error",)),
    # argparse 3.10 to 3.13.0 take "--" for the subcommand's name
    (["--", "preset", "rod-rotation"], ("error",)),
    # a "--" that touches no positional is an unexpected argument
    (["feasibility", "s.yaml", "--quiet", "--"], ("error",)),
    (["feasibility", "--quiet", "--", "s.yaml"],
     ("ok", "feasibility", {"scenario": "s.yaml", "out": None, "quiet": True})),
    # argparse 3.10 to 3.13.0 dropped the "--" of "--out=--" and stored []
    (["preset", "x", "--out=--"], ("ok", "preset", {"name": "x", "out": "--", "quiet": False})),
    (["trace", "s.yaml", "--g-over-kappa=--"], ("error",)),
    # "-1e5" and "-1,2" look like options, not values, to argparse 3.10 to
    # 3.13.0
    (["trace", "s.yaml", "--g-over-kappa", "-1e5"], ("error",)),
    (["sweep", "s.yaml", "--axis", "P", "--values", "-1,2"], ("error",)),
    (["sweep", "s.yaml", "--axis", "P", "--values=-1,2"],
     ("ok", "sweep", {"scenario": "s.yaml", "axis": "P", "values": "-1,2", "out": None,
                      "quiet": False})),
    # an ambiguous prefix is an error wherever it stands, as in argparse
    (["feasibility", "-h", "--=x"], ("error",)),
])
def test_parse_explicit_cases(argv, want):
    assert parse_outcome(argv) == want


def test_synopsis_is_documented():
    # -h prints the synopsis built from cli._COMMANDS; the module docstring
    # and README's CLI block show the same lines
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f"## CLI\n\n```\n{cli._usage()}```\n" in readme
    assert f"\n\n{textwrap.indent(cli._usage(), '    ')}\n" in cli.__doc__


ORACLE_NAMES = {"ModeField", "tem00_mode", "lg_pair_mode", "perturbative_shift",
                "phonon_expectation_moments", "QuadratureError", "solve_ivp",
                "sphere_frequency_profile", "sphere_shift_profile", "rod_frequency_profile",
                "rod_shift_profile", "rod_coupling_constants", "cavity_population"}


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
    # the volume-quadrature route, the RK45 moment equations, the closed-form
    # resonance profiles and slopes and the quadrature cavity population live
    # in tests/oracles.py, so the tests compare the package against routes it
    # does not share
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
       value=st.sampled_from(["0", "-1", "1e-3", "1e308", "2e5"]),
       odd_sweep=st.sampled_from([(0, 2), (2, 4), (0, 5)]))
def test_mutated_scenarios_fail_cleanly(scenario_path, doc, axis, value, odd_sweep):
    # every outcome is an exit code: a report, or one stderr line; traces
    # have their own test, which keeps n_points small. A second sweep drops
    # --axis or --values, or adds an unknown flag
    Path(scenario_path).write_text(yaml.safe_dump(doc))
    flags = ["--axis", axis, "--values", value, "--nope"]
    for argv in (["feasibility", scenario_path], ["sweep", scenario_path, *flags[:4]],
                 ["sweep", scenario_path, *flags[slice(*odd_sweep)]]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--quiet"])
        if code == 0:
            values = [line.split(":", 1)[1].strip() for line in out.getvalue().splitlines()
                      if not line.startswith("scenario:")]  # the name is free text
            assert not {"nan", "inf", "-inf"}.intersection(values), (argv, doc)
        else:
            assert code in (1, 2) and err.getvalue().count("\n") == 1, (argv, err.getvalue())


#: --g-over-kappa / --sigma-over-kappa arguments: none, a usual one or an
#: odd one, a number or not
OVERRIDES = st.one_of(st.none(), st.sampled_from(["0.25", "0.5", "1", "2.5"]),
                      st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "abc", "",
                                       "1,5"]))


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
    # two grid points, which must not pass as an all-zero trace. trace takes
    # the scalar route: the numpy route on the same scenario succeeds with
    # values within 1e-14 of the peak, or fails with the same error class.
    # Where the routes part by more, at sigma below kappa, the numpy route is
    # off (scipy's wofz, CHANGES.md): there the scalar route holds to 1e-14 of
    # the peak of the 40-digit closed form at the 20 points where they part
    # the most, or to LONG_SERIES_BOUND where the critical-coupling series
    # can take the window, whose recurrence amplifies the last bits of J_0
    import numpy as np
    from levicav.errors import LevicavError
    from levicav.scenario import build_protocol
    from oracles import trace_shadow
    from test_pulse import LONG_SERIES_BOUND
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
    calls = []

    def spy(route):
        def call(*args):
            try:
                calls.append((args, route(*args)))
            except LevicavError as exc:
                calls.append((args, exc))
                raise
            return calls[-1][1]
        return call

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "build_protocol", spy(cli.build_protocol)), \
            mock.patch.object(cli, "phonon_trace", spy(cli.phonon_trace)):
        code = main(argv)
    if code == 0:
        rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row), (argv, doc)
        # a coupled pulse that reaches the grid after t = 0 leaves a phonon
        protocol = calls[-1][0][0]
        lo, hi = swap.pulse_window(protocol)
        if protocol.g > 0.0 and hi > 0.0 and protocol.t_grid[-1] > max(lo, 0.0):
            assert any(float(row[2]) for row in rows), (argv, doc)
    else:
        assert code in (1, 2) and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    if not calls:  # the scenario failed to load
        return
    scalar = calls[-1][1]
    try:
        protocol = build_protocol(*calls[0][0])
        library = pulse.phonon_trace(protocol)
    except LevicavError as exc:
        library = exc
    if isinstance(scalar, Exception) or isinstance(library, Exception):
        assert type(scalar) is type(library), (argv, doc, scalar, library)
        return
    assert scalar.times == tuple(library.times.tolist())
    n, peak = np.array(scalar.n_phonon), library.peak_value
    gap = np.abs(n - library.n_phonon)
    if gap.max() > 1e-14 * peak:
        mp = pytest.importorskip("mpmath")
        parted = np.argsort(-gap)[:20]
        _, vb = trace_shadow(protocol, protocol.t_grid[parted])
        bound = 1e-14 if swap.window(protocol)[4] is None else LONG_SERIES_BOUND
        with mp.workdps(40):
            for i, v in zip(parted, vb):
                assert abs(mp.mpf(n[i]) - 2 * mp.mpf(protocol.kappa) * v * v) <= bound * peak, \
                    (argv, doc, i)

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from levicav.cavity import BodyGeometry, CavityConfig, Rod, Sphere
from levicav.constants import TWO_PI, pa_to_torr
from levicav.environment import GasEnvironment, ThermalInput
from levicav.errors import LevicavError, UnknownAxisError, ValidationError
from levicav import scenario as scenario_module
from levicav.pulse import phonon_trace
from levicav.scenario import (PRESET_NAMES, SelfTrapSpec, build_protocol,
                              evaluate_scenario, preset_scenario_dict,
                              scattering_finesse_bound, scenario_from_dict,
                              scenario_to_dict, sweep)
from levicav.sphere import DielectricObject, DriveConfig, TweezerConfig


def preset(name):
    return scenario_from_dict(preset_scenario_dict(name))


class TestScatteringBound:
    def test_reference_bound(self):
        assert scattering_finesse_bound(26.0e-6, 80e-9) >= 1e5
        assert scattering_finesse_bound(26.0e-6, 80e-9) == pytest.approx(1.06e5, rel=2e-2)

    def test_radius_equal_waist(self):
        assert scattering_finesse_bound(26e-6, 26e-6) == 1.0

    def test_quadrupling_radius(self):
        base = scattering_finesse_bound(26e-6, 100e-9)
        assert scattering_finesse_bound(26e-6, 400e-9) == pytest.approx(base / 16.0, rel=1e-12)


class TestSphereScenario:
    def test_reference_report(self):
        report = evaluate_scenario(preset("sphere-appendix-h"))
        assert report.good_cavity
        assert report.kappa_over_omega_t == pytest.approx(0.53, rel=2e-2)
        assert report.g_over_kappa == pytest.approx(182.0 / 188.0, rel=2e-2)
        assert report.strong_coupling
        assert report.optomech.g == pytest.approx(TWO_PI * 182e3, rel=3e-2)
        assert report.decoherence.Q_factor == pytest.approx(1.5e9, rel=0.5)
        assert report.decoherence.rates.ratio == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert report.bulk_T > 300.0

    def test_zero_drive_power_kills_strong_coupling(self):
        reports = sweep(preset("sphere-appendix-h"), "P", [0.0])
        assert reports[0].optomech.g == 0.0
        assert not reports[0].strong_coupling

    def test_deterministic(self):
        a = evaluate_scenario(preset("sphere-appendix-h")).to_dict()
        b = evaluate_scenario(preset("sphere-appendix-h")).to_dict()
        assert a == b

    def test_flags_consistent_with_ratios(self):
        # each flag against its README inequality, on sweeps that cross
        # g = kappa/2 (drive power) and P = P_max/10 (pressure)
        scenario = preset("sphere-appendix-h")
        base = evaluate_scenario(scenario)
        factors = [0.5, 0.95, 1.05, 2.0]
        powers = [f * scenario.drive.power_P * (0.5 / base.g_over_kappa) ** 2 for f in factors]
        pressures = [f * pa_to_torr(base.decoherence.heating.P_max) / 10.0 for f in factors]
        by_power = sweep(scenario, "P", powers)
        by_pressure = sweep(scenario, "pressure", pressures)
        for report in [base, *by_power, *by_pressure]:
            assert report.good_cavity == (report.kappa_over_omega_t < 1.0)
            strong = (report.g_over_kappa >= 0.5
                      and report.g_over_gamma >= 10.0)
            assert report.strong_coupling == strong
            assert report.scattering_finesse_ok == (1e5 <= report.F_max)
        for pressure, report in zip(pressures, by_pressure):
            assert report.pressure_ok == (
                pressure <= pa_to_torr(report.decoherence.heating.P_max) / 10.0)
        assert [r.strong_coupling for r in by_power] == [False, False, True, True]
        assert [r.pressure_ok for r in by_pressure] == [True, True, False, False]

    def test_missing_drive_rejected(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        del doc["drive"]
        with pytest.raises(ValidationError):
            evaluate_scenario(scenario_from_dict(doc))


class TestRodScenarios:
    def test_translation_report(self):
        report = evaluate_scenario(preset("rod-translation"))
        st = report.selftrap
        assert st.cooled_dof == "translation"
        assert st.alpha_ratio_sq == pytest.approx(6.27, rel=1e-3)
        assert report.good_cavity
        # sphere-only sections are absent, not fabricated
        assert report.to_dict()["environment"]["gamma_per_s"] is None
        assert report.decoherence is None
        assert report.bulk_T is None
        assert report.scattering_finesse_ok is None

    def test_rotation_report(self):
        report = evaluate_scenario(preset("rod-rotation"))
        assert report.selftrap.cooled_dof == "rotation"
        assert report.optomech.zm < 1e-4  # angular zero point, radians

    def test_rod_radius_defaults_to_half_waist(self):
        scenario = preset("rod-translation")
        assert scenario.object.geometry.shape.radius == pytest.approx(
            scenario.cavity.waist_W / 2.0, rel=1e-12)


class TestSweep:
    def test_single_value_sweep_matches_evaluate(self):
        scenario = preset("sphere-appendix-h")
        direct = evaluate_scenario(scenario).to_dict()
        swept = sweep(scenario, "P", [0.5e-3])[0].to_dict()
        assert swept == direct

    def test_empty_values(self):
        assert sweep(preset("sphere-appendix-h"), "P", []) == []

    def test_g_scales_as_sqrt_power(self):
        reports = sweep(preset("sphere-appendix-h"), "P", [0.25e-3, 0.5e-3, 1.0e-3])
        gs = [r.optomech.g for r in reports]
        assert gs[1] / gs[0] == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert gs[2] / gs[1] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_pressure_axis_in_torr(self):
        reports = sweep(preset("sphere-appendix-h"), "pressure", [1e-6, 2e-6])
        assert reports[1].decoherence.gamma == pytest.approx(
            2.0 * reports[0].decoherence.gamma, rel=1e-12)

    def test_finesse_axis(self):
        reports = sweep(preset("sphere-appendix-h"), "F", [1e5, 2e5])
        assert reports[1].cavity.kappa == pytest.approx(
            reports[0].cavity.kappa / 2.0, rel=1e-12)

    def test_mode1_power_axis(self):
        reports = sweep(preset("rod-translation"), "mode1_power", [1e-3, 4e-3])
        assert reports[1].selftrap.omega_t_z == pytest.approx(
            2.0 * reports[0].selftrap.omega_t_z, rel=1e-6)

    def test_unknown_axis(self):
        with pytest.raises(UnknownAxisError):
            sweep(preset("sphere-appendix-h"), "flux-capacitance", [1.0])

    @pytest.mark.parametrize("name, axis", [
        ("rod-translation", "P"), ("rod-translation", "R"), ("rod-translation", "pressure"),
        ("rod-translation", "I0"), ("sphere-appendix-h", "mode1_power")])
    def test_axis_needs_its_record(self, name, axis):
        with pytest.raises(ValidationError, match=f"sweep axis '{axis}' needs"):
            sweep(preset(name), axis, [1e-3])

    def test_order_preserved(self):
        values = [1.0e-3, 0.25e-3, 0.5e-3]
        reports = sweep(preset("sphere-appendix-h"), "P", values)
        gs = [r.optomech.g for r in reports]
        assert gs[0] > gs[2] > gs[1]


class TestProtocolBuild:
    def test_sphere_protocol_uses_derived_g(self):
        scenario = preset("sphere-appendix-h")
        report = evaluate_scenario(scenario)
        protocol = build_protocol(scenario, report)
        assert protocol.g == pytest.approx(abs(report.optomech.g), rel=1e-12)
        assert protocol.kappa == pytest.approx(report.cavity.kappa, rel=1e-12)
        assert protocol.sigma == pytest.approx(5.6 * protocol.kappa, rel=1e-12)
        assert protocol.gamma == pytest.approx(report.decoherence.gamma, rel=1e-12)

    def test_override_g_over_kappa(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["protocol"]["g_over_kappa"] = 1.0
        scenario = scenario_from_dict(doc)
        protocol = build_protocol(scenario)
        assert protocol.g == pytest.approx(protocol.kappa, rel=1e-12)

    def test_grid_shared_and_read_only(self):
        from levicav.pulse import PulseProtocol
        scenario = preset("sphere-appendix-h")
        protocol = build_protocol(scenario)
        settings = scenario.protocol
        standard = PulseProtocol.standard(g=1.0, kappa=protocol.kappa,
                                          t_max_kappa=settings.t_max_kappa,
                                          n_points=settings.n_points)
        assert standard.t_grid is protocol.t_grid
        grid = np.linspace(0.0, settings.t_max_kappa / protocol.kappa, settings.n_points)
        assert protocol.t_grid.tobytes() == grid.tobytes()
        with pytest.raises(ValueError):
            protocol.t_grid[1] = 0.0

    def test_rod_protocol_traceable(self):
        protocol = build_protocol(preset("rod-translation"))
        trace = phonon_trace(protocol)
        assert 0.0 < trace.peak_value <= 1.0


class TestSerialization:
    def test_roundtrip_all_presets(self):
        for name in PRESET_NAMES:
            scenario = preset(name)
            doc = scenario_to_dict(scenario)
            again = scenario_from_dict(doc)
            assert evaluate_scenario(again).to_dict() == evaluate_scenario(scenario).to_dict()

    def test_missing_key_reported(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        del doc["cavity"]["finesse"]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_null_takes_the_default(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["gas"]["temperature_K"] = None
        del doc["object"]["eps2"]
        scenario = scenario_from_dict(doc)
        assert scenario.gas.temperature_T == 300.0 and scenario.object.eps2 == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_scenario_dict("sphere-h")


class TestRwaFlag:
    def test_scenario_protocol_records_trap_frequency(self):
        scenario = preset("sphere-appendix-h")
        report = evaluate_scenario(scenario)
        protocol = build_protocol(scenario, report)
        assert protocol.omega_t == pytest.approx(report.optomech.omega_t)
        # omega_t/g ~ 1.9 here: not deep in the rotating-wave regime
        assert protocol.rwa_valid is False

    def test_flag_unknown_without_scenario(self):
        from levicav.pulse import PulseProtocol
        protocol = PulseProtocol.standard(g=1.0, kappa=1.0)
        assert protocol.rwa_valid is None

    def test_flag_true_for_weak_coupling(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["protocol"]["g_over_kappa"] = 0.01
        protocol = build_protocol(scenario_from_dict(doc))
        assert protocol.rwa_valid is True


class TestStageNamedErrors:
    def test_decoherence_stage_named(self):
        # a chamber so cold the heating-time regime breaks: the error says
        # which pipeline stage failed
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["gas"]["temperature_K"] = 1e-9
        with pytest.raises(Exception, match="decoherence stage"):
            evaluate_scenario(scenario_from_dict(doc))

    def test_coupling_stage_named(self):
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["object"]["radius_m"] = 30e-6  # radius above the waist
        with pytest.raises(Exception, match="coupling stage"):
            evaluate_scenario(scenario_from_dict(doc))

    @pytest.mark.parametrize("section, key, value, stage", [
        ("object", "radius_m", 30e-6, "coupling"),
        ("gas", "temperature_K", 1e-9, "decoherence"),
        ("thermal", "T_env_K", 1e300, "thermal"),  # T_env**4 overflows
    ])
    def test_stage_attribute(self, section, key, value, stage):
        doc = preset_scenario_dict("sphere-appendix-h")
        doc[section][key] = value
        with pytest.raises(LevicavError) as info:
            evaluate_scenario(scenario_from_dict(doc))
        assert info.value.stage == stage
        assert str(info.value).startswith(f"{stage} stage: ")
        # chained to the original, unstaged error
        cause = info.value.__cause__
        assert isinstance(cause, Exception) and getattr(cause, "stage", None) is None
        assert str(info.value) == f"{stage} stage: {cause}"


#: one valid instance of each input record
VALID_RECORDS = [
    CavityConfig(length_d=4e-3, finesse_F=1e5, wavelength_lambda=1.064e-6),
    Sphere(radius=250e-9),
    Rod(radius=13e-6, width_a=50e-9, arc_L=1e-6),
    GasEnvironment(pressure_P=1e-6, temperature_T=300.0, molecule_mass=4.7e-26),
    ThermalInput(intensity_I0=1e10, emissivity_e=0.5, T_env=300.0),
    DielectricObject(geometry=BodyGeometry(Sphere(250e-9)), density_rho=2201.0,
                     eps1=2.1, eps2=2.5e-10),
    TweezerConfig(intensity_I0=2e12, waist_W0=1e-6),
    DriveConfig(power_P=0.5e-3, laser_omega_L=1.77e15, detuning_Delta=1e6),
    SelfTrapSpec(cooled_dof="translation", mode1_power=1e-3),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record, name", [
    (record, f.name) for record in VALID_RECORDS for f in dataclasses.fields(record)
    if isinstance(getattr(record, f.name), float)],
    ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v)
def test_record_rejects_non_finite_field(record, name, bad):
    with pytest.raises(ValidationError):
        dataclasses.replace(record, **{name: bad})


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_schema():
    """(keys, sweep axes) that README's "Scenario files" section documents;
    keys as ``section.key``, commented keys included."""
    section = README.read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    keys, current = set(), None
    for line in block.splitlines():
        match = re.match(r"( *)(?:# )?(\w+):", line)
        if match and match.group(1):
            keys.add(f"{current}.{match.group(2)}")
        elif match:
            current = match.group(2)
            keys.add(current)
    axes = section.split("Sweepable axes:", 1)[1].split("\n\n", 1)[0]
    return keys, set(re.findall(r"`(\w+)`", axes))


def table_schema():
    """(keys, sweep aliases) declared in the scenario table."""
    keys = {f"{section}.{selector}" for section, (selector, _) in
            scenario_module._SELECTORS.items()}
    aliases = []
    for section, _, _, _, rows in scenario_module._GROUPS:
        keys.update(f"{section}.{row[0]}" if section else row[0] for row in rows)
        keys.update([section] if section else [])
        aliases += [alias for row in rows for alias in row[5]]
    assert len(aliases) == len(set(aliases)), "a sweep alias is declared twice"
    return keys, set(aliases)


def test_readme_documents_the_table():
    assert readme_schema() == table_schema()


def readme_report():
    """(key, unit) rows of README's report table, in order."""
    table = README.read_text().split("| key | unit | quantity |\n", 1)[1].split("\n\n", 1)[0]
    return [tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
            for line in table.splitlines()[1:]]


def test_readme_documents_the_report():
    # every printed key in printed order; exactly the converted rows print
    # in Hz or Torr
    units = {scenario_module.angular_to_hz: "Hz", scenario_module.pa_to_torr: "Torr"}
    table = [(f"{section}.{key}" if section else key, units.get(convert))
             for section, _, rows in scenario_module._REPORT for key, _, convert in rows]
    readme = readme_report()
    assert [key for key, _ in readme] == [key for key, _ in table]
    for (key, unit), (_, converted_unit) in zip(readme, table):
        assert (unit if unit in ("Hz", "Torr") else None) == converted_unit, key


#: the sphere preset's report with one optional section left out, as
#: printed at the commit before the report table (the golden reports all
#: have both sections)
SPHERE_WITHOUT = {
    "gas": """\
scenario: sphere-appendix-h
cavity:
  omega_c0_rad_s: 1.77035e+15
  kappa_rad_s: 1.17728e+06
  kappa_hz: 187370
  waist_m: 2.60262e-05
optomech:
  omega_t_hz: 351556
  xi0: 8.84233e+13
  zero_point: 4.07072e-13
  g0_rad_s: 35.9947
  alpha_abs: 31725.3
  g_hz: 181745
  delta_shift_hz: -1.19157e+06
  beta: -16401.1
  detuning_hz: 351556
regimes:
  good_cavity: true
  kappa_over_omega_t: 0.532974
  strong_coupling: true
  g_over_kappa: 0.96998
  g_over_gamma: n/a
  scattering_finesse_ok: false
  finesse_max: 10837.8
  pressure_ok: n/a
  P_max_torr: n/a
environment:
  gamma_per_s: n/a
  Q_factor: n/a
  bulk_T_K: 481.964""",
    "thermal": """\
scenario: sphere-appendix-h
cavity:
  omega_c0_rad_s: 1.77035e+15
  kappa_rad_s: 1.17728e+06
  kappa_hz: 187370
  waist_m: 2.60262e-05
optomech:
  omega_t_hz: 351556
  xi0: 8.84233e+13
  zero_point: 4.07072e-13
  g0_rad_s: 35.9947
  alpha_abs: 31725.3
  g_hz: 181745
  delta_shift_hz: -1.19157e+06
  beta: -16401.1
  detuning_hz: 351556
regimes:
  good_cavity: true
  kappa_over_omega_t: 0.532974
  strong_coupling: true
  g_over_kappa: 0.96998
  g_over_gamma: 8.03592e+08
  scattering_finesse_ok: false
  finesse_max: 10837.8
  pressure_ok: false
  P_max_torr: 1.97883e-06
environment:
  gamma_per_s: 0.00142104
  Q_factor: 1.55441e+09
  bulk_T_K: n/a
decoherence:
  t_star_s: 1.97883e-05
  Lambda_m2_s: 1.71542e+29
  Gamma_dec_per_s: 28425.9
  Gamma_plus_per_s: 50534.9
  dec_over_heating: 0.5625
  pressure_margin: 1.97883""",
}


@pytest.mark.parametrize("dropped", SPHERE_WITHOUT)
def test_sphere_report_without_optional_section(dropped):
    from levicav.cli import render_kv
    doc = preset_scenario_dict("sphere-appendix-h")
    del doc[dropped]
    report = evaluate_scenario(scenario_from_dict(doc))
    assert render_kv(report.to_dict()) == SPHERE_WITHOUT[dropped]

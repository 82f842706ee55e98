"""Scenario assembly, regime checks, and parameter sweeps.

A Scenario bundles one cavity, one dielectric body, a trap source (tweezer
or two-mode self-trap), and the optional drive/gas/thermal context. The
evaluation pipeline runs cavity -> coupling -> decoherence -> thermal and
fills a FeasibilityReport with raw ratios plus the derived regime flags:

    good cavity      omega_t > kappa
    strong coupling  |g| >= kappa/2  and  |g| >= 10 gamma
    scattering       finesse <= W^2/R^2          (spheres)
    pressure         P <= P_max/10               (spheres with gas section)

The factors 2 and 10 are the module constants STRONG_KAPPA_FACTOR,
STRONG_GAMMA_FACTOR and PRESSURE_MARGIN_MIN. Decoherence, scattering, and
bulk-temperature entries are sphere-only and report as absent for rods,
whose gas-collision formulas are not available.

Scenario files are YAML with one section per sub-record; boundary units
are meters, watts, Torr, Hz, and kelvin (keys carry their unit suffix).
Internally everything is SI with angular frequencies.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Union

from . import kvdoc as yaml
from .cavity import CavityConfig, CavityDerived, Rod, Sphere, derived_cavity_quantities
from .constants import (CODATA, angular_to_hz, hz_to_angular, pa_to_torr, torr_to_pa,
                        wavelength_omega)
from .environment import (DecoherenceBudget, GasEnvironment, ThermalInput,
                          bulk_temperature, decoherence_budget, gas_damping)
from .errors import LevicavError, NumericalError, UnknownAxisError, ValidationError
from .presets import PRESET_NAMES, preset_scenario_dict
from .records import record, replace
from .rod import (SelfTrapSolution, rod_optomech_params, rotation_configuration,
                  solve_self_trap, translation_configuration)
from .sphere import (DielectricObject, DriveConfig, OptomechParams, TweezerConfig,
                     assemble_optomech_params, intracavity_amplitude,
                     sphere_linear_coupling, tweezer_trap_frequency)

if TYPE_CHECKING:
    from .pulse import PulseProtocol
    from .swap import SwapProtocol

__all__ = [
    "SelfTrapSpec",
    "ProtocolSettings",
    "Scenario",
    "FeasibilityReport",
    "scattering_finesse_bound",
    "evaluate_scenario",
    "sweep",
    "build_protocol",
    "build_swap_protocol",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "preset_scenario_dict",
    "PRESET_NAMES",
]


@record
class SelfTrapSpec:
    """Two-mode self-trap request: which coordinate to cool, mode-1 power."""

    cooled_dof: str       # "translation" | "rotation"
    mode1_power: float    # W

    def __post_init__(self) -> None:
        if self.cooled_dof not in ("translation", "rotation"):
            raise ValidationError("cooled_dof must be 'translation' or 'rotation'")
        if not 0.0 < self.mode1_power < math.inf:
            raise ValidationError("mode-1 power must be positive")


@record
class ProtocolSettings:
    """Swap-protocol pulse and grid, in units of kappa, and the g and gamma
    overrides."""

    sigma_over_kappa: float = 5.6
    delay_kappa: float = 5.0
    t_max_kappa: float = 20.0
    n_points: int = 2000
    g_over_kappa: Optional[float] = None  # None -> use the scenario's derived g
    gamma_per_s: Optional[float] = None   # None -> gas damping (or 0)


@record
class Scenario:
    """One cavity, one body, its trap, and the optional drive, gas, thermal
    and protocol sections."""

    cavity: CavityConfig
    object: DielectricObject
    trap: Union[TweezerConfig, SelfTrapSpec]
    drive: Optional[DriveConfig] = None
    gas: Optional[GasEnvironment] = None
    thermal: Optional[ThermalInput] = None
    protocol: ProtocolSettings = ProtocolSettings()  # frozen: one shared default
    cooling_rate: float = 1e5  # 1/s, assumed laser cooling rate for bounds
    name: str = "scenario"


@record
class FeasibilityReport:
    """Every quantity and regime flag that ``evaluate_scenario`` derives,
    each held once; ``_REPORT`` maps them to the printed keys."""

    name: str
    cavity: CavityDerived
    optomech: OptomechParams
    good_cavity: bool
    kappa_over_omega_t: float
    strong_coupling: bool
    g_over_kappa: float
    g_over_gamma: Optional[float]
    scattering_finesse_ok: Optional[bool]
    F_max: Optional[float]
    pressure_ok: Optional[bool]
    bulk_T: Optional[float]                # K
    decoherence: Optional[DecoherenceBudget]
    selftrap: Optional[SelfTrapSolution]

    def to_dict(self) -> dict:
        """Nested plain-value dict in the printed units, one entry per
        ``_REPORT`` row, ready for key-value rendering.

        Every float it holds is finite; an overflow that reached a field
        raises NumericalError naming ``section.key``.
        """
        out: dict = {}
        for section, record, rows in _REPORT:
            if record and getattr(self, record) is None:
                continue
            body = out.setdefault(section, {}) if section else out
            for key, path, convert in rows:
                value = self
                for attr in path.split("."):  # through an absent record: None
                    value = None if value is None else getattr(value, attr)
                if convert and value is not None:
                    value = convert(value)
                if isinstance(value, float) and not math.isfinite(value):
                    raise NumericalError(f"report field {section}.{key} is {value}")
                body[key] = value
        return out


def scattering_finesse_bound(waist_W: float, radius_R: float) -> float:
    """Finesse ceiling W^2/R^2 from the geometric scattering cross-section."""
    if radius_R <= 0.0 or waist_W <= 0.0:
        raise ValidationError("waist and radius must be positive")
    return waist_W**2 / radius_R**2


@contextmanager
def _stage(name: str):
    """Re-raise an error from inside the block with the stage named, chained
    to the original; float overflow and division by zero are numerical."""
    try:
        yield
    except Exception as exc:
        kind = NumericalError if isinstance(exc, ArithmeticError) else type(exc)
        if issubclass(kind, LevicavError):
            raise kind(str(exc), stage=name) from exc
        raise kind(f"{name} stage: {exc}") from exc  # a defect keeps its class


# Regime thresholds: strong coupling needs |g| >= kappa/STRONG_KAPPA_FACTOR
# and |g| >= STRONG_GAMMA_FACTOR*gamma; the pressure flag needs
# P <= P_max/PRESSURE_MARGIN_MIN.
STRONG_KAPPA_FACTOR = 2.0
STRONG_GAMMA_FACTOR = 10.0
PRESSURE_MARGIN_MIN = 10.0


def evaluate_scenario(s: Scenario) -> FeasibilityReport:
    """Run the full pipeline and populate every report field.

    Deterministic: identical scenarios produce bit-identical reports.
    Sub-module failures propagate with the failing stage named.
    """
    derived = derived_cavity_quantities(s.cavity)
    is_sphere = isinstance(s.object.shape, Sphere)
    selftrap = None

    with _stage("coupling"):
        if isinstance(s.trap, TweezerConfig):
            if s.drive is None:
                raise ValidationError("tweezer scenarios need a drive section")
            omega_t = tweezer_trap_frequency(s.object, s.trap)
            detuning = omega_t if s.drive.detuning_Delta is None else s.drive.detuning_Delta
            _, alpha_abs = intracavity_amplitude(s.drive, s.cavity.kappa, detuning)
            optomech = assemble_optomech_params(
                omega_t, *sphere_linear_coupling(s.object, s.cavity), alpha_abs, detuning,
                s.object.mass)
        else:
            build = (translation_configuration if s.trap.cooled_dof == "translation"
                     else rotation_configuration)
            pair1, pair2, equilibrium, dof = build(s.cavity, s.trap.mode1_power)
            selftrap = solve_self_trap(s.object, s.cavity, pair1, pair2, equilibrium, dof)
            optomech = rod_optomech_params(s.object, selftrap)

    g_mag = abs(optomech.g)
    kappa = derived.kappa
    kappa_over_omega_t = kappa / optomech.omega_t
    good_cavity = optomech.omega_t > kappa

    strong = g_mag >= kappa / STRONG_KAPPA_FACTOR
    budget = pressure_ok = g_over_gamma = None
    if is_sphere and s.gas is not None:
        with _stage("decoherence"):
            gamma = gas_damping(s.object, s.gas)
            if gamma == 0.0:
                raise NumericalError("gas damping underflows to 0 at this gas.pressure_torr")
            budget = decoherence_budget(s.object, s.gas, gamma, optomech.omega_t,
                                        optomech.zm, s.cooling_rate)
        pressure_ok = s.gas.pressure_P <= budget.heating.P_max / PRESSURE_MARGIN_MIN
        g_over_gamma = g_mag / gamma
        strong = strong and g_mag >= STRONG_GAMMA_FACTOR * gamma

    f_max = None
    scattering_ok = None
    if is_sphere:
        f_max = scattering_finesse_bound(derived.waist_W, s.object.shape.radius)
        scattering_ok = s.cavity.finesse_F <= f_max

    bulk = None
    if is_sphere and s.thermal is not None:
        with _stage("thermal"):
            lam = (wavelength_omega(s.drive.laser_omega_L) if s.drive is not None
                   else s.cavity.wavelength_lambda)
            bulk = bulk_temperature(s.object, s.thermal, lam)

    return FeasibilityReport(
        name=s.name, cavity=derived, optomech=optomech,
        good_cavity=good_cavity, kappa_over_omega_t=kappa_over_omega_t,
        strong_coupling=strong, g_over_kappa=g_mag / kappa,
        g_over_gamma=g_over_gamma, scattering_finesse_ok=scattering_ok, F_max=f_max,
        pressure_ok=pressure_ok, bulk_T=bulk, decoherence=budget, selftrap=selftrap,
    )


# ---------------------------------------------------------------------------
# the scenario schema: one row per YAML key
# ---------------------------------------------------------------------------

def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _positive(value) -> float:
    number = _finite(value)
    if number <= 0.0:
        raise ValueError(f"must be positive, got {value!r}")
    return number


def _non_negative(value) -> float:
    number = _finite(value)
    if number < 0.0:
        raise ValueError(f"must be non-negative, got {value!r}")
    return number


#: Largest trace grid a scenario may ask for; the grid is allocated whole.
_MAX_POINTS = 1_000_000


def _count(value) -> int:
    number = _finite(value)
    if number != int(number) or not 3 <= number <= _MAX_POINTS:
        raise ValueError(f"must be an integer in [3, {_MAX_POINTS}], got {value!r}")
    return int(number)


# (to SI, to boundary) unit converters
_WAVELENGTH = (wavelength_omega, wavelength_omega)
_TORR = (torr_to_pa, pa_to_torr)
_HZ = (hz_to_angular, angular_to_hz)
_AMU = (lambda amu: amu * CODATA.amu, lambda kg: kg / CODATA.amu)

# Record groups: (section, variant, record path in the Scenario, record class,
# rows); a variant group applies when the section's selector key names it, and
# each group hands its record to the record above it ("" is the Scenario). A
# row is (key, record attribute, converter, default, validator, sweep aliases);
# the default is "required", "optional" (absent or null keeps the record's
# default; None dumps as null), "override" (the same, but None is not dumped)
# or a function of the records parsed so far.
_GROUPS = (
    (None, None, "", None, (
        ("name", "name", None, "optional", str, ()),)),
    ("cavity", None, "cavity", CavityConfig, (
        ("length_m", "length_d", None, "required", _finite, ("d", "length")),
        ("finesse", "finesse_F", None, "required", _finite, ("F", "finesse")),
        ("wavelength_m", "wavelength_lambda", None, "required", _finite, ()))),
    ("object", "sphere", "object.shape", Sphere, (
        ("radius_m", "radius", None, "required", _finite, ("R", "radius")),)),
    ("object", "rod", "object.shape", Rod, (
        ("radius_m", "radius", None, lambda kw: kw[""]["cavity"].waist_W / 2.0, _finite, ()),
        ("width_m", "width_a", None, "required", _finite, ()),
        ("arc_m", "arc_L", None, "required", _finite, ()))),
    ("object", None, "object", DielectricObject, (
        ("density_kg_m3", "density_rho", None, "required", _finite, ()),
        ("eps1", "eps1", None, "required", _finite, ()),
        ("eps2", "eps2", None, "optional", _finite, ()))),
    ("trap", "tweezer", "trap", TweezerConfig, (
        ("intensity_W_m2", "intensity_I0", None, "required", _finite, ("I0", "intensity")),
        ("waist_m", "waist_W0", None, "required", _finite, ()))),
    ("trap", "self-trap", "trap", SelfTrapSpec, (
        ("cooled_dof", "cooled_dof", None, "required", str, ()),
        ("mode1_power_W", "mode1_power", None, "required", _finite, ("mode1_power",)))),
    ("drive", None, "drive", DriveConfig, (
        ("power_W", "power_P", None, "required", _finite, ("P", "power")),
        ("wavelength_m", "laser_omega_L", _WAVELENGTH, "required", _positive, ()),
        ("detuning_hz", "detuning_Delta", _HZ, "optional", _finite, ()))),
    ("gas", None, "gas", GasEnvironment, (
        ("pressure_torr", "pressure_P", _TORR, "required", _positive, ("pressure",)),
        ("temperature_K", "temperature_T", None, "optional", _finite, ("T", "gas_temperature")),
        ("molecule_mass_amu", "molecule_mass", _AMU, "optional", _finite, ()))),
    ("gas", None, "", None, (
        ("cooling_rate_per_s", "cooling_rate", None, "optional", _positive, ()),)),
    ("thermal", None, "thermal", ThermalInput, (
        ("intensity_W_m2", "intensity_I0", None, "required", _finite, ()),
        ("emissivity", "emissivity_e", None, "optional", _finite, ()),
        ("T_env_K", "T_env", None, "optional", _finite, ()))),
    ("protocol", None, "protocol", ProtocolSettings, (
        ("sigma_over_kappa", "sigma_over_kappa", None, "optional", _positive,
         ("sigma", "sigma_over_kappa")),
        ("delay_kappa", "delay_kappa", None, "optional", _finite, ()),
        ("t_max_kappa", "t_max_kappa", None, "optional", _positive, ()),
        ("n_points", "n_points", None, "optional", _count, ()),
        ("g_over_kappa", "g_over_kappa", None, "override", _non_negative, ("g_over_kappa",)),
        ("gamma_per_s", "gamma_per_s", None, "override", _non_negative, ()))),
)

# The report: (section, record whose absence drops the section, rows); the
# None section is the top level. A row is (printed key, attribute path in the
# FeasibilityReport, converter to the printed unit); a path through an absent
# record reads None, printed n/a.
_REPORT = (
    (None, None, (
        ("scenario", "name", None),)),
    ("cavity", None, (
        ("omega_c0_rad_s", "cavity.omega_c0", None),
        ("kappa_rad_s", "cavity.kappa", None),
        ("kappa_hz", "cavity.kappa", angular_to_hz),
        ("waist_m", "cavity.waist_W", None))),
    ("optomech", None, (
        ("omega_t_hz", "optomech.omega_t", angular_to_hz),
        ("xi0", "optomech.xi0", None),
        ("zero_point", "optomech.zm", None),
        ("g0_rad_s", "optomech.g0", None),
        ("alpha_abs", "optomech.alpha_abs", None),
        ("g_hz", "optomech.g", angular_to_hz),
        ("delta_shift_hz", "optomech.delta_shift", angular_to_hz),
        ("beta", "optomech.beta", None),
        ("detuning_hz", "optomech.detuning", angular_to_hz))),
    ("regimes", None, (
        ("good_cavity", "good_cavity", None),
        ("kappa_over_omega_t", "kappa_over_omega_t", None),
        ("strong_coupling", "strong_coupling", None),
        ("g_over_kappa", "g_over_kappa", None),
        ("g_over_gamma", "g_over_gamma", None),
        ("scattering_finesse_ok", "scattering_finesse_ok", None),
        ("finesse_max", "F_max", None),
        ("pressure_ok", "pressure_ok", None),
        ("P_max_torr", "decoherence.heating.P_max", pa_to_torr))),
    ("environment", None, (
        ("gamma_per_s", "decoherence.gamma", None),
        ("Q_factor", "decoherence.Q_factor", None),
        ("bulk_T_K", "bulk_T", None))),
    ("decoherence", "decoherence", (
        ("t_star_s", "decoherence.heating.t_star", None),
        ("Lambda_m2_s", "decoherence.rates.Lambda", None),
        ("Gamma_dec_per_s", "decoherence.rates.Gamma_dec", None),
        ("Gamma_plus_per_s", "decoherence.rates.Gamma_plus", None),
        ("dec_over_heating", "decoherence.rates.ratio", None),
        ("pressure_margin", "decoherence.pressure_margin", None))),
    ("selftrap", "selftrap", (
        ("cooled_dof", "selftrap.cooled_dof", None),
        ("alpha_ratio_sq", "selftrap.alpha_ratio_sq", None),
        ("omega_t_z_hz", "selftrap.omega_t_z", angular_to_hz),
        ("omega_t_phi_hz", "selftrap.omega_t_phi", angular_to_hz),
        ("xi_z", "selftrap.xi_z", None),
        ("xi_phi", "selftrap.xi_phi", None),
        ("delta_1_hz", "selftrap.delta_1", angular_to_hz),
        ("delta_2_hz", "selftrap.delta_2", angular_to_hz),
        ("n_photons_1", "selftrap.n_photons_1", None),
        ("n_photons_2", "selftrap.n_photons_2", None))),
)

_SECTIONS = tuple(dict.fromkeys(group[0] for group in _GROUPS if group[0]))
_REQUIRED_SECTIONS = ("cavity", "object", "trap")
#: section -> (selector key, default variant)
_SELECTORS = {"object": ("shape", "sphere"), "trap": ("kind", "tweezer")}


def _load(row: tuple, value, name: str):
    """A boundary value validated and converted to the record's SI unit,
    which must be finite too."""
    try:
        number = row[4](value)
        if row[2]:
            number = row[2][0](number)
            if not math.isfinite(number):
                raise ValueError(f"out of range: {value!r} converts to {number}")
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _replace_at(record, path: str, value):
    head, _, rest = path.partition(".")
    return replace(record, **{head: _replace_at(getattr(record, head), rest, value)
                              if rest else value})


def axis_setter(s: Scenario, axis: str, name: Optional[str] = None):
    """A function of one boundary value: ``s`` with the named sweep axis set
    to it through the axis's schema row. An invalid value raises
    ValidationError naming ``name`` (by default ``section.key``), and one
    that its record rejects names the section, as in a scenario file."""
    axis = axis.strip()
    for section, variant, path, record, rows in _GROUPS:
        for row in (row for row in rows if axis in row[5]):
            if not isinstance(attrgetter(path)(s), record):
                need = f"a {variant} {section}" if variant else f"a {section} section"
                raise ValidationError(f"sweep axis {axis!r} needs {need}")
            target, key = f"{path}.{row[1]}", name or f"{section}.{row[0]}"
            def set_value(value):
                number = _load(row, value, key)
                try:
                    return _replace_at(s, target, number)
                except ValidationError as exc:  # a record's own check, as in the file
                    raise type(exc)(f"{section}: {exc}") from None
            return set_value
    raise UnknownAxisError(f"unknown sweep axis {axis!r}")


def sweep(s: Scenario, axis: str, values: list) -> list[FeasibilityReport]:
    """Independent scenario evaluations along one named axis, order-preserving."""
    at = axis_setter(s, axis)
    return [evaluate_scenario(at(value)) for value in values]


def build_protocol(s: Scenario, report: Optional[FeasibilityReport] = None) -> PulseProtocol:
    """PulseProtocol for a scenario: g from the pipeline unless overridden."""
    from .pulse import PulseProtocol, _uniform_grid  # numpy loads with the first protocol
    return _protocol(PulseProtocol, _uniform_grid, s, report)


def build_swap_protocol(s: Scenario, report: Optional[FeasibilityReport] = None) -> SwapProtocol:
    """``build_protocol``'s protocol as a numpy-free ``SwapProtocol``, for the
    scalar trace route of ``levicav trace``."""
    from .swap import SwapProtocol, uniform_grid
    return _protocol(SwapProtocol, uniform_grid, s, report)


def _protocol(cls, grid, s: Scenario, report: Optional[FeasibilityReport]):
    """A ``cls`` protocol on ``grid(t_max, n_points)`` for a scenario."""
    if report is None:
        report = evaluate_scenario(s)
    kappa = report.cavity.kappa
    p = s.protocol
    g = (_rate(p, "g_over_kappa", kappa) if p.g_over_kappa is not None
         else abs(report.optomech.g))
    if p.gamma_per_s is not None:
        gamma = p.gamma_per_s
    else:
        gamma = report.decoherence.gamma if report.decoherence is not None else 0.0
    return cls(g=g, kappa=kappa, gamma=gamma, sigma=_rate(p, "sigma_over_kappa", kappa),
               delay_L=p.delay_kappa / kappa, t_grid=grid(p.t_max_kappa / kappa, p.n_points),
               omega_t=report.optomech.omega_t)


def _rate(p: ProtocolSettings, key: str, kappa: float) -> float:
    """The rate ``p.<key> * kappa`` in rad/s. A finite ratio whose product
    overflows is a numerical failure naming the key and the product."""
    ratio = getattr(p, key)
    rate = ratio * kappa
    if not math.isfinite(rate):
        raise NumericalError(f"protocol.{key} * kappa = {ratio:g} * {kappa:g} is {rate}")
    return rate


def _section(doc: dict, section: Optional[str]) -> tuple:
    """(mapping, variant) of a section (None: the top level), (None, None)
    for an absent optional one, after its type, selector and keys are checked."""
    body = doc if section is None else doc.get(section)
    if body is None and section not in _REQUIRED_SECTIONS:
        return None, None
    if not isinstance(body, dict):
        raise ValidationError(f"section {section!r} must be a mapping, got {type(body).__name__}")
    selector, variant = _SELECTORS.get(section, (None, None))
    if body.get(selector) is not None:
        variant = body[selector]
    groups = [group for group in _GROUPS if group[0] == section and group[1] in (None, variant)]
    if selector and not any(group[1] for group in groups):
        raise ValidationError(f"unknown {section} {selector} {variant!r}")
    keys = ([selector] if selector else []) + [row[0] for group in groups for row in group[4]]
    keys += list(_SECTIONS) if section is None else []
    prefix = f"{section}." if section else ""
    for key in body:
        if key not in keys:
            import difflib
            close = difflib.get_close_matches(str(key), keys, n=1)
            hint = f"; did you mean {prefix}{close[0]}?" if close else ""
            raise ValidationError(f"unknown key {prefix}{key}{hint}")
    return body, variant


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from the documented YAML schema (boundary units)."""
    sections = {section: _section(doc, section) for section in (None, *_SECTIONS)}
    kwargs: dict = {"": {}}  # record path -> constructor arguments
    for section, variant, path, record, rows in _GROUPS:
        body, chosen = sections[section]
        if body is None or variant not in (None, chosen):
            continue
        args = kwargs.setdefault(path, {})
        for row in rows:
            key, attr, _, default, _, _ = row
            name = f"{section}.{key}" if section else key
            if body.get(key) is not None:
                args[attr] = _load(row, body[key], name)
            elif default == "required":
                raise ValidationError(f"scenario file missing required key {name}")
            elif callable(default):  # absent or null: the default
                args[attr] = default(kwargs)
        if record is not None:
            parent, _, leaf = path.rpartition(".")
            try:
                kwargs.setdefault(parent, {})[leaf] = record(**kwargs.pop(path))
            except ValidationError as exc:
                raise type(exc)(f"{section}: {exc}") from None
    return Scenario(**kwargs[""])


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict (boundary units, YAML-ready)."""
    doc: dict = {}
    for section, variant, path, record, rows in _GROUPS:
        owner = attrgetter(path)(s) if path else s
        if (section and getattr(s, section) is None) or (record and not isinstance(owner, record)):
            continue
        out = doc.setdefault(section, {}) if section else doc
        if variant:
            out[_SELECTORS[section][0]] = variant
        for key, attr, convert, default, _, _ in rows:
            value = getattr(owner, attr)
            if value is None and default == "override":
                continue
            out[key] = convert[1](value) if convert and value is not None else value
    return doc


def load_scenario(path: str) -> Scenario:
    """Read a scenario YAML file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        stream = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    stream.name = path  # PyYAML's error marks name the file
    try:
        doc = yaml.safe_load(stream)
    except yaml.YAMLError as exc:  # its message spans lines: keep one
        raise ValidationError(f"scenario file {path} is not valid YAML: "
                              + " ".join(str(exc).split())) from None
    if not isinstance(doc, dict):
        raise ValidationError(f"scenario file {path} is not a mapping document")
    return scenario_from_dict(doc)

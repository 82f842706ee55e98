"""Scenario assembly, regime checks, presets, and parameter sweeps.

A Scenario bundles one cavity, one dielectric body, a trap source (tweezer
or two-mode self-trap), and the optional drive/gas/thermal context. The
evaluation pipeline runs cavity -> coupling -> decoherence -> thermal and
fills a FeasibilityReport with raw ratios plus the derived regime flags:

    good cavity      omega_t > kappa
    strong coupling  |g| >= kappa/2  and  |g| >= 10 gamma
    scattering       finesse <= W^2/R^2          (spheres)
    pressure         P <= P_max/10               (spheres with gas section)

The qualitative thresholds (2 and 10) are explicit, documented defaults
and can be overridden through RegimeThresholds. Decoherence, scattering,
and bulk-temperature entries are sphere-only and report as absent for
rods, whose gas-collision formulas are not available.

Scenario files are YAML with one section per sub-record; boundary units
are meters, watts, Torr, Hz, and kelvin (keys carry their unit suffix).
Internally everything is SI with angular frequencies.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

import yaml

from .cavity import (BodyGeometry, CavityConfig, CavityDerived, Rod, Sphere,
                     derived_cavity_quantities)
from .constants import CODATA, TWO_PI, hz_to_angular, torr_to_pa, pa_to_torr
from .environment import (DecoherenceBudget, GasEnvironment, ThermalInput,
                          bulk_temperature, decoherence_budget, gas_damping)
from .errors import UnknownAxisError, ValidationError
from .rod import (SelfTrapSolution, rod_optomech_params, rotation_configuration,
                  solve_self_trap, translation_configuration)
from .sphere import (DielectricObject, DriveConfig, OptomechParams, TweezerConfig,
                     assemble_optomech_params, tweezer_trap_frequency)

if TYPE_CHECKING:
    from .pulse import PulseProtocol

__all__ = [
    "SelfTrapSpec",
    "ProtocolSettings",
    "RegimeThresholds",
    "Scenario",
    "FeasibilityReport",
    "scattering_finesse_bound",
    "evaluate_scenario",
    "sweep",
    "build_protocol",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "preset_scenario_dict",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class SelfTrapSpec:
    """Two-mode self-trap request: which coordinate to cool, mode-1 power."""

    cooled_dof: str       # "translation" | "rotation"
    mode1_power: float    # W

    def __post_init__(self) -> None:
        if self.cooled_dof not in ("translation", "rotation"):
            raise ValidationError("cooled_dof must be 'translation' or 'rotation'")
        if not 0.0 < self.mode1_power < math.inf:
            raise ValidationError("mode-1 power must be positive")


@dataclass(frozen=True)
class ProtocolSettings:
    sigma_over_kappa: float = 5.6
    delay_kappa: float = 5.0
    t_max_kappa: float = 20.0
    n_points: int = 2000
    g_over_kappa: Optional[float] = None  # None -> use the scenario's derived g
    gamma_per_s: Optional[float] = None   # None -> gas damping (or 0)


@dataclass(frozen=True)
class RegimeThresholds:
    strong_coupling_kappa_factor: float = 2.0   # require |g| >= kappa/factor
    strong_coupling_gamma_factor: float = 10.0  # require |g| >= factor*gamma
    pressure_margin: float = 10.0               # require P <= P_max/margin
    heating_margin: float = 10.0                # require t* Gamma >= margin


DEFAULT_THRESHOLDS = RegimeThresholds()


@dataclass(frozen=True)
class Scenario:
    cavity: CavityConfig
    object: DielectricObject
    trap: Union[TweezerConfig, SelfTrapSpec]
    drive: Optional[DriveConfig] = None
    gas: Optional[GasEnvironment] = None
    thermal: Optional[ThermalInput] = None
    protocol: ProtocolSettings = field(default_factory=ProtocolSettings)
    cooling_rate: float = 1e5  # 1/s, assumed laser cooling rate for bounds
    name: str = "scenario"


@dataclass(frozen=True)
class FeasibilityReport:
    name: str
    cavity: CavityDerived
    optomech: OptomechParams
    good_cavity: bool
    kappa_over_omega_t: float
    strong_coupling: bool
    g_over_kappa: float
    g_over_gamma: Optional[float]
    gamma: Optional[float]                 # 1/s
    scattering_finesse_ok: Optional[bool]
    F_max: Optional[float]
    pressure_ok: Optional[bool]
    P_max_torr: Optional[float]
    bulk_T: Optional[float]                # K
    Q: Optional[float]
    decoherence: Optional[DecoherenceBudget]
    selftrap: Optional[SelfTrapSolution]

    def to_dict(self) -> dict:
        """Nested plain-value dict, ready for key-value rendering."""
        out: dict = {"scenario": self.name}
        out["cavity"] = {
            "omega_c0_rad_s": self.cavity.omega_c0,
            "kappa_rad_s": self.cavity.kappa,
            "kappa_hz": self.cavity.kappa / TWO_PI,
            "waist_m": self.cavity.waist_W,
        }
        om = self.optomech
        out["optomech"] = {
            "omega_t_hz": om.omega_t / TWO_PI,
            "xi0": om.xi0,
            "zero_point": om.zm,
            "g0_rad_s": om.g0,
            "alpha_abs": om.alpha_abs,
            "g_hz": om.g / TWO_PI,
            "delta_shift_hz": om.delta_shift / TWO_PI,
            "beta": om.beta,
            "detuning_hz": om.detuning / TWO_PI,
        }
        out["regimes"] = {
            "good_cavity": self.good_cavity,
            "kappa_over_omega_t": self.kappa_over_omega_t,
            "strong_coupling": self.strong_coupling,
            "g_over_kappa": self.g_over_kappa,
            "g_over_gamma": self.g_over_gamma,
            "scattering_finesse_ok": self.scattering_finesse_ok,
            "finesse_max": self.F_max,
            "pressure_ok": self.pressure_ok,
            "P_max_torr": self.P_max_torr,
        }
        out["environment"] = {
            "gamma_per_s": self.gamma,
            "Q_factor": self.Q,
            "bulk_T_K": self.bulk_T,
        }
        if self.decoherence is not None:
            d = self.decoherence
            out["decoherence"] = {
                "t_star_s": d.t_star,
                "Lambda_m2_s": d.Lambda,
                "Gamma_dec_per_s": d.Gamma_dec,
                "Gamma_plus_per_s": d.Gamma_plus,
                "dec_over_heating": d.ratio,
                "pressure_margin": d.pressure_margin,
            }
        if self.selftrap is not None:
            st = self.selftrap
            out["selftrap"] = {
                "cooled_dof": st.cooled_dof,
                "alpha_ratio_sq": st.alpha_ratio_sq,
                "omega_t_z_hz": st.omega_t_z / TWO_PI,
                "omega_t_phi_hz": st.omega_t_phi / TWO_PI,
                "xi_z": st.xi_z,
                "xi_phi": st.xi_phi,
                "delta_1_hz": st.delta_1 / TWO_PI,
                "delta_2_hz": st.delta_2 / TWO_PI,
                "n_photons_1": st.n_photons_1,
                "n_photons_2": st.n_photons_2,
            }
        return out


def scattering_finesse_bound(waist_W: float, radius_R: float) -> float:
    """Finesse ceiling W^2/R^2 from the geometric scattering cross-section."""
    if radius_R <= 0.0 or waist_W <= 0.0:
        raise ValidationError("waist and radius must be positive")
    return waist_W**2 / radius_R**2


def evaluate_scenario(s: Scenario,
                      thresholds: RegimeThresholds = DEFAULT_THRESHOLDS) -> FeasibilityReport:
    """Run the full pipeline and populate every report field.

    Deterministic: identical scenarios produce bit-identical reports.
    Sub-module failures propagate with the failing stage named.
    """
    derived = derived_cavity_quantities(s.cavity)
    is_sphere = isinstance(s.object.geometry.shape, Sphere)
    selftrap = None

    try:
        if isinstance(s.trap, TweezerConfig):
            if s.drive is None:
                raise ValidationError("tweezer scenarios need a drive section")
            omega_t = tweezer_trap_frequency(s.object, s.trap)
            optomech = assemble_optomech_params(s.object, s.cavity, omega_t, s.drive)
        else:
            build = (translation_configuration if s.trap.cooled_dof == "translation"
                     else rotation_configuration)
            pair1, pair2, equilibrium, dof = build(s.cavity, s.trap.mode1_power)
            selftrap = solve_self_trap(s.object, s.cavity, pair1, pair2, equilibrium, dof)
            optomech = rod_optomech_params(s.object, s.cavity, selftrap)
    except Exception as exc:
        raise type(exc)(f"coupling stage: {exc}") from exc

    g_mag = abs(optomech.g)
    kappa = derived.kappa
    kappa_over_omega_t = kappa / optomech.omega_t
    good_cavity = optomech.omega_t > kappa

    gamma = None
    budget = None
    pressure_ok = None
    p_max_torr = None
    q_factor = None
    if is_sphere and s.gas is not None:
        try:
            gamma = gas_damping(s.object, s.gas)
            budget = decoherence_budget(s.object, s.gas, optomech.omega_t,
                                        optomech.zm, s.cooling_rate)
        except Exception as exc:
            raise type(exc)(f"decoherence stage: {exc}") from exc
        p_max_torr = pa_to_torr(budget.P_max)
        pressure_ok = s.gas.pressure_P <= budget.P_max / thresholds.pressure_margin
        q_factor = budget.Q_factor

    strong = g_mag >= kappa / thresholds.strong_coupling_kappa_factor
    g_over_gamma = None
    if gamma is not None and gamma > 0.0:
        g_over_gamma = g_mag / gamma
        strong = strong and g_mag >= thresholds.strong_coupling_gamma_factor * gamma

    f_max = None
    scattering_ok = None
    if is_sphere:
        f_max = scattering_finesse_bound(derived.waist_W, s.object.geometry.shape.radius)
        scattering_ok = s.cavity.finesse_F <= f_max

    bulk = None
    if is_sphere and s.thermal is not None:
        try:
            lam = (TWO_PI * CODATA.c / s.drive.laser_omega_L if s.drive is not None
                   else s.cavity.wavelength_lambda)
            bulk = bulk_temperature(s.object, s.thermal, lam)
        except Exception as exc:
            raise type(exc)(f"thermal stage: {exc}") from exc

    return FeasibilityReport(
        name=s.name, cavity=derived, optomech=optomech,
        good_cavity=good_cavity, kappa_over_omega_t=kappa_over_omega_t,
        strong_coupling=strong, g_over_kappa=g_mag / kappa,
        g_over_gamma=g_over_gamma, gamma=gamma,
        scattering_finesse_ok=scattering_ok, F_max=f_max,
        pressure_ok=pressure_ok, P_max_torr=p_max_torr,
        bulk_T=bulk, Q=q_factor, decoherence=budget, selftrap=selftrap,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _set_axis(s: Scenario, axis: str, value: float) -> Scenario:
    axis = axis.strip()
    if axis in ("P", "power"):
        if s.drive is None:
            raise ValidationError("scenario has no drive section to sweep power on")
        return replace(s, drive=replace(s.drive, power_P=float(value)))
    if axis in ("R", "radius"):
        shape = s.object.geometry.shape
        if not isinstance(shape, Sphere):
            raise ValidationError("radius sweeps apply to sphere scenarios")
        geom = replace(s.object.geometry, shape=Sphere(radius=float(value)))
        return replace(s, object=replace(s.object, geometry=geom))
    if axis in ("F", "finesse"):
        return replace(s, cavity=replace(s.cavity, finesse_F=float(value)))
    if axis in ("d", "length"):
        return replace(s, cavity=replace(s.cavity, length_d=float(value)))
    if axis == "pressure":  # Torr at the boundary
        if s.gas is None:
            raise ValidationError("scenario has no gas section to sweep pressure on")
        return replace(s, gas=replace(s.gas, pressure_P=torr_to_pa(float(value))))
    if axis in ("T", "gas_temperature"):
        if s.gas is None:
            raise ValidationError("scenario has no gas section to sweep temperature on")
        return replace(s, gas=replace(s.gas, temperature_T=float(value)))
    if axis in ("I0", "intensity"):
        if not isinstance(s.trap, TweezerConfig):
            raise ValidationError("intensity sweeps apply to tweezer scenarios")
        return replace(s, trap=replace(s.trap, intensity_I0=float(value)))
    if axis == "mode1_power":
        if not isinstance(s.trap, SelfTrapSpec):
            raise ValidationError("mode1_power sweeps apply to self-trap scenarios")
        return replace(s, trap=replace(s.trap, mode1_power=float(value)))
    if axis in ("sigma", "sigma_over_kappa"):
        return replace(s, protocol=replace(s.protocol, sigma_over_kappa=float(value)))
    if axis == "g_over_kappa":
        return replace(s, protocol=replace(s.protocol, g_over_kappa=float(value)))
    raise UnknownAxisError(f"unknown sweep axis {axis!r}")


def sweep(s: Scenario, axis: str, values: list,
          thresholds: RegimeThresholds = DEFAULT_THRESHOLDS) -> list[FeasibilityReport]:
    """Independent scenario evaluations along one named axis, order-preserving."""
    return [evaluate_scenario(_set_axis(s, axis, v), thresholds) for v in values]


def build_protocol(s: Scenario, report: Optional[FeasibilityReport] = None) -> PulseProtocol:
    """PulseProtocol for a scenario: g from the pipeline unless overridden."""
    from .pulse import PulseProtocol, _uniform_grid  # numpy loads with the first protocol
    if report is None:
        report = evaluate_scenario(s)
    kappa = report.cavity.kappa
    p = s.protocol
    g = (p.g_over_kappa * kappa if p.g_over_kappa is not None
         else abs(report.optomech.g))
    if p.gamma_per_s is not None:
        gamma = p.gamma_per_s
    else:
        gamma = report.gamma if report.gamma is not None else 0.0
    return PulseProtocol(g=g, kappa=kappa, gamma=gamma,
                         sigma=p.sigma_over_kappa * kappa, delay_L=p.delay_kappa / kappa,
                         t_grid=_uniform_grid(p.t_max_kappa / kappa, p.n_points),
                         omega_t=report.optomech.omega_t)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _number(doc: dict, path: str, default=_REQUIRED) -> Optional[float]:
    """doc[section][key] for path 'section.key' as a finite float, else a
    ValidationError naming the path. An absent key gives ``default``
    (KeyError without one); None stays None where the default is None."""
    section, key = path.split(".")
    value = doc[section][key] if default is _REQUIRED else doc[section].get(key, default)
    if value is None and default is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{path} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{path} must be finite, got {value!r}")
    return number


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from the documented YAML schema (boundary units)."""
    for key in ("cavity", "object", "trap", "drive", "gas", "thermal", "protocol"):
        value = doc.get(key, {})
        required = key in ("cavity", "object", "trap")  # the others may be null
        if not isinstance(value, dict) and (value is not None or required):
            raise ValidationError(f"section {key!r} must be a mapping, got {type(value).__name__}")
    try:
        cavity = CavityConfig(length_d=_number(doc, "cavity.length_m"),
                              finesse_F=_number(doc, "cavity.finesse"),
                              wavelength_lambda=_number(doc, "cavity.wavelength_m"))
        obj_doc = doc["object"]
        shape_kind = obj_doc.get("shape", "sphere")
        if shape_kind == "sphere":
            shape = Sphere(radius=_number(doc, "object.radius_m"))
        elif shape_kind == "rod":
            radius = _number(doc, "object.radius_m", None)
            radius = cavity.waist_W / 2.0 if radius is None else radius
            shape = Rod(radius=radius, width_a=_number(doc, "object.width_m"),
                        arc_L=_number(doc, "object.arc_m"))
        else:
            raise ValidationError(f"unknown object shape {shape_kind!r}")
        obj = DielectricObject(geometry=BodyGeometry(shape=shape),
                               density_rho=_number(doc, "object.density_kg_m3"),
                               eps1=_number(doc, "object.eps1"),
                               eps2=_number(doc, "object.eps2", 0.0))

        trap_doc = doc["trap"]
        kind = trap_doc.get("kind", "tweezer")
        if kind == "tweezer":
            trap: Union[TweezerConfig, SelfTrapSpec] = TweezerConfig(
                intensity_I0=_number(doc, "trap.intensity_W_m2"),
                waist_W0=_number(doc, "trap.waist_m"))
        elif kind == "self-trap":
            trap = SelfTrapSpec(cooled_dof=trap_doc["cooled_dof"],
                                mode1_power=_number(doc, "trap.mode1_power_W"))
        else:
            raise ValidationError(f"unknown trap kind {kind!r}")

        drive = None
        if doc.get("drive") is not None:
            detuning = _number(doc, "drive.detuning_hz", None)
            drive = DriveConfig(
                power_P=_number(doc, "drive.power_W"),
                laser_omega_L=TWO_PI * CODATA.c / _number(doc, "drive.wavelength_m"),
                detuning_Delta=None if detuning is None else hz_to_angular(detuning))

        gas = None
        cooling_rate = 1e5
        if doc.get("gas") is not None:
            gas = GasEnvironment(
                pressure_P=torr_to_pa(_number(doc, "gas.pressure_torr")),
                temperature_T=_number(doc, "gas.temperature_K", 300.0),
                molecule_mass=_number(doc, "gas.molecule_mass_amu", 28.6) * CODATA.amu)
            cooling_rate = _number(doc, "gas.cooling_rate_per_s", 1e5)

        thermal = None
        if doc.get("thermal") is not None:
            thermal = ThermalInput(intensity_I0=_number(doc, "thermal.intensity_W_m2"),
                                   emissivity_e=_number(doc, "thermal.emissivity", 1.0),
                                   T_env=_number(doc, "thermal.T_env_K", 300.0))

        proto = ProtocolSettings()
        if doc.get("protocol") is not None:
            n_points = _number(doc, "protocol.n_points", 2000)
            if n_points != int(n_points) or n_points < 3:
                raise ValidationError(f"protocol.n_points must be an integer >= 3, got {n_points}")
            proto = ProtocolSettings(
                sigma_over_kappa=_number(doc, "protocol.sigma_over_kappa", 5.6),
                delay_kappa=_number(doc, "protocol.delay_kappa", 5.0),
                t_max_kappa=_number(doc, "protocol.t_max_kappa", 20.0),
                n_points=int(n_points),
                g_over_kappa=_number(doc, "protocol.g_over_kappa", None),
                gamma_per_s=_number(doc, "protocol.gamma_per_s", None))
    except KeyError as exc:
        raise ValidationError(f"scenario file missing required key {exc}") from exc

    return Scenario(cavity=cavity, object=obj, trap=trap, drive=drive, gas=gas,
                    thermal=thermal, protocol=proto, cooling_rate=cooling_rate,
                    name=str(doc.get("name", "scenario")))


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict (boundary units, YAML-ready)."""
    doc: dict = {"name": s.name}
    doc["cavity"] = {"length_m": s.cavity.length_d, "finesse": s.cavity.finesse_F,
                     "wavelength_m": s.cavity.wavelength_lambda}
    shape = s.object.geometry.shape
    if isinstance(shape, Sphere):
        doc["object"] = {"shape": "sphere", "radius_m": shape.radius}
    else:
        doc["object"] = {"shape": "rod", "radius_m": shape.radius,
                         "width_m": shape.width_a, "arc_m": shape.arc_L}
    doc["object"].update({"density_kg_m3": s.object.density_rho,
                          "eps1": s.object.eps1, "eps2": s.object.eps2})
    if isinstance(s.trap, TweezerConfig):
        doc["trap"] = {"kind": "tweezer", "intensity_W_m2": s.trap.intensity_I0,
                       "waist_m": s.trap.waist_W0}
    else:
        doc["trap"] = {"kind": "self-trap", "cooled_dof": s.trap.cooled_dof,
                       "mode1_power_W": s.trap.mode1_power}
    if s.drive is not None:
        doc["drive"] = {
            "power_W": s.drive.power_P,
            "wavelength_m": TWO_PI * CODATA.c / s.drive.laser_omega_L,
            "detuning_hz": (None if s.drive.detuning_Delta is None
                            else s.drive.detuning_Delta / TWO_PI)}
    if s.gas is not None:
        doc["gas"] = {"pressure_torr": pa_to_torr(s.gas.pressure_P),
                      "temperature_K": s.gas.temperature_T,
                      "molecule_mass_amu": s.gas.molecule_mass / CODATA.amu,
                      "cooling_rate_per_s": s.cooling_rate}
    if s.thermal is not None:
        doc["thermal"] = {"intensity_W_m2": s.thermal.intensity_I0,
                          "emissivity": s.thermal.emissivity_e,
                          "T_env_K": s.thermal.T_env}
    p = s.protocol
    doc["protocol"] = {"sigma_over_kappa": p.sigma_over_kappa,
                       "delay_kappa": p.delay_kappa,
                       "t_max_kappa": p.t_max_kappa,
                       "n_points": p.n_points}
    if p.g_over_kappa is not None:
        doc["protocol"]["g_over_kappa"] = p.g_over_kappa
    if p.gamma_per_s is not None:
        doc["protocol"]["gamma_per_s"] = p.gamma_per_s
    return doc


def load_scenario(path: str) -> Scenario:
    """Read a scenario YAML file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"scenario file {path} is not a mapping document")
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# presets: the published strong-coupling reference parameter set
# ---------------------------------------------------------------------------

_REFERENCE_CAVITY = {"length_m": 4.0e-3, "finesse": 1.0e5, "wavelength_m": 1.064e-6}
_FUSED_SILICA = {"density_kg_m3": 2201.0, "eps1": 2.1, "eps2": 2.5e-10}

_PRESETS: dict[str, dict] = {
    # 250 nm fused-silica sphere, tweezer-trapped, 0.5 mW red-sideband drive
    "sphere-appendix-h": {
        "name": "sphere-appendix-h",
        "cavity": dict(_REFERENCE_CAVITY),
        "object": {"shape": "sphere", "radius_m": 250.0e-9, **_FUSED_SILICA},
        # I0/W0^2 = 2 W/um^4; the waist itself is not pinned by the
        # reference set, so a 1 um tweezer is assumed here
        "trap": {"kind": "tweezer", "intensity_W_m2": 2.0e12, "waist_m": 1.0e-6},
        "drive": {"power_W": 0.5e-3, "wavelength_m": 1.064e-6, "detuning_hz": None},
        "gas": {"pressure_torr": 1.0e-6, "temperature_K": 300.0,
                "molecule_mass_amu": 28.6, "cooling_rate_per_s": 1.0e5},
        "thermal": {"intensity_W_m2": 2.0e12, "emissivity": 1.0, "T_env_K": 300.0},
        "protocol": {"sigma_over_kappa": 5.6, "delay_kappa": 5.0,
                     "t_max_kappa": 20.0, "n_points": 2000},
    },
    # fused-silica rod (length = waist, 50 nm x 50 nm section), z cooling
    "rod-translation": {
        "name": "rod-translation",
        "cavity": dict(_REFERENCE_CAVITY),
        "object": {"shape": "rod", "width_m": 50.0e-9, "arc_m": 50.0e-9,
                   **_FUSED_SILICA},
        "trap": {"kind": "self-trap", "cooled_dof": "translation",
                 "mode1_power_W": 4.0e-3},
        "protocol": {"sigma_over_kappa": 5.6, "delay_kappa": 5.0,
                     "t_max_kappa": 20.0, "n_points": 2000},
    },
    # same rod, azimuthal cooling
    "rod-rotation": {
        "name": "rod-rotation",
        "cavity": dict(_REFERENCE_CAVITY),
        "object": {"shape": "rod", "width_m": 50.0e-9, "arc_m": 50.0e-9,
                   **_FUSED_SILICA},
        "trap": {"kind": "self-trap", "cooled_dof": "rotation",
                 "mode1_power_W": 4.0e-3},
        "protocol": {"sigma_over_kappa": 5.6, "delay_kappa": 5.0,
                     "t_max_kappa": 20.0, "n_points": 2000},
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_scenario_dict(name: str) -> dict:
    """Deep copy of a named preset's scenario document."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return copy.deepcopy(_PRESETS[name])

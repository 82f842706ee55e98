"""Built-in scenario documents: the published strong-coupling reference
parameter set, as YAML-ready dicts in boundary units.

This module needs no record type, so ``levicav preset`` runs without them.
"""

import copy

from .errors import ValidationError

__all__ = ["PRESET_NAMES", "preset_scenario_dict"]

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
    # fused-silica rod (length = waist, 50 nm x 50 nm section): z cooling
    # (translation) or azimuthal cooling (rotation)
    **{f"rod-{dof}": {
        "name": f"rod-{dof}",
        "cavity": dict(_REFERENCE_CAVITY),
        "object": {"shape": "rod", "width_m": 50.0e-9, "arc_m": 50.0e-9,
                   **_FUSED_SILICA},
        "trap": {"kind": "self-trap", "cooled_dof": dof, "mode1_power_W": 4.0e-3},
        "protocol": {"sigma_over_kappa": 5.6, "delay_kappa": 5.0,
                     "t_max_kappa": 20.0, "n_points": 2000},
    } for dof in ("translation", "rotation")},
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_scenario_dict(name: str) -> dict:
    """Deep copy of a named preset's scenario document."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return copy.deepcopy(_PRESETS[name])

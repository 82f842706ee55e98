"""Optomechanics of dielectric objects levitated in a high-finesse cavity:
couplings, single-photon swap-protocol dynamics, and decoherence budgets.
"""

from .cavity import (BodyGeometry, CavityConfig, Rod, Sphere, derived_cavity_quantities,
                     numeric_derivatives)
from .constants import (CODATA, PhysicalConstants, angular_to_hz, hz_to_angular,
                        pa_to_torr, torr_to_pa)
from .environment import (DecoherenceBudget, GasEnvironment, ThermalInput,
                          bulk_temperature, decoherence_budget, decoherence_rates,
                          gas_damping, heating_time_and_bound, quality_factor)
from .rod import (C1, C2, LGPairProfile, SelfTrapSolution, rod_coupling_constants,
                  rod_frequency_profile, rod_optomech_params,
                  rotation_configuration, solve_self_trap,
                  translation_configuration)
from .scenario import (FeasibilityReport, Scenario, SelfTrapSpec, build_protocol,
                       evaluate_scenario, load_scenario, preset_scenario_dict,
                       scattering_finesse_bound, sweep)
from .sphere import (DielectricObject, DriveConfig, OptomechParams, TweezerConfig,
                     assemble_optomech_params, intracavity_amplitude,
                     sphere_frequency_profile, sphere_linear_coupling,
                     tweezer_trap_frequency)

__version__ = "0.1.0"

# the pulse module needs numpy; it loads on first use of one of its names,
# so the report paths start without it
_PULSE_NAMES = ("PhononTrace", "PulseProtocol", "SuperpositionState",
                "amplification_envelope", "conditional_superposition",
                "phonon_trace", "refined_peak")


def __getattr__(name):
    if name in _PULSE_NAMES:
        from . import pulse
        return getattr(pulse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

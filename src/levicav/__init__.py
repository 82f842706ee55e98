"""Optomechanics of dielectric objects levitated in a high-finesse cavity:
couplings, single-photon swap-protocol dynamics, and decoherence budgets.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names the package serves from it. A module is
# imported on the first use of one of its names, so each subcommand loads
# only the layers it runs: the presets need no record type, and the pulse
# module brings numpy.
_EXPORTS = {
    "cavity": ("BodyGeometry", "CavityConfig", "Rod", "Sphere", "derived_cavity_quantities",
               "numeric_derivatives"),
    "constants": ("CODATA", "PhysicalConstants", "angular_to_hz", "hz_to_angular",
                  "pa_to_torr", "torr_to_pa"),
    "environment": ("DecoherenceBudget", "GasEnvironment", "ThermalInput", "bulk_temperature",
                    "decoherence_budget", "decoherence_rates", "gas_damping",
                    "heating_time_and_bound", "quality_factor"),
    "presets": ("preset_scenario_dict",),
    "pulse": ("PhononTrace", "PulseProtocol", "SuperpositionState", "amplification_envelope",
              "conditional_superposition", "phonon_trace", "refined_peak"),
    "rod": ("C1", "C2", "LGPairProfile", "SelfTrapSolution", "rod_coupling_constants",
            "rod_frequency_profile", "rod_optomech_params", "rotation_configuration",
            "solve_self_trap", "translation_configuration"),
    "scenario": ("FeasibilityReport", "Scenario", "SelfTrapSpec", "build_protocol",
                 "evaluate_scenario", "load_scenario", "scattering_finesse_bound", "sweep"),
    "sphere": ("DielectricObject", "DriveConfig", "OptomechParams", "TweezerConfig",
               "assemble_optomech_params", "intracavity_amplitude", "sphere_frequency_profile",
               "sphere_linear_coupling", "tweezer_trap_frequency"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

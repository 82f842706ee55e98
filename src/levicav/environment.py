"""Gas heating and damping, cooling pressure bound, superposition
decoherence, and laser-absorption bulk temperature.

Kinetic theory gives a levitated sphere a velocity damping

    gamma = 4 pi R^2 P / (M v_bar),      v_bar = sqrt(3 k_B T / m)

and a one-quantum heating time from the fluctuation-dissipation noise
D = 2 k_B T gamma / M,

    t* = -log(1 - hbar w / k_B T) / (2 gamma)  ~  hbar w / (2 gamma k_B T).

Ground-state cooling at rate Gamma requires t* Gamma >> 1, i.e. a chamber
pressure below P_max = 3 M Gamma hbar w / (8 m v_bar pi R^2). Gas
scattering also localizes superpositions at rate Lambda = 3 m v_bar P
pi R^2 / hbar^2, giving a decoherence rate Gamma_dec = Lambda z_m^2; the
ratio Gamma_dec / Gamma_plus equals 9/16 identically (with the first-order
heating rate Gamma_plus = 2 gamma k_B T / hbar w).

These formulas use the sphere cross-section pi R^2; rod geometries are
rejected. The bulk temperature balances tweezer absorption against
blackbody emission.
"""

from __future__ import annotations

import math
from .cavity import Sphere
from .constants import CODATA, TWO_PI, pa_to_torr
from .errors import GeometryError, NumericalError, RegimeError, ValidationError
from .records import record
from .sphere import DielectricObject

__all__ = [
    "GasEnvironment",
    "ThermalInput",
    "HeatingBound",
    "DecoherenceRates",
    "DecoherenceBudget",
    "gas_damping",
    "heating_time_and_bound",
    "quality_factor",
    "decoherence_rates",
    "bulk_temperature",
    "decoherence_budget",
]

#: Mean molecular mass of air, kg (28.6 u).
AIR_MOLECULE_MASS = 28.6 * CODATA.amu


@record
class GasEnvironment:
    """Residual gas in the chamber. Pressure in Pa (convert Torr at I/O), positive."""

    pressure_P: float                        # Pa
    temperature_T: float = 300.0             # K
    molecule_mass: float = AIR_MOLECULE_MASS  # kg

    def __post_init__(self) -> None:
        if not 0.0 < self.pressure_P < math.inf:
            raise ValidationError("pressure must be positive")
        if not (0.0 < self.temperature_T < math.inf and 0.0 < self.molecule_mass < math.inf):
            raise ValidationError("temperature and molecule mass must be positive")

    @property
    def v_bar(self) -> float:
        """Mean molecular speed sqrt(3 k_B T / m), m/s."""
        return math.sqrt(3.0 * CODATA.k_B * self.temperature_T / self.molecule_mass)


@record
class ThermalInput:
    """Laser intensity heating the bulk, and the radiative environment."""

    intensity_I0: float   # W/m^2
    emissivity_e: float = 1.0
    T_env: float = 300.0  # K

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity_I0 < math.inf:
            raise ValidationError("intensity must be non-negative")
        if not 0.0 < self.emissivity_e <= 1.0:
            raise ValidationError("emissivity must be in (0, 1]")
        if not 0.0 < self.T_env < math.inf:
            raise ValidationError("environment temperature must be positive")


@record
class HeatingBound:
    """One-quantum heating time and the cooling pressure bound it sets."""

    t_star: float          # s, exact one-quantum heating time
    P_max: float           # Pa, pressure bound at the given cooling rate
    torr_per_hz_linear: float   # Torr s: P_max/Gamma with Gamma in 1/s
    torr_per_hz_angular: float  # Torr s: P_max/(2 pi Gamma), angular reading


@record
class DecoherenceRates:
    """Gas localization and decoherence rates against the heating rate."""

    Lambda: float      # 1/(m^2 s), localization rate
    Gamma_dec: float   # 1/s
    Gamma_plus: float  # 1/s, first-order heating rate 1/t*
    ratio: float       # Gamma_dec / Gamma_plus


@record
class DecoherenceBudget:
    """Gas damping, heating, decoherence and pressure bound of one sphere."""

    gamma: float       # 1/s
    Q_factor: float
    pressure_margin: float  # P_max / P
    heating: HeatingBound
    rates: DecoherenceRates


def _sphere_radius(obj: DielectricObject) -> float:
    shape = obj.shape
    if not isinstance(shape, Sphere):
        raise GeometryError("gas-collision formulas are derived for spheres only")
    return shape.radius


def gas_damping(obj: DielectricObject, env: GasEnvironment) -> float:
    """Velocity damping rate 4 pi R^2 P / (M v_bar), 1/s."""
    radius = _sphere_radius(obj)
    return 4.0 * math.pi * radius**2 * env.pressure_P / (obj.mass * env.v_bar)


def heating_time_and_bound(obj: DielectricObject, env: GasEnvironment, gamma: float,
                           omega_t: float, cooling_rate_Gamma: float) -> HeatingBound:
    """One-quantum heating time and the pressure bound for cooling.

    Returns the exact logarithmic t* at the gas damping rate ``gamma``;
    requires the classical-bath regime hbar omega_t << k_B T.
    Both readings of the bound's Torr/Hz coefficient are exposed because
    the cooling rate's Hz-vs-angular convention is ambiguous upstream.
    """
    radius = _sphere_radius(obj)
    if omega_t <= 0.0 or gamma <= 0.0 or cooling_rate_Gamma <= 0.0:
        raise ValidationError("omega_t, gamma and cooling rate must be positive")
    quantum_ratio = CODATA.hbar * omega_t / (CODATA.k_B * env.temperature_T)
    if quantum_ratio >= 1.0:
        raise RegimeError("hbar omega_t >= k_B T: heating-time formula out of regime")
    t_star = -math.log1p(-quantum_ratio) / (2.0 * gamma)
    p_max = (3.0 * obj.mass * cooling_rate_Gamma * CODATA.hbar * omega_t
             / (8.0 * env.molecule_mass * env.v_bar * math.pi * radius**2))
    coeff = pa_to_torr(p_max) / cooling_rate_Gamma
    return HeatingBound(t_star=t_star, P_max=p_max, torr_per_hz_linear=coeff,
                        torr_per_hz_angular=coeff / TWO_PI)


def quality_factor(omega_t: float, gamma: float) -> float:
    """Mechanical quality factor Q = omega_t / gamma (inf at gamma = 0)."""
    if omega_t <= 0.0 or gamma < 0.0:
        raise ValidationError("omega_t must be positive and gamma non-negative")
    if gamma == 0.0:
        return math.inf
    return omega_t / gamma


def decoherence_rates(obj: DielectricObject, env: GasEnvironment, gamma: float,
                      omega_t: float, z_m: float) -> DecoherenceRates:
    """Localization rate and superposition decoherence vs heating.

    Gamma_plus uses the first-order heating rate 2 gamma k_B T/(hbar w),
    under which Gamma_dec/Gamma_plus reduces to the parameter-free 9/16.
    """
    radius = _sphere_radius(obj)
    if omega_t <= 0.0 or gamma <= 0.0 or z_m <= 0.0:
        raise ValidationError("omega_t, gamma and z_m must be positive")
    lam = (3.0 * env.molecule_mass * env.v_bar * env.pressure_P
           * math.pi * radius**2 / CODATA.hbar**2)
    gamma_dec = lam * z_m**2
    gamma_plus = 2.0 * gamma * CODATA.k_B * env.temperature_T / (CODATA.hbar * omega_t)
    if not (math.isfinite(gamma_dec) and math.isfinite(gamma_plus)):
        raise NumericalError("decoherence rates overflow the float range")
    return DecoherenceRates(Lambda=lam, Gamma_dec=gamma_dec,
                            Gamma_plus=gamma_plus, ratio=gamma_dec / gamma_plus)


def bulk_temperature(obj: DielectricObject, th: ThermalInput, lambda_L: float) -> float:
    """Steady bulk temperature from absorbed laser power vs blackbody emission.

    T^4 = I0 (4 pi^3 R / (e sigma lambda)) * 3 eps2 / ((eps1+2)^2 + eps2^2)
          + T_env^4
    """
    radius = _sphere_radius(obj)
    if lambda_L <= 0.0:
        raise ValidationError("laser wavelength must be positive")
    absorption = 3.0 * obj.eps2 / ((obj.eps1 + 2.0) ** 2 + obj.eps2**2)
    absorbed = (th.intensity_I0 * 4.0 * math.pi**3 * radius
                / (th.emissivity_e * CODATA.sigma_SB * lambda_L) * absorption)
    if absorbed == 0.0:
        return th.T_env
    return (absorbed + th.T_env**4) ** 0.25


def decoherence_budget(obj: DielectricObject, env: GasEnvironment, gamma: float,
                       omega_t: float, z_m: float,
                       cooling_rate_Gamma: float) -> DecoherenceBudget:
    """Assemble the full decoherence record for one sphere scenario at the
    gas damping rate ``gamma``, computed once by the caller."""
    bound = heating_time_and_bound(obj, env, gamma, omega_t, cooling_rate_Gamma)
    rates = decoherence_rates(obj, env, gamma, omega_t, z_m)
    return DecoherenceBudget(gamma=gamma, Q_factor=quality_factor(omega_t, gamma),
                             pressure_margin=bound.P_max / env.pressure_P,
                             heating=bound, rates=rates)

"""Rod couplings: two-mode self-trapping in LG-pair modes.

The rod (two opposed wedges, radius R = W/2) sits in two counter-rotating
LG-pair modes. Mode 1 (LG10 pair) and mode 2 (LG20 pair) shift the
resonance by

    omega_{c,l}(phi, z) = omega_c0 [1 - A C_l cos^2(k(z - z_l)) cos^2(l(phi - phi_l))]

with A = V(eps1 - 1)/(pi W^2 d) and the wedge-overlap constants

    C1 = 2(2 sqrt(e) - 3)/sqrt(e)    C2 = (8 sqrt(e) - 13)/(2 sqrt(e))

Driving both modes so that the classical gradients cancel along the cooled
coordinate (|alpha1|^2 omega1' = -|alpha2|^2 omega2') leaves a harmonic
self-trap with curvature sum hbar(omega1'' |alpha1|^2 + omega2'' |alpha2|^2)
and a residual linear optomechanical coupling through mode 1.

Two standard configurations:
  translation  mode 1 offset by c*pi/(4 omega_c0) along z, equilibrium at
               (phi0 = 0, z0 = c*pi/(8 omega_c0)); cools the z motion.
  rotation     mode 1 rotated by -pi/4, equilibrium at (phi0 = 7 pi/12,
               z0 = 0); cools the angular motion.

Derivatives used by the solver act on the dimensionless shift profile
(not the absolute frequency), which keeps finite differences far above
the float64 roundoff floor of the ~1e15 rad/s carrier. The profiles in
rad/s and the closed-form mode-1 slopes are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Optional

from .cavity import CavityConfig, Rod, numeric_derivatives
from .constants import CODATA
from .errors import GeometryError, NumericalError, ValidationError
from .records import record
from .sphere import (DielectricObject, OptomechParams, _overlap_amplitude,
                     assemble_optomech_params, equilibrium_z)

__all__ = [
    "C1",
    "C2",
    "LGPairProfile",
    "SelfTrapSolution",
    "translation_configuration",
    "rotation_configuration",
    "solve_self_trap",
    "rod_optomech_params",
]

_SQRT_E = math.sqrt(math.e)
#: Wedge-overlap constant of the LG10 pair, 2(2 sqrt(e) - 3)/sqrt(e).
C1 = 2.0 * (2.0 * _SQRT_E - 3.0) / _SQRT_E
#: Wedge-overlap constant of the LG20 pair, (8 sqrt(e) - 13)/(2 sqrt(e)).
C2 = (8.0 * _SQRT_E - 13.0) / (2.0 * _SQRT_E)


@record
class LGPairProfile:
    """One driven LG pair: order, pose offsets, and drive power.

    The self-trap solver takes mode 1's photon number from its drive power
    and mode 2's from the balance condition.
    """

    order_ell: int
    offset_z: float = 0.0    # m
    offset_phi: float = 0.0  # rad
    power_P: Optional[float] = None  # W

    def __post_init__(self) -> None:
        if self.order_ell not in (1, 2):
            raise ValidationError("LG pair order must be 1 or 2")

    @property
    def overlap_constant(self) -> float:
        return C1 if self.order_ell == 1 else C2


@record
class SelfTrapSolution:
    """Two-mode self-trap: photon numbers, trap frequencies, slopes and
    shifts at the equilibrium pose."""

    alpha_ratio_sq: float  # |alpha2|^2 / |alpha1|^2
    omega_t_z: float       # rad/s
    omega_t_phi: float     # rad/s
    xi_z: float            # rad/(s m), mode-1 slope along z at equilibrium
    xi_phi: float          # rad/(s rad), mode-1 slope along phi
    delta_1: float         # rad/s
    delta_2: float         # rad/s
    n_photons_1: float
    n_photons_2: float
    cooled_dof: str        # "translation" | "rotation"


def _check_rod_regime(obj: DielectricObject, cfg: CavityConfig) -> Rod:
    shape = obj.shape
    if not isinstance(shape, Rod):
        raise GeometryError("rod operations require a rod geometry")
    if abs(shape.radius - cfg.waist_W / 2.0) > 1e-9 * cfg.waist_W:
        raise GeometryError("wedge model assumes rod radius R = W/2")
    if shape.width_a > cfg.length_d / 100.0:
        raise GeometryError("wedge model assumes width a << cavity length")
    return shape


def _shift(obj: DielectricObject, cfg: CavityConfig, pair: LGPairProfile,
           phi: float, z: float) -> float:
    k = cfg.wavenumber
    ell = pair.order_ell
    return (_overlap_amplitude(obj, cfg) * pair.overlap_constant
            * math.cos(k * (z - pair.offset_z)) ** 2
            * math.cos(ell * (phi - pair.offset_phi)) ** 2)


def translation_configuration(cfg: CavityConfig, mode1_power: float) -> tuple:
    """(pair1, pair2, equilibrium, cooled_dof) for z cooling."""
    quarter = equilibrium_z(cfg)
    pair1 = LGPairProfile(order_ell=1, offset_z=quarter, power_P=mode1_power)
    pair2 = LGPairProfile(order_ell=2)
    return pair1, pair2, (0.0, quarter / 2.0), "translation"


def rotation_configuration(cfg: CavityConfig, mode1_power: float) -> tuple:
    """(pair1, pair2, equilibrium, cooled_dof) for angular cooling."""
    pair1 = LGPairProfile(order_ell=1, offset_phi=-math.pi / 4.0, power_P=mode1_power)
    pair2 = LGPairProfile(order_ell=2)
    return pair1, pair2, (7.0 * math.pi / 12.0, 0.0), "rotation"


def _resonant_photon_number(power: float, cfg: CavityConfig) -> float:
    """|alpha|^2 = 2P/(hbar omega_c0 kappa) for a resonantly driven mode."""
    if power is None or power < 0.0:
        raise ValidationError("mode-1 drive power must be a non-negative number")
    return 2.0 * power / (CODATA.hbar * cfg.omega_c0 * cfg.kappa)


def solve_self_trap(obj: DielectricObject, cfg: CavityConfig,
                    pair1: LGPairProfile, pair2: LGPairProfile,
                    equilibrium: tuple[float, float],
                    cooled_dof: str) -> SelfTrapSolution:
    """Balance the two-mode light field into a harmonic self-trap.

    Fixes |alpha2|^2/|alpha1|^2 so the classical gradients cancel along
    the cooled coordinate, then evaluates trap curvatures along z
    (against the mass) and phi (against the moment of inertia) by
    Richardson-extrapolated finite differences of the exact two-mode
    profile. Fails if no positive balance ratio exists or the curvature
    sum does not trap.
    """
    _check_rod_regime(obj, cfg)
    if cooled_dof not in ("translation", "rotation"):
        raise ValidationError("cooled_dof must be 'translation' or 'rotation'")
    phi0, z0 = equilibrium
    omega0 = cfg.omega_c0

    n1 = _resonant_photon_number(pair1.power_P, cfg)
    if n1 <= 0.0:
        raise ValidationError("mode-1 photon number must be positive")

    # derivatives of the (dimensionless) shift profiles of each mode
    lam = cfg.wavelength_lambda
    deriv = {}
    for name, pair in (("1", pair1), ("2", pair2)):
        dz = numeric_derivatives(lambda z: _shift(obj, cfg, pair, phi0, z), z0, scale=lam)
        dphi = numeric_derivatives(lambda p: _shift(obj, cfg, pair, p, z0), phi0, scale=1.0)
        deriv[name] = (dz, dphi)

    coord = 0 if cooled_dof == "translation" else 1
    d1 = deriv["1"][coord].first
    d2 = deriv["2"][coord].first
    if d2 == 0.0 or d1 == 0.0:
        raise NumericalError("one mode exerts no gradient along the cooled coordinate")
    ratio = -d1 / d2
    if ratio <= 0.0:
        raise NumericalError("balance condition has no positive photon-number solution")
    n2 = ratio * n1

    # frequency-profile curvatures: omega'' = -omega_c0 * shift''
    curv_z = -omega0 * (n1 * deriv["1"][0].second + n2 * deriv["2"][0].second)
    curv_phi = -omega0 * (n1 * deriv["1"][1].second + n2 * deriv["2"][1].second)
    if curv_z <= 0.0 or curv_phi <= 0.0:
        raise NumericalError("curvature sum is non-positive: no self-trapping")
    omega_t_z = math.sqrt(CODATA.hbar * curv_z / obj.mass)
    omega_t_phi = math.sqrt(CODATA.hbar * curv_phi / obj.moment_of_inertia)

    # mode-1 linear coupling along the cooled coordinate; the other vanishes
    xi_z = -omega0 * deriv["1"][0].first if cooled_dof == "translation" else 0.0
    xi_phi = -omega0 * deriv["1"][1].first if cooled_dof == "rotation" else 0.0

    delta_1 = -omega0 * _shift(obj, cfg, pair1, phi0, z0)
    delta_2 = -omega0 * _shift(obj, cfg, pair2, phi0, z0)

    return SelfTrapSolution(alpha_ratio_sq=ratio, omega_t_z=omega_t_z,
                            omega_t_phi=omega_t_phi, xi_z=xi_z, xi_phi=xi_phi,
                            delta_1=delta_1, delta_2=delta_2,
                            n_photons_1=n1, n_photons_2=n2,
                            cooled_dof=cooled_dof)


def rod_optomech_params(obj: DielectricObject, sol: SelfTrapSolution) -> OptomechParams:
    """OptomechParams for the cooled rod coordinate of a self-trap solution.

    Translation uses q_m = sqrt(hbar/(2 M omega_t_z)); rotation uses the
    angular zero-point sqrt(hbar/(2 I omega_t_phi)). The enhancement
    amplitude is mode 1's sqrt(photon number), on the red sideband.
    """
    if sol.cooled_dof == "translation":
        omega_t, xi, mass_like = sol.omega_t_z, sol.xi_z, obj.mass
    else:
        omega_t, xi, mass_like = sol.omega_t_phi, sol.xi_phi, obj.moment_of_inertia
    return assemble_optomech_params(omega_t, xi, sol.delta_1, math.sqrt(sol.n_photons_1),
                                    omega_t, mass_like)

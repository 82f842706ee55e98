"""Closed-form sphere couplings and the assembled optomechanical record.

A dielectric sphere in the TEM00 mode, trapped by optical tweezers at the
point of maximum axial slope z0 = c*pi/(4 omega_c0), x0 = y0 = 0. In that
configuration the resonance depends linearly on the axial displacement,
omega_c(z) = omega_c0 + delta + xi0 * (z - z0), with

    xi0   =  omega_c0^2 (eps1 - 1) V / (c d pi W^2)
    delta = -omega_c0   (eps1 - 1) V / (2 d pi W^2)

The drive enhances the single-photon coupling g0 = q_m * xi0 by the root
photon number |alpha|, giving g = |alpha| g0. Only the real permittivity
eps1 enters here; the imaginary part eps2 matters solely for laser
absorption (see the environment module). The full resonance profile behind
these closed forms is a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .cavity import CavityConfig, Rod, Sphere
from .constants import CODATA
from .errors import GeometryError, NumericalError, ValidationError
from .records import record

__all__ = [
    "DielectricObject",
    "TweezerConfig",
    "DriveConfig",
    "OptomechParams",
    "sphere_linear_coupling",
    "tweezer_trap_frequency",
    "intracavity_amplitude",
    "assemble_optomech_params",
    "equilibrium_z",
]


@record
class DielectricObject:
    """Shape plus material: density rho and eps_r = eps1 + i eps2."""

    shape: Union[Sphere, Rod]
    density_rho: float  # kg/m^3
    eps1: float         # real relative permittivity
    eps2: float = 0.0   # imaginary part (absorption)

    def __post_init__(self) -> None:
        if not 0.0 < self.density_rho < math.inf:
            raise ValidationError("density must be positive")
        if not 1.0 <= self.eps1 < math.inf:
            raise ValidationError("eps1 must be >= 1")
        if not 0.0 <= self.eps2 < math.inf:
            raise ValidationError("eps2 must be >= 0")

    @property
    def volume(self) -> float:
        return self.shape.volume

    @property
    def mass(self) -> float:
        return self.density_rho * self.volume

    @property
    def moment_of_inertia(self) -> float:
        """Rod rotational inertia I = R*L*M/(4 pi) about the cavity axis."""
        shape = self.shape
        if not isinstance(shape, Rod):
            raise GeometryError("moment of inertia is defined for rods only")
        return shape.radius * shape.arc_L * self.mass / (4.0 * math.pi)


@record
class TweezerConfig:
    """Optical tweezer: peak intensity and waist."""

    intensity_I0: float  # W/m^2
    waist_W0: float      # m

    def __post_init__(self) -> None:
        if not (0.0 < self.intensity_I0 < math.inf and 0.0 < self.waist_W0 < math.inf):
            raise ValidationError("tweezer intensity and waist must be positive")


@record
class DriveConfig:
    """Cavity drive laser: power, frequency, and detuning Delta = omega_c - omega_L.

    detuning_Delta=None selects the red sideband Delta = omega_t, resolved in
    the tweezer branch of ``scenario.evaluate_scenario``. A self-trapped rod
    has no drive record and sits on the red sideband.
    """

    power_P: float          # W
    laser_omega_L: float    # rad/s
    detuning_Delta: Optional[float] = None  # rad/s

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_P < math.inf:
            raise ValidationError("drive power must be non-negative")
        if not 0.0 < self.laser_omega_L < math.inf:
            raise ValidationError("laser frequency must be positive")
        if self.detuning_Delta is not None and not math.isfinite(self.detuning_Delta):
            raise ValidationError("detuning must be finite")


@record
class OptomechParams:
    """Full coupling record for one trapped-object scenario.

    ``zm`` is the ground-state size of the cooled coordinate: meters for
    translations, radians for rotations (then ``xi0`` is rad/(s rad) and
    the mass under the square root is the moment of inertia).
    """

    omega_t: float     # rad/s
    xi0: float         # rad/(s m) or rad/(s rad)
    zm: float          # m or rad
    g0: float          # rad/s
    alpha_abs: float   # sqrt(photon number)
    g: float           # rad/s
    delta_shift: float  # rad/s
    beta: float        # displaced-frame mechanical offset, dimensionless
    detuning: float    # rad/s


def _overlap_amplitude(obj: DielectricObject, cfg: CavityConfig) -> float:
    """A = V(eps1-1)/(pi W^2 d), the dimensionless mode-overlap amplitude of
    a small body; the sphere and rod couplings both scale with it."""
    return obj.volume * (obj.eps1 - 1.0) / (math.pi * cfg.waist_W**2 * cfg.length_d)


def _small_sphere_amplitude(obj: DielectricObject, cfg: CavityConfig) -> float:
    """A for a sphere, whose closed forms hold only below the waist."""
    shape = obj.shape
    if not isinstance(shape, Sphere):
        raise GeometryError("this operation is defined for spheres only")
    if shape.radius >= cfg.waist_W:
        raise GeometryError("coupling formulas require sphere radius below the waist")
    return _overlap_amplitude(obj, cfg)


def equilibrium_z(cfg: CavityConfig) -> float:
    """Maximum-slope point of the axial standing wave, c*pi/(4 omega_c0)."""
    return CODATA.c * math.pi / (4.0 * cfg.omega_c0)


def sphere_linear_coupling(obj: DielectricObject, cfg: CavityConfig) -> tuple[float, float]:
    """(xi0, delta): linear coupling and static shift at the equilibrium.

    Closed forms for the sphere held on axis at z0 = c*pi/(4 omega_c0).
    """
    amplitude = _small_sphere_amplitude(obj, cfg)
    xi0 = cfg.omega_c0**2 / CODATA.c * amplitude
    delta = -0.5 * cfg.omega_c0 * amplitude
    return xi0, delta


def tweezer_trap_frequency(obj: DielectricObject, tw: TweezerConfig) -> float:
    """Rayleigh-regime tweezer trap frequency (rad/s) for a dielectric sphere.

    omega_t = sqrt[(6/(rho c)) ((eps1-1)/(eps1+2)) I0/W0^2]; requires
    eps1 > 1 (no gradient force otherwise). A square that underflows to 0
    is a NumericalError.
    """
    if obj.eps1 <= 1.0:
        raise ValidationError("gradient trapping requires eps1 > 1")
    omega_sq = (6.0 / (obj.density_rho * CODATA.c)
                * (obj.eps1 - 1.0) / (obj.eps1 + 2.0)
                * tw.intensity_I0 / tw.waist_W0**2)
    if omega_sq == 0.0:
        raise NumericalError("tweezer trap frequency underflows to 0")
    return math.sqrt(omega_sq)


def intracavity_amplitude(drive: DriveConfig, kappa: float,
                          detuning: float) -> tuple[float, float]:
    """(|E|, |alpha|): drive strength and steady coherent amplitude at ``detuning``.

    |E| = sqrt(2 P kappa / hbar omega_L);  |alpha| = |E| / sqrt(Delta^2 + kappa^2).
    """
    if kappa <= 0.0:
        raise ValidationError("kappa must be positive")
    e_abs = math.sqrt(2.0 * drive.power_P * kappa / (CODATA.hbar * drive.laser_omega_L))
    return e_abs, e_abs / math.hypot(detuning, kappa)


def assemble_optomech_params(omega_t: float, xi0: float, delta_shift: float,
                             alpha_abs: float, detuning: float,
                             mass_like: float) -> OptomechParams:
    """The OptomechParams record of one cooled coordinate from its inputs.

    ``mass_like`` is the mass of a translation or the moment of inertia of
    a rotation: zm = sqrt(hbar/(2 mass_like omega_t)), g0 = zm xi0 and
    g = |alpha| g0, for a tweezed sphere and a self-trapped rod alike.
    """
    if omega_t <= 0.0:
        raise ValidationError("trap frequency must be positive")
    zm = math.sqrt(CODATA.hbar / (2.0 * mass_like * omega_t))
    g0 = zm * xi0
    return OptomechParams(omega_t=omega_t, xi0=xi0, zm=zm, g0=g0, alpha_abs=alpha_abs,
                          g=alpha_abs * g0, delta_shift=delta_shift,
                          beta=-zm * xi0 * alpha_abs**2 / omega_t, detuning=detuning)

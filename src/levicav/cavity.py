"""Cavity geometry, body shapes, and Richardson finite differences.

The confocal cavity record derives the bare resonance, the photon decay
rate and the waist. Bodies are spheres, or rods modeled as two opposed
wedges, each at the one position its trap sets. ``numeric_derivatives``
differentiates the rod's self-trap frequency profile. The volume-quadrature
route to the resonance shift, with its mode catalog, is a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import Callable

from .constants import CODATA, TWO_PI, wavelength_omega
from .errors import DerivativeError, GeometryError, ValidationError
from .records import record

__all__ = [
    "CavityConfig",
    "CavityDerived",
    "Sphere",
    "Rod",
    "derived_cavity_quantities",
    "DerivativeEstimate",
    "numeric_derivatives",
]


@record
class CavityConfig:
    """Confocal cavity: length d, finesse F, resonant wavelength lambda."""

    length_d: float       # m
    finesse_F: float      # dimensionless
    wavelength_lambda: float  # m

    def __post_init__(self) -> None:
        # comparisons written so that NaN fails them; inf fails the upper bound
        if not 0.0 < self.length_d < math.inf:
            raise ValidationError("cavity length must be positive")
        if not 1.0 < self.finesse_F < math.inf:
            raise ValidationError("finesse must exceed 1")
        if not 0.0 < self.wavelength_lambda < math.inf:
            raise ValidationError("wavelength must be positive")

    @property
    def omega_c0(self) -> float:
        """Bare resonance frequency 2*pi*c/lambda, rad/s."""
        return wavelength_omega(self.wavelength_lambda)

    @property
    def kappa(self) -> float:
        """Photon (amplitude) decay rate c*pi/(2 F d), rad/s."""
        return CODATA.c * math.pi / (2.0 * self.finesse_F * self.length_d)

    @property
    def waist_W(self) -> float:
        """Confocal waist at the cavity center, sqrt(lambda d / 2 pi), m."""
        return math.sqrt(self.wavelength_lambda * self.length_d / TWO_PI)

    @property
    def wavenumber(self) -> float:
        """omega_c0 / c, rad/m."""
        return self.omega_c0 / CODATA.c


@record
class CavityDerived:
    """Bare resonance, photon decay rate and waist of a CavityConfig."""

    omega_c0: float  # rad/s
    kappa: float     # rad/s
    waist_W: float   # m


def derived_cavity_quantities(cfg: CavityConfig) -> CavityDerived:
    """Bare resonance, decay rate, and confocal waist for a cavity."""
    return CavityDerived(cfg.omega_c0, cfg.kappa, cfg.waist_W)


# ---------------------------------------------------------------------------
# body shapes
# ---------------------------------------------------------------------------

@record
class Sphere:
    """Sphere of radius R."""

    radius: float  # m

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValidationError("sphere radius must be positive")

    @property
    def volume(self) -> float:
        return 4.0 * math.pi * self.radius**3 / 3.0


@record
class Rod:
    """Rod modeled as two opposed wedges ("pieces of cake").

    Each wedge spans radius 0..R with angular width arc_L/R and thickness
    width_a along the cavity axis; the pair's total volume is R*L*a.
    """

    radius: float  # m, wedge radius R (half the rod length)
    width_a: float  # m, thickness along the cavity axis
    arc_L: float   # m, arc length at the rim

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.radius, self.width_a, self.arc_L)):
            raise ValidationError("rod dimensions must be positive")
        if self.arc_L >= self.radius:
            raise GeometryError("wedge model needs arc length << radius")

    @property
    def volume(self) -> float:
        return self.radius * self.arc_L * self.width_a


# ---------------------------------------------------------------------------
# finite differences with Richardson extrapolation
# ---------------------------------------------------------------------------

@record
class DerivativeEstimate:
    """First and second derivative of a profile, each with its Richardson
    error estimate."""

    first: float
    second: float
    err_first: float
    err_second: float


def _richardson(d_h: float, d_h2: float, d_h4: float) -> tuple[float, float]:
    """Two levels of h^2 Richardson extrapolation plus an error estimate."""
    r1a = (4.0 * d_h2 - d_h) / 3.0
    r1b = (4.0 * d_h4 - d_h2) / 3.0
    r2 = (16.0 * r1b - r1a) / 15.0
    return r2, abs(r2 - r1b)


#: Largest finite-difference step, in units of the profile's scale: large
#: enough that profiles carrying an O(1e15 rad/s) offset still difference
#: above the float64 roundoff floor.
BASE_STEP = 4e-2


def numeric_derivatives(profile: Callable[[float], float], q0: float,
                        scale: float = 1.0) -> DerivativeEstimate:
    """Central-difference first and second derivatives of a smooth profile.

    Steps h, h/2, h/4 with h = BASE_STEP*scale feed two Richardson levels.
    Raises DerivativeError on step underflow or non-finite samples.
    """
    if scale <= 0.0:
        raise ValidationError("scale must be positive")
    h = BASE_STEP * scale
    steps = (h, h / 2.0, h / 4.0)
    if q0 + steps[-1] == q0:
        raise DerivativeError(f"step {steps[-1]:g} underflows at q0={q0!r}")

    f0 = profile(q0)
    fp = [profile(q0 + s) for s in steps]
    fm = [profile(q0 - s) for s in steps]
    if not all(map(math.isfinite, [f0, *fp, *fm])):
        raise DerivativeError("profile returned non-finite values near q0")

    d = [(fp[i] - fm[i]) / (2.0 * steps[i]) for i in range(3)]
    s = [(fp[i] - 2.0 * f0 + fm[i]) / steps[i] ** 2 for i in range(3)]
    first, err1 = _richardson(*d)
    second, err2 = _richardson(*s)
    return DerivativeEstimate(first, second, err1, err2)

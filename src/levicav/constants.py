"""Physical constants and unit conversions used everywhere else.

All internal computation is done in SI units with *angular* frequencies
(rad/s). Hz and Torr exist only at I/O boundaries, through the explicit
conversion functions below; nothing converts implicitly.

Reference values (CODATA 2018), the single place they are recorded:

    hbar      1.054571817e-34   J s
    c         2.99792458e8      m/s        (exact)
    k_B       1.380649e-23      J/K        (exact)
    sigma_SB  5.670374419e-8    W m^-2 K^-4
    amu       1.66053906660e-27 kg
    Torr      133.322           Pa         (conversion contract)
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .records import record

TWO_PI = 2.0 * math.pi

#: Pascal per Torr, fixed by contract for pressure I/O.
TORR_IN_PA = 133.322


@record
class PhysicalConstants:
    """Fundamental constants, immutable and shared freely."""

    hbar: float = 1.054571817e-34     # J s
    c: float = 2.99792458e8           # m/s
    k_B: float = 1.380649e-23         # J/K
    sigma_SB: float = 5.670374419e-8  # W m^-2 K^-4
    amu: float = 1.66053906660e-27    # kg

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "k_B", "sigma_SB", "amu"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"constant {name} must be positive")


#: Default constant set used by the whole package.
CODATA = PhysicalConstants()


def torr_to_pa(pressure_torr: float) -> float:
    """Convert pressure from Torr to Pa. Rejects negative input."""
    if pressure_torr < 0.0:
        raise ValidationError(f"pressure must be non-negative, got {pressure_torr}")
    return pressure_torr * TORR_IN_PA


def pa_to_torr(pressure_pa: float) -> float:
    """Convert pressure from Pa to Torr. Rejects negative input."""
    if pressure_pa < 0.0:
        raise ValidationError(f"pressure must be non-negative, got {pressure_pa}")
    return pressure_pa / TORR_IN_PA


def hz_to_angular(frequency_hz: float) -> float:
    """Cyclic frequency (Hz) to angular frequency (rad/s)."""
    return TWO_PI * frequency_hz


def angular_to_hz(omega: float) -> float:
    """Angular frequency (rad/s) to cyclic frequency (Hz)."""
    return omega / TWO_PI


def wavelength_omega(x: float) -> float:
    """2 pi c / x: a vacuum wavelength (m) to its angular frequency (rad/s),
    or an angular frequency back to its wavelength; its own inverse."""
    return TWO_PI * CODATA.c / x

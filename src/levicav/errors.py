"""Exception types shared across the package.

Two families under one base: validation errors (bad inputs, regime
violations) and numerical errors (a computation that ran but could not
certify its result). The CLI maps the first family to exit code 1 and the
second to exit code 2.
"""

from typing import Optional


class LevicavError(Exception):
    """Base of both families. ``stage`` names the evaluation stage that
    failed ("coupling", "decoherence", "thermal"), or is None; the message
    then reads ``"<stage> stage: ..."``."""

    def __init__(self, *args, stage: Optional[str] = None):
        super().__init__(*args)
        self.stage = stage

    def __str__(self) -> str:
        text = super().__str__()
        return f"{self.stage} stage: {text}" if self.stage else text


class ValidationError(LevicavError, ValueError):
    """Invalid input value, geometry, or configuration."""


class GeometryError(ValidationError):
    """Body geometry outside the regime a formula is valid for."""


class RegimeError(ValidationError):
    """Physical-regime precondition violated (e.g. hbar*omega >= kT)."""


class UnknownAxisError(ValidationError):
    """Sweep axis name not recognized."""


class NumericalError(LevicavError, RuntimeError):
    """A numerical routine failed to certify its result."""


class DerivativeError(NumericalError):
    """Finite-difference step underflow or non-finite samples."""


class GridError(NumericalError):
    """Time grid too coarse for the requested discretization accuracy."""


class NoSwapError(NumericalError):
    """Phonon trace is flat; no swap time exists."""

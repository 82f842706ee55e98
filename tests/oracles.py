"""Independent routes that the tests compare the production formulas against.

Mode catalog and perturbative frequency shift. A sub-wavelength dielectric
body inside the cavity red-shifts the resonance. For a body of relative
permittivity ``eps_r`` occupying volume V(q) the relative shift is

    (omega_c(q) - omega_c0) / omega_c0
        = - int_{V(q)} (eps_r - 1) |phi0(r)|^2 dr / (2 int |phi0|^2 dr)

evaluated here by adaptive product quadrature over the body. The catalog
modes carry their normalization integral in closed form. Convention: the
axial part of the normalization integral uses the full cavity length d
(standing-wave peak normalization); this is the convention under which the
closed-form small-object coupling constants of the sphere and rod modules
hold, and it is validated against them in the test suite.

Mode intensities (arbitrary common scale, W = waist, k = omega_c0/c):

    TEM00      exp(-2 r_perp^2/W^2) cos^2(k z)
    LG10 pair  (2 r_perp^2/W^2)   exp(-2 r_perp^2/W^2) cos^2(phi)  cos^2(k z)
    LG20 pair  (2 r_perp^2/W^2)^2 exp(-2 r_perp^2/W^2) cos^2(2phi) cos^2(k z)

The LG pairs are counter-rotating superpositions, giving an azimuthal
standing wave; the transverse profiles are the standard LG_{l0} forms at
the beam waist, with the Gaussian envelope taken constant along z (bodies
sit near the cavity center).

Swap-protocol moment equations: the phonon number of the single-photon
swap, time-stepped by RK45 from the second-moment equations. It is the
second route beside the direct quadrature
``levicav.pulse.phonon_expectation_direct``.

50-digit shadow of the report path: the package's own formulas, imported
in a fresh interpreter over a ``math`` module whose functions and constants
come from mpmath, evaluated on the same float inputs lifted to ``mpf``. It
checks the floating-point arithmetic of the formulas, not the model.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from levicav.cavity import BodyGeometry, CavityConfig, Rod, Sphere
from levicav.constants import TWO_PI
from levicav.errors import GeometryError, NumericalError, ValidationError
from levicav.pulse import PulseProtocol, pulse_envelope

# ---------------------------------------------------------------------------
# mode catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeField:
    """Cavity mode intensity |phi0|^2 plus its normalization integral.

    ``intensity`` accepts arrays (x, y, z) in meters and returns |phi0|^2
    in the same arbitrary scale in which ``norm_integral`` = int |phi0|^2 dr
    is quoted.
    """

    label: str
    intensity: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    norm_integral: float  # m^3, same normalization as `intensity`
    azimuthal_order: int = 0


def tem00_mode(cfg: CavityConfig) -> ModeField:
    """Fundamental Gaussian mode with axial standing wave."""
    W2 = cfg.waist_W**2
    k = cfg.wavenumber

    def intensity(x, y, z):
        return np.exp(-2.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) / W2) * np.cos(k * np.asarray(z)) ** 2

    # transverse integral pi W^2 / 2, axial factor d (peak normalization)
    norm = math.pi * W2 / 2.0 * cfg.length_d
    return ModeField("TEM00", intensity, norm)


def lg_pair_mode(cfg: CavityConfig, ell: int, z_offset: float = 0.0,
                 phi_offset: float = 0.0) -> ModeField:
    """Counter-rotating LG_{l0} pair, azimuthal standing wave cos^2(l phi)."""
    if ell not in (1, 2):
        raise ValidationError("only LG pairs with l = 1 or 2 are cataloged")
    W2 = cfg.waist_W**2
    k = cfg.wavenumber

    def intensity(x, y, z):
        x = np.asarray(x)
        y = np.asarray(y)
        z = np.asarray(z)
        u = 2.0 * (x**2 + y**2) / W2
        phi = np.arctan2(y, x)
        return (u**ell * np.exp(-u)
                * np.cos(ell * (phi - phi_offset)) ** 2
                * np.cos(k * (z - z_offset)) ** 2)

    # transverse integral (pi W^2 / 4) * l!, axial factor d
    norm = math.pi * W2 / 4.0 * math.factorial(ell) * cfg.length_d
    return ModeField(f"LG{ell}0-pair", intensity, norm, azimuthal_order=ell)


# ---------------------------------------------------------------------------
# perturbative shift by adaptive quadrature
# ---------------------------------------------------------------------------

_MAX_NODES = 192


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge to the requested tolerance."""


def _gauss_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _sphere_overlap(mode: ModeField, body: BodyGeometry, n: int) -> float:
    """int_sphere |phi0|^2 dV with an n^3 product rule in spherical coords."""
    R = body.shape.radius
    x0, y0, z0 = body.center
    r, wr = _gauss_nodes(n, 0.0, R)
    th, wth = _gauss_nodes(n, 0.0, math.pi)
    ph, wph = _gauss_nodes(n, 0.0, TWO_PI)
    rg, tg, pg = np.meshgrid(r, th, ph, indexing="ij", sparse=True)
    st = np.sin(tg)
    x = x0 + rg * st * np.cos(pg)
    y = y0 + rg * st * np.sin(pg)
    z = z0 + rg * np.cos(tg)
    vals = mode.intensity(x, y, z) * rg**2 * st
    return float(np.einsum("ijk,i,j,k->", vals, wr, wth, wph))


def _rod_overlap(mode: ModeField, body: BodyGeometry, n: int) -> float:
    """int over both wedges of |phi0|^2 dV, cylindrical product rule."""
    rod: Rod = body.shape
    x0, y0, z0 = body.center
    if abs(x0) > 0.0 or abs(y0) > 0.0:
        raise GeometryError("wedge rod model requires the rod centered on the cavity axis")
    theta = rod.arc_L / rod.radius  # angular width of each wedge
    r, wr = _gauss_nodes(n, 0.0, rod.radius)
    z, wz = _gauss_nodes(max(n // 4, 4), z0 - rod.width_a / 2.0, z0 + rod.width_a / 2.0)
    total = 0.0
    for phi_c in (body.phi, body.phi + math.pi):
        ph, wph = _gauss_nodes(max(n // 4, 4), phi_c - theta / 2.0, phi_c + theta / 2.0)
        rg, pg, zg = np.meshgrid(r, ph, z, indexing="ij", sparse=True)
        x = rg * np.cos(pg)
        y = rg * np.sin(pg)
        vals = mode.intensity(x, y, zg + 0.0 * rg) * rg
        total += float(np.einsum("ijk,i,j,k->", vals, wr, wph, wz))
    return total


def perturbative_shift(mode: ModeField, body: BodyGeometry, eps_r: float,
                       cfg: CavityConfig, rel_tol: float = 1e-6) -> float:
    """Relative resonance shift (omega_c(q) - omega_c0)/omega_c0 of a body.

    Numerator integrated adaptively over the body volume (node count
    doubled until two successive levels agree to ``rel_tol``); denominator
    is the mode's closed-form normalization. Raises QuadratureError if the
    refinement does not converge.
    """
    if eps_r < 1.0:
        raise ValidationError("relative permittivity must be >= 1")
    half_len = body.shape.radius if isinstance(body.shape, Sphere) else body.shape.width_a / 2.0
    if abs(body.center[2]) + half_len > cfg.length_d / 2.0:
        raise GeometryError("body does not fit inside the cavity volume")
    if eps_r == 1.0:
        return 0.0

    overlap = _sphere_overlap if isinstance(body.shape, Sphere) else _rod_overlap
    n = 12
    prev = overlap(mode, body, n)
    while n < _MAX_NODES:
        n *= 2
        cur = overlap(mode, body, n)
        err = abs(cur - prev)
        scale = max(abs(cur), abs(prev))
        if scale == 0.0 or err <= rel_tol * scale:
            return -(eps_r - 1.0) * cur / (2.0 * mode.norm_integral)
        prev = cur
    raise QuadratureError(
        f"overlap quadrature did not reach rel_tol={rel_tol:g} at {n} nodes "
        f"(last change {err/scale:.2e})"
    )


# ---------------------------------------------------------------------------
# swap-protocol moment equations
# ---------------------------------------------------------------------------

def phonon_expectation_moments(p: PulseProtocol, t: float) -> float:
    """Oracle route 2: time-stepped second-moment equations.

    State y = (u_a, u_b, N_aa, N_ab, N_bb): u is the filtered input
    amplitude (du/dt = M u + (f, 0)), N_ij = <x_i^dag x_j> with source
    terms 2 kappa f(t-L) coupling N to u. Integrated with RK45 at tight
    tolerance; returns N_bb(t).
    """
    from scipy.integrate import solve_ivp

    m = np.array([[-p.kappa, -1j * p.g], [-1j * p.g, -p.gamma]], dtype=complex)

    def rhs(t_now, y):
        u = y[0:2]
        n_aa, n_ab, n_bb = y[2], y[3], y[4]
        f_now = float(pulse_envelope(t_now - p.delay_L, p.sigma))
        du = m @ u + np.array([f_now, 0.0], dtype=complex)
        nmat = np.array([[n_aa, n_ab], [np.conj(n_ab), n_bb]], dtype=complex)
        src = np.zeros((2, 2), dtype=complex)
        src[0, :] += 2.0 * p.kappa * f_now * u          # <e_a^dag x_j>
        src[:, 0] += 2.0 * p.kappa * f_now * np.conj(u)  # <x_i^dag e_a>
        dn = np.conj(m) @ nmat + nmat @ m.T + src
        return np.array([du[0], du[1], dn[0, 0], dn[0, 1], dn[1, 1]])

    y0 = np.zeros(5, dtype=complex)
    sol = solve_ivp(rhs, (0.0, t), y0, method="RK45", rtol=1e-10, atol=1e-14,
                    max_step=0.1 / max(p.kappa, p.g, p.sigma))
    return float(np.real(sol.y[4, -1]))


# ---------------------------------------------------------------------------
# 50-digit shadow of the report path
# ---------------------------------------------------------------------------

#: decimal digits of the shadow's arithmetic
SHADOW_DPS = 50
#: the shadow ``math`` module's names besides ``pi`` and ``e``: those the package
#: reads, so that a new one fails the shadow run instead of leaving it in floats
_SHADOW_FUNCTIONS = ("sqrt", "cos", "log1p", "hypot", "isfinite", "isnan", "inf")


def report_fields(case, lift=None) -> dict:
    """``section.key`` -> printed-unit value of every report row of one
    case, ``(preset, axis, value)``, with ``axis`` None for the preset
    itself and a sweep point otherwise; ``lift`` maps the scenario before
    it is evaluated. The levicav modules are looked up at the call."""
    from levicav.scenario import (axis_setter, evaluate_scenario, preset_scenario_dict,
                                  scenario_from_dict)
    preset, axis, value = case
    s = scenario_from_dict(preset_scenario_dict(preset))
    if axis is not None:
        s = axis_setter(s, axis)(value)
    doc = evaluate_scenario(lift(s) if lift else s).to_dict()
    return {f"{section}.{key}": item for section, body in doc.items()
            if isinstance(body, dict) for key, item in body.items()}


def _lift(value):
    """``value`` with every float, in nested records too, as an exact mpf."""
    import mpmath
    if type(value) is float:
        return mpmath.mpf(value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: _lift(getattr(value, f.name))
                                             for f in dataclasses.fields(value)})
    return value


def shadow_main() -> None:
    """The shadow's interpreter: cases as JSON on stdin, and for each the
    ``report_fields`` of the shadowed package as JSON on stdout, every value
    as ``[type name, text]`` (50 digits for a number)."""
    import mpmath
    mpmath.mp.dps = SHADOW_DPS
    shadow = types.ModuleType("math")
    for name in _SHADOW_FUNCTIONS:
        setattr(shadow, name, getattr(mpmath, name))
    shadow.pi, shadow.e = +mpmath.pi, +mpmath.e  # fixed at SHADOW_DPS digits
    for name in [name for name in sys.modules if name.split(".")[0] == "levicav"]:
        del sys.modules[name]  # this module's own imports of the float package
    real = sys.modules["math"]
    sys.modules["math"] = shadow
    try:
        importlib.import_module("levicav.scenario")
    finally:
        sys.modules["math"] = real
    leaked = [name for name, module in list(sys.modules.items())  # no module __getattr__ runs
              if name.split(".")[0] != "levicav"
              and getattr(module, "__dict__", {}).get("math") is shadow]
    if leaked:
        raise RuntimeError(f"modules outside levicav took the shadow math: {leaked}")

    def text(value):
        if isinstance(value, (float, mpmath.mpf)):
            return [type(value).__name__, mpmath.nstr(value, SHADOW_DPS)]
        return [type(value).__name__, repr(value)]

    cases = json.load(sys.stdin)
    json.dump([{key: text(value) for key, value in report_fields(case, _lift).items()}
               for case in cases], sys.stdout)


def shadow_reports(cases: list) -> list[dict]:
    """``report_fields`` of each case from the 50-digit shadow, run in a
    fresh interpreter so that the caller's modules keep the real ``math``:
    ``section.key`` -> ``[type name, text]``."""
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", "import oracles; oracles.shadow_main()"],
                          input=json.dumps(cases), capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    if proc.returncode != 0:
        raise RuntimeError(f"shadow run failed:\n{proc.stderr}")
    return json.loads(proc.stdout)

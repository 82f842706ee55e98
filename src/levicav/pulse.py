"""Single-photon swap protocol: linear input-output dynamics of the cavity
field and the mechanical mode.

After the red-sideband rotating-wave step the envelope operators obey the
linear pair

    da/dt = -kappa a - i g b + sqrt(2 kappa) a_in(t)
    db/dt = -gamma b - i g a + sqrt(2 gamma) b_in(t)

driven by a single photon whose spectral amplitude is Gaussian with 1/e
half-width sigma (angular), delayed by L. The optical carrier phases are
absorbed analytically, so the only input statistics that survive are

    <a_in(t)> = 0
    <a_in^dag(t) a_in(t')> = f(t - L) f(t' - L)

with f(t) = (sigma^2/2 pi)^{1/4} exp(-sigma^2 t^2 / 4), normalized to one
photon. Because the dynamics are linear and the input is a single photon,
the phonon expectation is exactly

    <b^dag b>(t) = 2 kappa | int_0^t G_ba(t - s) f(s - L) ds |^2

where G_ba is the impulse response of the pair; no Fock-space truncation
is involved, and <b>(t) = 0 identically. Inside the pulse window the
convolution has a closed form in the Faddeeva function, with an even series
at critical coupling; after it the state is propagated by exp(M tau),
M = [[-kappa, -ig], [-ig, -gamma]] (``_sorted_filtered_input``). The output field
reads u_a, on the complex form's rounding; the trace reads v_b = i u_b, in
real arithmetic: Faddeeva's w on one vertical line, as w(-conj z) =
conj w(z), and one damped sinusoid past the window.
This is the numpy route, for callers that trace many protocols in one
process. Its v_b is ``levicav.swap.vb_values`` on numpy arrays: the forms
of v_b, like the rules (window, series rule, grid, checks), are written
once there, for this route and the scalar route that ``levicav trace`` runs.
A direct quadrature of the Green's function against the input, one
Gauss-Legendre sum squared as one photon's correlation is a product, is
an independent route to the same quantity; the time-stepped second-moment
equations, a second one, are a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import operator
import sys
import types
import weakref

import numpy as np

from .errors import NoSwapError, NumericalError, ValidationError
from .records import record
from .swap import (SCALAR, SERIES_TERMS, ProtocolRules, Route, check_trace, grid_error,
                   interp_error, not_finite, pulse_window, range_error, series_span,
                   uniform_grid, vb_values, window)

__all__ = [
    "PulseProtocol",
    "PhononTrace",
    "SuperpositionState",
    "pulse_envelope",
    "greens_ba",
    "phonon_trace",
    "phonon_expectation_direct",
    "output_field_envelope",
    "refined_peak",
    "conditional_superposition",
    "amplification_envelope",
]


@record
class PulseProtocol(ProtocolRules):
    """Rates, pulse shape, and time grid for one protocol run.

    ``omega_t`` is optional bookkeeping, set when the protocol is
    assembled from a trapped-object scenario; the rotating-wave step
    behind these equations needs omega_t >> g, which ``rwa_valid``
    records (None when the trap frequency is unknown). The checks and the
    flag are ``levicav.swap.ProtocolRules``', shared with the CLI's
    ``SwapProtocol``.
    """

    g: float        # rad/s
    kappa: float    # rad/s
    gamma: float    # rad/s
    sigma: float    # rad/s, 1/e amplitude half-width of the spectrum
    delay_L: float  # s, pulse-center arrival time
    t_grid: np.ndarray  # s, strictly increasing
    omega_t: float | None = None  # rad/s, trap frequency if known

    def __post_init__(self) -> None:
        self._check_rates()
        if _CHECKED_GRIDS.get(id(self.t_grid)) is not self.t_grid:
            grid = np.asarray(self.t_grid, dtype=float)
            error = _grid_error(grid)
            if error:
                raise ValidationError(error)
            object.__setattr__(self, "t_grid", grid)

    @classmethod
    def standard(cls, g: float, kappa: float, gamma: float = 0.0,
                 sigma_over_kappa: float = 5.6, delay_kappa: float = 5.0,
                 t_max_kappa: float = 20.0, n_points: int = 2000) -> "PulseProtocol":
        """Default grid t in [0, t_max/kappa] with the usual pulse settings."""
        return cls(g=g, kappa=kappa, gamma=gamma, sigma=sigma_over_kappa * kappa,
                   delay_L=delay_kappa / kappa, t_grid=_uniform_grid(t_max_kappa / kappa, n_points))


#: the grids ``_uniform_grid`` built and found valid, by id, held weakly: a
#: protocol on one of them skips the two full-grid scans of ``_grid_error``
_CHECKED_GRIDS = weakref.WeakValueDictionary()


def _grid_error(grid: np.ndarray) -> str | None:
    """Why ``grid`` cannot be a protocol's time grid, or None (``swap.grid_error``)."""
    return grid_error(grid.tolist() if grid.ndim == 1 else None)


@functools.lru_cache(maxsize=8)
def _uniform_grid(t_max: float, n_points: int) -> np.ndarray:
    """``swap.uniform_grid``, np.linspace(0, t_max, n_points) bit for bit, shared
    read-only between protocols and checked once, here; an invalid one is left to
    raise in every protocol."""
    times = uniform_grid(t_max, n_points)
    grid = np.array(times)
    grid.flags.writeable = False
    if grid_error(times) is None:
        _CHECKED_GRIDS[id(grid)] = grid
    return grid


@record
class PhononTrace:
    """Phonon expectation over the time grid, with its grid maximum."""

    times: np.ndarray     # s
    n_phonon: np.ndarray  # <b^dag b>(t)
    peak_time: float      # s, grid argmax
    peak_value: float     # max over the grid


@record
class SuperpositionState:
    """Conditional mechanical state c0|0> + c1|1> after homodyne outcome x_L."""

    c0: complex
    c1: complex
    measurement_xL: float
    displacement: float


def pulse_envelope(t, sigma: float):
    """Single-photon temporal amplitude, int |f|^2 dt = 1."""
    t = np.asarray(t, dtype=float)
    return (sigma**2 / (2.0 * math.pi)) ** 0.25 * np.exp(-sigma**2 * t**2 / 4.0)


def greens_ba(tau, g: float, kappa: float, gamma: float):
    """Mechanical response [exp(M tau)]_{b,a} to a unit cavity kick.

    M = [[-kappa, -ig], [-ig, -gamma]]; the hyperbolic rate
    nu = sqrt(((kappa-gamma)/2)^2 - g^2) is taken complex so under- and
    over-damped cases share one expression.
    """
    tau = np.asarray(tau, dtype=float)
    half_sum = 0.5 * (kappa + gamma)
    nu = complex(np.sqrt(complex((0.5 * (kappa - gamma)) ** 2 - g**2)))
    phase = np.exp(-half_sum * tau)
    x = nu * tau
    small = np.abs(x) < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        shc = np.where(small, tau, np.sinh(np.where(small, 0.0, x)) / np.where(small, 1.0, nu))
    return -1j * g * phase * shc


def _import_bare(name: str, packages: tuple[str, ...]):
    """Module ``name``, imported with a bare stand-in (the real ``__path__``
    and spec, nothing run) in sys.modules for each of ``packages`` not yet
    loaded, so no package ``__init__`` runs; the stand-ins are dropped on
    return or failure."""
    placed = []
    try:
        for package in packages:
            if package not in sys.modules:
                spec = importlib.util.find_spec(package)
                stub = types.ModuleType(package)
                stub.__path__, stub.__spec__ = spec.submodule_search_locations, spec
                sys.modules[package] = stub
                placed.append(stub)
        __import__(name)  # not importlib.import_module: -X importtime lists this
        return sys.modules[name]
    finally:
        for stub in placed:
            if sys.modules.get(stub.__name__) is stub:
                del sys.modules[stub.__name__]


@functools.cache
def _faddeeva():
    """scipy's ufuncs ``wofz`` and ``erfcx``, bound together on first use.

    ``from scipy.special import wofz`` runs ``scipy/__init__`` and
    ``scipy/special/__init__``, whose array-API layer loads numpy.f2py,
    numpy.random, numpy.ma and numpy.testing. Where ``scipy.special`` is not
    loaded yet, the ufuncs are taken from the extension that defines them:
    ``scipy.special._special_ufuncs``, which imports no scipy module, under
    stand-ins for both packages; on releases where that module lacks one of
    them, ``scipy.special._ufuncs`` under a stand-in for ``scipy.special``
    alone. Neither stand-in nor the ``_special_ufuncs`` entry stays in
    sys.modules, so a later ``import scipy.special`` runs in full, re-creates
    that module as its attribute and hands out these same objects. Any
    failure takes the ordinary import.
    """
    if "scipy.special" not in sys.modules:
        try:
            module = _import_bare("scipy.special._special_ufuncs", ("scipy", "scipy.special"))
            return module.wofz, module.erfcx
        except Exception:
            pass
        finally:
            sys.modules.pop("scipy.special._special_ufuncs", None)
        try:
            module = _import_bare("scipy.special._ufuncs", ("scipy.special",))
            return module.wofz, module.erfcx
        except Exception:
            pass
    from scipy.special import erfcx, wofz
    return wofz, erfcx


def _wofz():
    """scipy.special.wofz, as ``_faddeeva`` binds it."""
    return _faddeeva()[0]


def _erfcx():
    """scipy.special.erfcx, as ``_faddeeva`` binds it."""
    return _faddeeva()[1]


def _gaussian_convolution(lam: complex, t: np.ndarray, lo: float, p: PulseProtocol) -> np.ndarray:
    """int_lo^t exp(lam (t-s)) exp(-sigma^2 (s-L)^2 / 4) ds for times
    lo < t <= hi inside the pulse window, in any order, and Re lam <= 0.

    Completing the square gives the antiderivative
    -sqrt(pi)/sigma exp(lam (t-L) + lam^2/sigma^2) erfc(z_s) with
    z_s = sigma (s-L)/2 + lam/sigma. Through the Faddeeva function,
    erfc(z) = exp(-z^2) w(iz), it reads -sqrt(pi)/sigma e_s w(i z_s) with
    e_s = exp(lam (t-s) - sigma^2 (s-L)^2 / 4), |e_s| <= 1. Where
    Re z_s < 0 the reflection erfc(z) = 2 - erfc(-z) keeps w's argument in
    the upper half plane; its constant cancels unless the limits straddle
    Re z = 0, and there it is bounded by the integrand. w depends on s
    alone: it is evaluated once at lo and once at each t. A real lam (the
    overdamped lam+-, the critical series' -h) makes i z_s imaginary, and
    Faddeeva's w(iy) returns erfcx(y) itself, so the real ufunc gives w's
    bits; e_s keeps lam's type, as complex and real exp can differ by an ulp.
    """
    sigma, delay = p.sigma, p.delay_L
    if lam.imag == 0.0:
        w, shift = _erfcx(), lam.real / sigma
    else:
        wofz = _wofz()
        w, shift = (lambda z: wofz(1j * z)), lam / sigma
    z_lo = 0.5 * sigma * (lo - delay) + shift
    reflected_lo = z_lo.real < 0.0
    w_lo = w(-z_lo if reflected_lo else z_lo)
    # products out of place: numpy's in-place complex product of a
    # one-element array can round differently
    out = np.exp(lam * (t - lo) - 0.25 * sigma**2 * (lo - delay) ** 2) * (
        -w_lo if reflected_lo else w_lo)
    s = t - delay
    z = 0.5 * sigma * s + shift
    reflected = z.real < 0.0
    np.negative(z, out=z, where=reflected)
    term = np.exp(lam * 0.0 - 0.25 * sigma**2 * s**2) * w(z)  # complex exp for complex lam
    np.negative(term, out=term, where=reflected)
    out -= term
    if reflected_lo:
        straddle = ~reflected
        out[straddle] += 2.0 * np.exp(lam * s[straddle] + lam**2 / sigma**2)
    out *= math.sqrt(math.pi) / sigma
    return out


def _in_order(route, p: PulseProtocol, times) -> np.ndarray:
    """``route`` at ``times`` of any shape, run on them sorted (each value depends on its own
    time alone, and window and tail are then slices); ascending times are taken as they are.
    A NaN time sorts last and raises NumericalError."""
    t = np.asarray(times, dtype=float)
    flat, out = t.ravel(), np.empty(t.shape)
    order = slice(None) if (flat[1:] >= flat[:-1]).all() else flat.argsort(kind="stable")
    if flat.size and math.isnan(flat[order][-1]):
        raise NumericalError("filtered input requested at a NaN time")
    out.flat[order] = route(p, flat[order])
    return out


def _sorted_vb(p: PulseProtocol, t: np.ndarray) -> np.ndarray:
    """v_b at 1-D ascending times: ``swap.vb_values`` on numpy arrays."""
    return vb_values(p, t, _route(_wofz(), _erfcx()))


def _pieces(x: np.ndarray, below: tuple, above: tuple):
    """``below`` where x < 0, else ``above``: rows split by searchsorted at ascending x."""
    k = int(x.searchsorted(0.0))
    if 0 < k < x.size:
        rows = np.empty((len(below), x.size))
        rows[:, :k], rows[:, k:] = np.array(below)[:, None], np.array(above)[:, None]
        return rows
    return below if k else above


@functools.lru_cache(maxsize=4)
def _route(wofz, erfcx) -> Route:
    """``swap.Route`` on numpy arrays with scipy's ``wofz`` and ``erfcx`` (``1j * y + x``
    is exact), and searchsorted slices; at one float time, ``swap.SCALAR`` with those two."""
    floats = Route(**vars(SCALAR) | dict(erfcx=lambda y: float(erfcx(y)),
                                         w=lambda x, y: complex(wofz(complex(x, y)))))
    return Route(exp=np.exp, sin=np.sin, expm1=np.expm1, erfcx=erfcx,
                 w=lambda x, y: wofz(1j * y + x), zeros=np.zeros,
                 index=lambda t, value, right: int(t.searchsorted(value, "right" if right
                                                                  else "left")),
                 each=lambda f, t: f(t), pieces=_pieces,
                 cuts=lambda mask: (np.flatnonzero(mask[1:] != mask[:-1]) + 1).tolist(),
                 floats=floats)


def _sorted_filtered_input(p: PulseProtocol, t: np.ndarray) -> np.ndarray:
    """u_a at 1-D ascending times, on the complex form's rounding, where
    (u_a, u_b)(t) = int_0^t exp(M(t-s)) (f(s-L), 0) ds and v_b = i u_b.

    With h = (kappa+gamma)/2, d = (kappa-gamma)/2 and nu = sqrt(d^2 - g^2),
    exp(M tau) has the eigenvalues lam+- = -h +- nu and

        G_aa = (1 - d/nu)/2 e^{lam+ tau} + (1 + d/nu)/2 e^{lam- tau}
        G_ba = -i g (e^{lam+ tau} - e^{lam- tau}) / (2 nu)

    G_aa and i G_ba are real, so u_a and v_b are. Both are sums of the
    ``_gaussian_convolution`` terms P+- of lam+-; underdamped, lam- = conj(lam+)
    and P- = conj(P+), so P+ alone serves. Near critical coupling (nu -> 0)
    the differences cancel; there the even series
    cosh(nu tau) = sum nu^2m tau^2m/(2m)!,
    sinh(nu tau)/nu = sum nu^2m tau^(2m+1)/(2m+1)! is summed over the
    moments J_k = int_lo^t tau^k e^{-h tau} f ds (``_series``), which obey

        J_{k+1} = alpha J_k + k beta J_{k-1} + beta N [tau^k e^{-h tau - sigma^2 (s-L)^2/4}]_lo^t

    (alpha = t - L - h beta, beta = 2/sigma^2, N the norm of f). The series
    needs |nu| tau small over the window; the recurrence's coefficients set
    how fast its rounding grows, so they join that span. The span is at
    least (L + h beta - lo) + sqrt(2 K beta), so where |nu| times that
    bound is clearly above 1 the series is ruled out with no per-time test.

    u_a is 0 up to lo (all of it if the window closes by t = 0); in (lo, hi)
    ``_ua_window`` writes it, norm N included, and returns the pair (u_a, v_b) at hi,
    with rates (h, d, nu^2, nu, beta, N). The input has ended by hi, so u_a at t >= hi
    is exp(M (t - hi)) u(hi). The window, the pulse-area kick where it collapses, the
    series rule and K are ``levicav.swap``'s, whose ``vb_values`` forms v_b on either
    route by these equations.
    """
    out = np.zeros(t.size)
    lo, hi, pair, rates, reach = window(p)
    if hi <= 0.0:
        return out
    after = slice(t.searchsorted(hi), None)  # t >= hi
    if pair is None:
        pair = _ua_window(p, t, lo, hi, rates, reach, out, after.start)
    (ua0, vb0), (c, s) = pair, _free_evolution(p, t[after] - hi)
    out[after] = (c - 0.5 * (p.kappa - p.gamma) * s) * ua0 - (p.g * s) * vb0
    return out


def _series(moments, nu2: float, beta: float):
    """(cosh part, sinh part) of u_a's critical-coupling series at its times, the sums of
    nu^(2 floor(k/2))/k! J_k over even and odd k, with the boundary term tau_lo^k edge_lo
    by np.power, whose rounding u_a keeps; each step updates the moments in place by the
    operations of the recurrence as written."""
    al, tau_lo, edge, edge_t, j = moments
    j, j_prev, step = j.copy(), np.zeros(j.size), np.empty(j.size)
    even, odd, weight = np.zeros(j.size), np.zeros(j.size), 1.0
    for k in range(2 * SERIES_TERMS - 1):  # the last term, J_{2K-1}, after the loop
        part = odd if k % 2 else even
        np.multiply(j, weight, out=step)
        part += step
        weight *= (nu2 if k % 2 else 1.0) / (k + 1)
        bound = tau_lo**k * edge
        np.multiply(j_prev, k * beta, out=j_prev)
        np.multiply(al, j, out=step)
        step += j_prev
        np.subtract(edge_t if k == 0 else 0.0, bound, out=j_prev)
        j_prev *= beta
        step += j_prev
        j_prev, j, step = j, step, j_prev
    np.multiply(j, weight, out=step)
    odd += step
    return even, odd


def _ua_window(p, t, lo, hi, rates, reach, out, after: int):
    """u_a at the times lo < t < hi of ``t[:after]`` into ``out``, and (u_a, v_b) at
    hi: complex exp for complex rates, tau^k by np.power, products grouped as numpy's
    complex division by 2 nu rounded them."""
    inside = slice(t.searchsorted(lo, "right"), after)
    h, d, nu2, nu, beta, norm = rates
    t_live = np.append(t[inside], hi)
    ua, rest = np.empty(t_live.size), slice(None)
    if reach is not None:
        alpha, mask = series_span(p, t_live, lo, nu, h, beta, reach)
        if mask.any():  # J_0 and the boundary terms at lo and, for k = 0 alone, at t
            ts = t_live[mask]
            tau_lo = ts - lo
            cosh, sinh = _series((
                alpha[mask], tau_lo,
                np.exp(-h * tau_lo - 0.25 * p.sigma**2 * (lo - p.delay_L) ** 2),
                np.exp(-0.25 * p.sigma**2 * (ts - p.delay_L) ** 2),
                _gaussian_convolution(-h, ts, lo, p).real), nu2, beta)
            ua[mask], vb_hi, rest = cosh - d * sinh, p.g * sinh[-1], ~mask
    tr = t_live[rest]
    if tr.size:
        plus = _gaussian_convolution(-h + nu, tr, lo, p)
        if nu2 < 0.0:  # P- = conj(P+): (P+ - P-)/(2 nu) = Im P+ / omega
            mean, dif, inv = plus.real, plus.imag, 1.0 / nu.imag
        else:
            minus = _gaussian_convolution(-h - nu, tr, lo, p).real
            mean, dif, inv = 0.5 * (plus.real + minus), plus.real - minus, 1.0 / (2.0 * nu.real)
        ua[rest] = mean - (d * dif) * inv  # inv last, as complex division rounds
        if tr[-1] == t_live[-1]:
            vb_hi = (p.g * dif[-1]) * inv
    np.multiply(ua[:-1], norm, out=out[inside])
    return norm * ua[-1], norm * vb_hi


def _free_evolution(p: PulseProtocol, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(M tau) = [[c - d s, -i g s], [-i g s, c + d s]] as (c, s) = e^{-h tau}
    (cosh, sinh/nu)(nu tau), dividing no difference by nu: cos and sin/omega for nu = i omega;
    e^{(nu-h) tau} with expm1(-2 nu tau) for real nu <= h, which cannot overflow; (1, tau) at 0."""
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2 = d * d - p.g * p.g
    if nu2 < 0.0:
        omega = math.sqrt(-nu2)
        decay, phase = np.exp(-h * tau), omega * tau
        c, s = np.cos(phase) * decay, np.sin(phase, out=phase)
        s *= decay
        s /= omega
    elif nu2 > 0.0:
        nu = math.sqrt(nu2)
        decay, em = np.exp((nu - h) * tau), np.expm1(-2.0 * nu * tau)
        c, s = decay * (1.0 + 0.5 * em), decay * em / (-2.0 * nu)
    else:
        c = np.exp(-h * tau)
        s = tau * c
    return c, s


def _finite(quantity: str, compute, scan: bool = True) -> np.ndarray:
    """compute(), or NumericalError where it is out of range or, with
    ``scan``, not finite (values >= 0 need no scan: their argmax is the
    first NaN or inf, if any, and the caller checks that one)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            values = compute()
    except (OverflowError, ZeroDivisionError, ValueError) as exc:  # math's range and domain
        raise range_error(quantity, exc) from exc
    if scan and not np.isfinite(values).all():
        raise not_finite(quantity)
    return values


def phonon_trace(p: PulseProtocol) -> PhononTrace:
    """<b^dag b>(t) on the protocol grid for the single-photon input.

    Raises NumericalError when the trace cannot be formed in floating
    point, is not finite or has underflowed, and GridError when the grid is
    too coarse to sample it (``swap.check_trace``, which the CLI's scalar
    route shares).
    """
    def n_phonon():
        # PulseProtocol proved t_grid finite and increasing: no sort to undo
        n = _sorted_vb(p, p.t_grid)
        n *= n
        n *= 2.0 * p.kappa
        return n

    def error():
        t = p.t_grid
        if _CHECKED_GRIDS.get(id(t)) is t:  # one step, t_max/(n-1): |n0 - 2 n1 + n2|/8
            step = n[1:] - n[:-1]  # np.diff(n, 2) without its call overhead
            return float(np.abs(step[1:] - step[:-1]).max()) / 8.0
        return float(interp_error(n[:-2], n[1:-1], n[2:], t[:-2], t[1:-1], t[2:],
                                  np.maximum).max())

    n = _finite("phonon trace", n_phonon, scan=False)
    i = int(n.argmax())  # n >= 0: the first NaN or inf, if any
    peak = float(n[i])
    check_trace(p, peak, error)
    return PhononTrace(times=p.t_grid, n_phonon=n,
                       peak_time=float(p.t_grid[i]), peak_value=peak)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's method
    on P_n's three-term recurrence from cos(pi (k - 1/4)/(n + 1/2)), as a sine
    so odd n has an exact 0, for x >= 0, mirrored. w = 2/((1 - x^2) P_n'^2)
    moves by 2x/(1 - x^2) of a node's shift, so the last Newton step carries
    it to the exact node: taken at the rounded node, it is 2.7e-12 off at n = 400."""
    if operator.index(n) < 1:
        raise ValidationError("n_nodes must be at least 1")
    x, dx = np.sin(np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1)), 1.0
    while np.abs(dx).max() > 1e-12:
        p0, p1 = np.ones_like(x), x  # P_{j-1}, P_j
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        one_x2 = (1.0 - x) * (1.0 + x)  # 1 - x*x would lose digits near 1
        dp = n * (p0 - x * p1) / one_x2
        dx = p1 / dp
        x = x - dx
    w = 2.0 / (one_x2 * dp * dp) * (1.0 + 2.0 * (x + dx) * dx / one_x2)
    x, w = np.concatenate((-x[: n // 2], x[::-1])), np.concatenate((w[: n // 2], w[::-1]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def phonon_expectation_direct(p: PulseProtocol, t: float, n_nodes: int = 160) -> float:
    """Oracle route: direct Gauss-Legendre quadrature over the pulse window up
    to t. One photon's input correlation f(s-L) f(s'-L) is a product, so the
    double sum of G_ba(t-s)* G_ba(t-s') against it on the nodes factors exactly
    into 2 kappa |sum_j w_j G_ba(t-s_j) f(s_j-L)|^2."""
    lo, hi = pulse_window(p)
    lo, hi = max(lo, 0.0), min(hi, t)
    if hi <= lo:
        return 0.0
    x, w = _gauss_legendre(n_nodes)
    half = 0.5 * (hi - lo)
    s = lo + half * (x + 1.0)
    amp = np.sum(half * w * greens_ba(t - s, p.g, p.kappa, p.gamma)
                 * pulse_envelope(s - p.delay_L, p.sigma))
    return float(2.0 * p.kappa * (amp.real * amp.real + amp.imag * amp.imag))


def output_field_envelope(p: PulseProtocol, times: np.ndarray) -> np.ndarray:
    """Amplitude of the output mode a_out = sqrt(2 kappa) a - a_in.

    The intracavity amplitude is sqrt(2 kappa) u_a with u_a the filtered
    input, so the envelope is the real 2 kappa u_a(t) - f(t - L). For a lossless
    protocol the emitted quanta int |.|^2 dt recover the input photon.
    """
    return _finite("output field",
                   lambda: 2.0 * p.kappa * _in_order(_sorted_filtered_input, p, times)
                   - pulse_envelope(np.asarray(times) - p.delay_L, p.sigma))


def refined_peak(trace: PhononTrace) -> tuple[float, float]:
    """(t*, n(t*)): the vertex of the parabola through the grid argmax and
    its neighbours; the grid point itself at either end of the grid.

    A flat all-zero trace has no swap and raises NoSwapError.
    """
    n = trace.n_phonon
    i = int(n.argmax())
    if trace.peak_value <= 0.0 or not n[i] > 0.0:
        raise NoSwapError("phonon trace is identically zero: no swap occurs")
    if i == 0 or i == n.size - 1:
        return float(trace.times[i]), float(n[i])
    # Python floats: the IEEE operations of numpy's scalars, without their overhead
    t0, t1, t2 = trace.times[i - 1: i + 2].tolist()
    y0, y1, y2 = n[i - 1: i + 2].tolist()
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0.0:
        return t1, y1
    # uniform-step parabola vertex
    h = 0.5 * (t2 - t0)
    return t1 + 0.5 * h * (y0 - y2) / denom, y1 - 0.125 * (y0 - y2) ** 2 / denom


def conditional_superposition(x_L: float, displacement: float) -> SuperpositionState:
    """Conditional state after a homodyne outcome x_L on the output light.

    The output-light branches are the displaced vacuum and displaced
    one-photon states; projecting on |x_L> weights the mechanical Fock
    components by the displaced wavefunctions:

        c0 ~ psi_1(x_L - D),  c1 ~ psi_0(x_L - D)

    Normalization is analytic (psi_1 = sqrt(2) u psi_0 with u the offset
    coordinate), so |c0|^2 + |c1|^2 = 1 holds exactly for any outcome.
    """
    if displacement < 0.0:
        raise ValidationError("displacement must be non-negative")
    u = x_L - displacement
    norm = math.sqrt(1.0 + 2.0 * u * u)
    return SuperpositionState(c0=complex(math.sqrt(2.0) * u / norm),
                              c1=complex(1.0 / norm),
                              measurement_xL=x_L, displacement=displacement)


def amplification_envelope(g: float, kappa: float, q_m: float, omega_t: float, t):
    """Blue-detuned amplification of the mechanical oscillation.

    mu(t) = exp(-kappa t/2) (cosh(chi t) + kappa sinh(chi t)/(2 chi)) with
    chi = sqrt(g^2 + kappa^2/4); the mean position is q_m mu(t) cos(omega_t t).
    Returns (mu, q_mean), vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValidationError("time must be non-negative")
    chi = math.sqrt(g * g + kappa * kappa / 4.0)
    if chi == 0.0:
        mu = np.ones_like(t)
    else:
        mu = np.exp(-kappa * t / 2.0) * (np.cosh(chi * t)
                                         + kappa * np.sinh(chi * t) / (2.0 * chi))
    q_mean = q_m * mu * np.cos(omega_t * t)
    return mu, q_mean

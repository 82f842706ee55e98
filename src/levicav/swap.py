"""The swap protocol's records, rules and forms, and its phonon trace without numpy.

``levicav.pulse`` traces on numpy arrays, for callers that trace many
protocols in one process, such as a swap map. A ``levicav trace`` process
traces once, and importing numpy would cost it more than the trace, so the
CLI takes the scalar route here, one grid time at a time in Python floats.
Both routes take from here their records (``PulseProtocol``, on an array
or a tuple grid, and ``PhononTrace``), every rule they follow (the rate
checks, the uniform grid and its check, the pulse window and kick, the
series rule and its K, the checks of a trace) and every form of v_b =
i u_b, each a function of a time that is a float or an array and of a
``Route``'s named functions, which ``vb_values`` runs on either route.

Faddeeva's w(z) = e^{-z^2} erfc(-iz) is Weideman's rational approximation
(SIAM J. Numer. Anal. 31, 1497, 1994) with N = 48 terms,

    w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)),  Z = (L + iz)/(L - iz),

L = sqrt(N/sqrt(2)), for Im z >= 0, where scipy's ``wofz`` serves the
numpy route; the same form in real arithmetic gives erfcx(y) = w(iy) for
y >= 0. Beyond |z| = 1e8 it takes the first term of the asymptotic series,
w(z) = i/(sqrt(pi) z), which is then good to 1/(2|z|^2).
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
import weakref
from itertools import islice
from types import SimpleNamespace

from .errors import GridError, NumericalError, ValidationError
from .records import record

__all__ = ["PulseProtocol", "PhononTrace", "phonon_trace", "faddeeva", "erfcx"]


#: the grids ``levicav.pulse._uniform_grid`` built and found valid, by id, held
#: weakly: a protocol on one of them skips the two full-grid scans of ``grid_error``
_CHECKED_GRIDS = weakref.WeakValueDictionary()


@record
class PulseProtocol:
    """Rates, pulse shape, and time grid for one protocol run on either route:
    an array grid (with ``__array__``) as ``np.asarray(t_grid, dtype=float)``,
    any other as a tuple of floats. ``omega_t``, the trap frequency, is set
    from a trapped-object scenario; the rotating-wave step needs omega_t >> g,
    which ``rwa_valid`` records (None when omega_t is unknown)."""

    #: factor defining "much greater" for the rotating-wave check
    RWA_FACTOR = 10.0

    g: float        # rad/s
    kappa: float    # rad/s
    gamma: float    # rad/s
    sigma: float    # rad/s, 1/e amplitude half-width of the spectrum
    delay_L: float  # s, pulse-center arrival time
    t_grid: np.ndarray  # s, strictly increasing, array or tuple; the annotation hides it in repr
    omega_t: float | None = None  # rad/s, trap frequency if known

    def __post_init__(self) -> None:
        for name in ("g", "kappa", "gamma", "sigma", "delay_L"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("g", "gamma"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be non-negative")
        for name in ("kappa", "sigma"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive")
        if self.omega_t is not None and not (math.isfinite(self.omega_t) and self.omega_t > 0.0):
            raise ValidationError("omega_t must be finite and positive")
        grid = self.t_grid
        if _CHECKED_GRIDS.get(id(grid)) is grid:
            return
        if hasattr(grid, "__array__"):
            import numpy as np
            grid = np.asarray(grid, dtype=float)
            error = grid_error(grid.tolist() if grid.ndim == 1 else None)
        else:
            try:
                grid = tuple(map(float, grid))
            except TypeError:  # a number, or a sequence of sequences: not 1-D
                grid = None
            error = grid_error(grid)
        if error:
            raise ValidationError(error)
        object.__setattr__(self, "t_grid", grid)

    @classmethod
    def standard(cls, g: float, kappa: float, gamma: float = 0.0,
                 sigma_over_kappa: float = 5.6, delay_kappa: float = 5.0,
                 t_max_kappa: float = 20.0, n_points: int = 2000) -> "PulseProtocol":
        """A ``pulse._uniform_grid`` grid t in [0, t_max/kappa], the usual pulse settings."""
        from .pulse import _uniform_grid
        return cls(g=g, kappa=kappa, gamma=gamma, sigma=sigma_over_kappa * kappa,
                   delay_L=delay_kappa / kappa, t_grid=_uniform_grid(t_max_kappa / kappa, n_points))

    @property
    def rwa_valid(self):
        """True when omega_t >= RWA_FACTOR * g; None if omega_t unknown."""
        if self.omega_t is None:
            return None
        if self.g == 0.0:
            return True
        return self.omega_t >= self.RWA_FACTOR * self.g


@record
class PhononTrace:
    """Phonon expectation over the time grid, with its grid maximum: arrays on
    the numpy route, tuples of floats on the scalar route."""

    times: np.ndarray     # s
    n_phonon: np.ndarray  # <b^dag b>(t)
    peak_time: float      # s, grid argmax
    peak_value: float     # max over the grid


def uniform_grid(t_max: float, n_points: int) -> list:
    """The times of np.linspace(0, t_max, n_points), bit for bit where they make a
    grid: i step with step = t_max/(n-1), or (i/(n-1)) t_max where step underflows
    to 0, and t_max itself last."""
    div = n_points - 1
    if div <= 0:
        return [0.0] * max(n_points, 0)
    step = t_max / div
    times = [i / div * t_max for i in range(div)] if step == 0.0 else [i * step for i in range(div)]
    times.append(t_max)
    return times


def grid_error(times) -> str | None:
    """Why ``times``, a sequence of floats (None for an array that is not
    1-D), cannot be a protocol's time grid, or None."""
    if times is not None and not all(map(math.isfinite, times)):
        return "t_grid must be finite"
    if times is None or len(times) < 3 or not all(
            map(operator.lt, times, islice(times, 1, None))):
        return "t_grid must be a strictly increasing 1-D array"
    return None


def pulse_window(p) -> tuple[float, float]:
    """(lo, hi) = L -+ 10/sigma: the Gaussian is negligible (< 1e-22) beyond
    10/sigma of its center."""
    return p.delay_L - 10.0 / p.sigma, p.delay_L + 10.0 / p.sigma


#: terms kept of each critical-coupling series; where |nu| span <= 1 the
#: dropped terms are below 1/(2 SERIES_TERMS)! of the window's J_0 scale
SERIES_TERMS = 12


def window(p):
    """``(lo, hi, pair, rates, reach)``: the pulse window of the filtered input
    and how it is formed (``levicav.pulse._sorted_filtered_input`` has the
    equations).

    ``pair`` is (u_a, v_b)(hi) where the window needs no time of its own:
    (0, 0) where it closes by t = 0 (hi <= 0), and the pulse-area kick
    u(hi) = ((8 pi/sigma^2)^{1/4}, 0), good to O(kappa/sigma), where rounding
    of L cuts a side below 9/sigma (down to lo = hi = L); there ``rates`` and
    ``reach`` are None. Otherwise ``pair`` is None, lo is clipped at 0, and
    ``rates`` = (h, d, nu^2, nu, beta, N). ``reach`` = sqrt(2 K beta) is None
    where the series is ruled out for the whole window: its span is at least
    (L + h beta - lo) + reach, and |nu| times that bound is clearly above 1.
    """
    lo, hi = pulse_window(p)
    if hi <= 0.0:
        return lo, hi, (0.0, 0.0), None, None
    if min(hi - p.delay_L, p.delay_L - lo) < 9.0 / p.sigma:
        return lo, hi, ((8.0 * math.pi / p.sigma**2) ** 0.25, 0.0), None, None
    lo = max(lo, 0.0)
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2 = d * d - p.g * p.g
    nu = cmath.sqrt(nu2)
    beta = 2.0 / p.sigma**2
    reach = math.sqrt(2 * SERIES_TERMS * beta)
    # 1e-12 covers the rounding of span and of its bound, a few ulps each
    if abs(nu) * (p.delay_L + h * beta - lo + reach) > 1.0 + 1e-12:
        reach = None
    norm = (p.sigma**2 / (2.0 * math.pi)) ** 0.25
    return lo, hi, None, (h, d, nu2, nu, beta, norm), reach


def series_span(p, t, lo: float, nu: complex, h: float, beta: float, reach: float):
    """``(alpha, holds)`` at window time(s) t, floats or arrays alike: the
    recurrence's alpha = t - L - h beta, and whether the series takes t,
    where |nu| times its span, (t - lo) + |alpha| + reach, is at most 1."""
    alpha = t - p.delay_L - h * beta
    return alpha, abs(nu) * ((t - lo) + abs(alpha) + reach) <= 1.0


def range_error(quantity: str, exc: Exception) -> NumericalError:
    return NumericalError(f"{quantity} out of floating-point range: {exc}")


def not_finite(quantity: str) -> NumericalError:
    return NumericalError(f"{quantity} is not finite")


def check_trace(p, peak: float, interp_error) -> None:
    """The checks of a phonon trace on ``p.t_grid`` whose grid maximum, or
    first NaN or inf, is ``peak``; ``interp_error()`` gives the samples'
    parabolic-interpolation error, and runs only where the peak is positive.

    A trace that is not finite, or above 1 (a valid protocol's peak is at
    most 1), is a NumericalError; one that a grid too coarse samples badly
    is a GridError: interpolation error above 1e-4 of the peak, or every
    sample 0 where g > 0 and the pulse reaches the grid after t = 0 but no
    grid time lies inside the window (max(lo, 0), hi). With grid times in
    there, an all-zero trace has underflowed, a NumericalError.
    """
    if not math.isfinite(peak):
        raise not_finite("phonon trace")
    if peak == 0.0 and p.g > 0.0:
        lo, hi = pulse_window(p)
        lo, grid = max(lo, 0.0), p.t_grid
        if hi > 0.0 and grid[-1] > lo:
            inside = bisect.bisect_left(grid, hi) - bisect.bisect_right(grid, lo)
            if inside > 0:
                raise NumericalError(f"phonon trace underflowed to 0: every sample is 0, "
                                     f"with {inside} grid times inside the pulse window")
            step = max(map(operator.sub, islice(grid, 1, None), grid))
            raise GridError(
                f"time grid too coarse: every sample is 0 with a grid step up to "
                f"{float(step):.3e} s against the pulse width 1/sigma = {1.0 / p.sigma:.3e} s")
    if peak > 0.0:
        # sampling error of a smooth curve between grid times (``interp_error``)
        error = interp_error()
        if error > 1e-4 * peak:
            raise GridError(f"time grid too coarse: interpolation error {error:.3e} "
                            f"exceeds 1e-4 of the peak {peak:.3e}")
    if peak > 1.0 + 1e-9:
        raise NumericalError("phonon expectation exceeded 1: invalid protocol state")


# Weideman's coefficients of p, highest power first, for N = 48: the real part
# of the FFT in his paper's listing, taken with numpy (tests/test_swap.py makes
# them again)
_WEIDEMAN = tuple(map(float, """
    -3.700743415417188e-17 3.908097080905041e-17 8.913045359641251e-17 4.336469876763116e-17
    2.10357809007448e-17 7.068313479639792e-20 3.859105048166247e-16 7.253797548522926e-16
    -1.8792328220691556e-15 -5.239158595095343e-15 9.527536360754516e-15 4.2342555584235587e-14
    -3.1933415962846563e-14 -3.227757310972546e-13 -9.65501738984251e-14 2.2154187772000165e-12
    3.4253340904418414e-12 -1.1935451266839411e-11 -4.386586767527037e-11 2.162200234796574e-11
    3.8794220773032034e-10 5.775289855479109e-10 -2.015659927316155e-09 -9.596254713078844e-09
    -6.3868099289015055e-09 6.927000636026076e-08 2.654949200687094e-07 1.949433746724146e-07
    -1.9445657790098968e-06 -9.475638240450828e-06 -1.905446161911202e-05 1.7506316371117585e-05
    0.0003078691364088904 0.0014864991251956183 0.005125813548225686 0.014546837792237402
    0.03586136998337668 0.07895589553470005 0.1578633044338047 0.2897998907960481
    0.49225702391399057 0.7780624191484228 1.149220464539778 1.5913084691178003
    2.0707599716742915 2.5370484874446904 2.9304498956237564 3.194064589395071
    """.split()))
_L = math.sqrt(len(_WEIDEMAN) / math.sqrt(2.0))
_SQRT_PI = math.sqrt(math.pi)
_RSQRT_PI = 1.0 / _SQRT_PI


def _weideman(den, big):
    """2 p(Z)/den^2 + 1/(sqrt(pi) den) at den = L - iz and Z = big."""
    p = 0.0
    for a in _WEIDEMAN:
        p = p * big + a
    return 2.0 * p / (den * den) + _RSQRT_PI / den


def faddeeva(z: complex) -> complex:
    """Faddeeva's w(z) for Im z >= 0 (see the module docstring)."""
    if abs(z) > 1e8:
        return 1j / (_SQRT_PI * z)
    den = _L - 1j * z
    return _weideman(den, (_L + 1j * z) / den)


def erfcx(y: float) -> float:
    """erfc(y) e^{y^2} = w(iy) for y >= 0: ``faddeeva``'s operations on the
    imaginary axis, in real arithmetic."""
    if y > 1e8:
        return 1.0 / (_SQRT_PI * y)
    return _weideman(_L + y, (_L - y) / (_L + y))


class Route(SimpleNamespace):
    """How a trace route evaluates the forms of v_b below, each of which takes a
    time t as a float or as an array of ascending times alike: ``exp``, ``sin``,
    ``expm1``, ``erfcx(y)`` for y >= 0 and ``w(x, y)`` = w(x + iy) for y >= 0;
    ``zeros(n)``; ``index(times, value, right)``, bisect's insertion point;
    ``each(f, times)``; ``pieces(x, below, above)``, ``below`` where x < 0 and
    ``above`` elsewhere at ascending x; ``cuts(mask)``, the indices where a mask
    changes; ``floats``, the route at one float time. ``SCALAR`` is the scalar
    route; ``levicav.pulse`` builds the numpy one."""


SCALAR = Route(exp=math.exp, sin=math.sin, expm1=math.expm1, erfcx=lambda y: erfcx(y),
               w=lambda x, y: faddeeva(complex(x, y)), zeros=lambda n: [0.0] * n,
               index=lambda times, value, right: (bisect.bisect_right if right
                                                  else bisect.bisect_left)(times, value),
               each=lambda f, times: list(map(f, times)),
               pieces=lambda x, below, above: below if x < 0.0 else above,
               cuts=lambda mask: [i for i in range(1, len(mask)) if mask[i] != mask[i - 1]])
SCALAR.floats = SCALAR


def _phase(a: float, b: float) -> tuple[float, float]:
    """(phi, R) of a cos(x) + b sin(x) = R sin(x + phi), R = +-hypot(a, b) of
    b's sign: |phi| <= pi/2, no rounded pi off a small angle."""
    sign = math.copysign(1.0, b)
    return math.atan2(sign * a, sign * b), sign * math.hypot(a, b)


def _damped_sine(route: Route, tau, omega: float, h: float, phi, r):
    """e^{-h tau} R sin(omega tau + phi), (phi, R) = ``_phase(a, b)`` of
    e^{-h tau} (a cos(omega tau) + b sin(omega tau)). The forms update only
    the values they made in place, as floats rebind."""
    out = route.sin(tau * omega + phi)
    out *= route.exp(-h * tau)
    out *= r
    return out


def _real_convolution(route: Route, lam: float, lo: float, hi: float, p):
    """(t, route) -> int_lo^t exp(lam (t-s)) exp(-sigma^2 (s-L)^2 / 4) ds at a real
    lam <= 0 and window times lo < t <= hi (``levicav.pulse._gaussian_convolution``
    has the equations): i z_s is imaginary, and w(iy) = erfcx(y). Where the limits
    straddle Re z = 0 by hi, -lam/sigma <= 5, and the bounded term that joins there
    stays below e^75 over the window."""
    sigma, delay = p.sigma, p.delay_L
    shift = lam / sigma
    z_lo = 0.5 * sigma * (lo - delay) + shift
    erfcx_ = route.floats.erfcx
    w_lo = -erfcx_(-z_lo) if z_lo < 0.0 else erfcx_(z_lo)
    edge, rate = 0.25 * sigma**2 * (lo - delay) ** 2, 0.25 * sigma**2
    bounded, root = lam**2 / sigma**2, math.sqrt(math.pi) / sigma
    straddles = z_lo < 0.0 <= 0.5 * sigma * (hi - delay) + shift

    def convolution(t, r: Route):
        s = t - delay
        z = 0.5 * sigma * s + shift
        sign, bound = r.pieces(z, (-1.0, 0.0), (1.0, 2.0))
        out = r.exp(lam * (t - lo) - edge) * w_lo
        out -= sign * (r.exp(-rate * (s * s)) * r.erfcx(sign * z))
        if straddles:
            out += bound * r.exp(lam * s + bounded)
        out *= root
        return out
    return convolution


def _underdamped(route: Route, p, lo: float, hi: float, rates):
    """``(vb, pair)``: t -> v_b = g Im P+/omega at window times, and (u_a, v_b) at hi.

    lam = -h + i omega: the lo term C gives Im(C e^{lam tau}), tau = t - lo, one
    damped sine; where the limits straddle Re z = 0, the bounded term
    2 e^{lam (t-L) + lam^2/sigma^2} joins C. As w(-conj z) = conj w(z)
    (Abramowitz & Stegun 7.1.12), the t term w(i z_s), or -w(-i z_s)
    reflected, is conj W or -W with W = w(omega/sigma + i |Re z_s|) on one
    vertical line: its part e^{-sigma^2 s^2/4} Im W has no reflection sign.
    N, g/omega and sqrt(pi)/sigma make one factor, scale.
    """
    h, d, nu2, nu, beta, norm = rates
    sigma, delay = p.sigma, p.delay_L
    omega, lam, root = nu.imag, -h + nu, math.sqrt(math.pi) / sigma
    re_z, rate, half = omega / sigma, -0.25 * sigma**2, 0.5 * sigma
    s0 = lo - delay
    x0 = s0 * half - h / sigma  # Re z_s at lo
    w0 = route.floats.w(re_z, abs(x0))
    c_lo = c_up = complex(math.exp(s0 * rate * s0) * (-w0 if x0 < 0.0 else w0.conjugate()))
    if x0 < 0.0 <= (hi - delay) * half - h / sigma:  # h/sigma <= 5 here
        c_up += 2.0 * cmath.exp(lam * s0 + lam * lam / sigma**2)
    pieces = _phase(c_lo.imag, c_lo.real), _phase(c_up.imag, c_up.real)
    scale = norm * p.g * root / omega

    def dif(t, r: Route):
        """Im P+ sigma/sqrt(pi) at t, with e^{-sigma^2 s^2/4}, W and Re z_s there."""
        s = t - delay
        x = s * half
        x -= h / sigma
        e = s * rate
        e *= s
        e, w = r.exp(e), r.w(re_z, abs(x))
        v = e * w.imag
        v += _damped_sine(r, t - lo, omega, h, *r.pieces(x, *pieces))
        return v, e, w, x

    v, e, w, x = dif(hi, route.floats)
    mean = (c_lo if x < 0.0 else c_up) * cmath.exp(lam * (hi - lo)) + e * (
        w if x < 0.0 else -w.conjugate())
    return lambda t: dif(t, route)[0] * scale, (norm * root * (mean.real - d / omega * v),
                                                 scale * v)


def _overdamped(route: Route, p, lo: float, hi: float, rates):
    """``(vb, pair)``: t -> v_b = g (P+ - P-)/(2 nu) at window times, and (u_a, v_b)
    at hi, from the convolutions P+- of the real rates lam+- = -h +- nu."""
    h, d, nu2, nu, beta, norm = rates
    plus, minus = (_real_convolution(route, -h + r, lo, hi, p) for r in (nu.real, -nu.real))
    inv = 0.5 / nu.real
    scale = norm * p.g * inv
    a, b = plus(hi, route.floats), minus(hi, route.floats)
    return (lambda t: scale * (plus(t, route) - minus(t, route)),
            (norm * (0.5 * (a + b) - d * inv * (a - b)), scale * (a - b)))


def _series(route: Route, p, lo: float, hi: float, rates):
    """``(vb, pair)``, t -> v_b and (u_a, v_b) at hi, of the critical-coupling series
    (``levicav.pulse._sorted_filtered_input`` has the equations): J_0 from
    ``_real_convolution`` at -h, and the boundary terms tau_lo^k e^{-h tau_lo -
    sigma^2 (lo-L)^2/4} by a running product."""
    h, d, nu2, nu, beta, norm = rates
    weights = [1.0]  # nu^(2 floor(k/2))/k!
    for k in range(2 * SERIES_TERMS - 1):
        weights.append(weights[-1] * ((nu2 if k % 2 else 1.0) / (k + 1)))
    steps = [(k, weights[k], k * beta) for k in range(1, 2 * SERIES_TERMS - 1)]
    edge_lo, rate = 0.25 * p.sigma**2 * (lo - p.delay_L) ** 2, -0.25 * p.sigma**2
    j_0 = _real_convolution(route, -h, lo, hi, p)

    def sums(t, r: Route):
        """(cosh part, sinh part) at t: the sums of nu^(2 floor(k/2))/k! J_k
        over even and odd k."""
        tau_lo, s = t - lo, t - p.delay_L
        alpha, edge = s - h * beta, r.exp(-h * tau_lo - edge_lo)
        j_prev = j_0(t, r)
        parts = [j_prev * 1.0, 0.0]
        j = alpha * j_prev
        j += (r.exp(rate * (s * s)) - edge) * beta
        for k, weight, kb in steps:  # J_{k+1} = alpha J_k + k beta J_{k-1} - beta tau^k edge
            edge *= tau_lo
            parts[k % 2] += j * weight
            j_prev *= kb
            j_prev += alpha * j
            j_prev -= edge * beta
            j, j_prev = j_prev, j
        return parts[0], parts[1] + j * weights[-1]

    even, odd = sums(hi, route.floats)
    return lambda t: norm * (p.g * sums(t, route)[1]), (norm * (even - d * odd),
                                                        norm * (p.g * odd))


def _tail(route: Route, p, hi: float, ua0: float, vb0: float):
    """t -> v_b past hi, c vb0 + s (d vb0 + g ua0) with exp(M (t - hi)) =
    [[c - d s, -i g s], [-i g s, c + d s]] (``levicav.pulse._free_evolution``):
    one damped sine where underdamped."""
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2, x1 = d * d - p.g * p.g, d * vb0 + p.g * ua0
    if nu2 < 0.0:
        omega = math.sqrt(-nu2)
        phi, r = _phase(vb0, x1 / omega)
        return lambda t: _damped_sine(route, t - hi, omega, h, phi, r)
    nu = math.sqrt(nu2)

    def tail(t):  # (1, tau) e^{-h tau} at nu = 0, else with expm1(-2 nu tau): no overflow
        tau = t - hi
        if nu == 0.0:
            c = route.exp(-h * tau)
            return c * vb0 + tau * c * x1
        decay, em = route.exp((nu - h) * tau), route.expm1(-2.0 * nu * tau)
        return decay * (1.0 + 0.5 * em) * vb0 + decay * em / (-2.0 * nu) * x1
    return tail


def _window(route: Route, p, t_in, lo: float, hi: float, rates, reach, out, start: int):
    """v_b at the window times t_in into out[start:], and (u_a, v_b) at hi: the
    series where ``series_span`` holds, else the closed form, each form built
    for the first run of times it takes (at nu = 0 the series holds throughout,
    and the closed form has no 1/nu)."""
    h, d, nu2, nu, beta, norm = rates
    forms = {}

    def form(series: bool):
        if series not in forms:
            build = _series if series else _underdamped if nu2 < 0.0 else _overdamped
            forms[series] = build(route, p, lo, hi, rates)
        return forms[series]

    def holds(t):
        return reach is not None and series_span(p, t, lo, nu, h, beta, reach)[1]

    mask = route.each(holds, t_in) if reach is not None else None
    bounds = [0, *(() if mask is None else route.cuts(mask)), len(t_in)]
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            vb = form(mask is not None and bool(mask[a]))[0]
            out[start + a:start + b] = route.each(vb, t_in[a:b])
    return form(holds(hi))[1]


def vb_values(p, times, route: Route = SCALAR):
    """v_b at ascending finite ``times`` on ``route``: a sequence of floats and
    a list on the scalar route, a 1-D array and an array on the numpy route.
    0 up to lo, the window's forms in (lo, hi), and past hi its free
    evolution from the pair (u_a, v_b) at hi."""
    out = route.zeros(len(times))
    lo, hi, pair, rates, reach = window(p)
    if hi <= 0.0:
        return out
    after = route.index(times, hi, False)  # t >= hi
    if pair is None:
        start = route.index(times, lo, True)
        pair = _window(route, p, times[start:after], lo, hi, rates, reach, out, start)
    if after < len(times):
        out[after:] = route.each(_tail(route, p, hi, *pair), times[after:])
    return out


def interp_error(n0, n1, n2, t0, t1, t2, maximum=max):
    """The parabolic-interpolation error of samples n0, n1, n2 at t0 < t1 < t2,
    floats or arrays alike: |n''| h^2/8, n'' twice the second divided difference
    and h the larger step, |n0 - 2 n1 + n2|/8 at equal steps; steps over h."""
    h0, h1 = t1 - t0, t2 - t1
    h = maximum(h0, h1)
    a, b = h0 / h, h1 / h
    return abs((n2 - n1) * a - (n1 - n0) * b) / (a * b * (a + b)) / 4.0


def phonon_trace(p: PulseProtocol) -> PhononTrace:
    """``levicav.pulse.phonon_trace`` on the scalar route: <b^dag b> = 2 kappa
    v_b^2 at each grid time, read as floats, with the same checks and errors."""
    t = p.t_grid if isinstance(p.t_grid, tuple) else tuple(p.t_grid.tolist())
    two_kappa = 2.0 * p.kappa
    try:
        n = [v * v * two_kappa for v in vb_values(p, t)]
    except (OverflowError, ZeroDivisionError, ValueError) as exc:  # math's range and domain
        raise range_error("phonon trace", exc) from exc
    # a NaN anywhere is the peak, as numpy's argmax reads it; max skips one
    # that does not come first, and a sum that is not finite flags it
    peak = max(n)
    if not math.isfinite(sum(n)) and any(map(math.isnan, n)):
        peak = math.nan

    def error():
        if uniform_grid(t[-1], len(t)) != list(t):
            return max(map(interp_error, n, islice(n, 1, None), islice(n, 2, None),
                           t, islice(t, 1, None), islice(t, 2, None)))
        step = list(map(operator.sub, islice(n, 1, None), n))  # one step: |n0 - 2 n1 + n2|/8
        second = list(map(operator.sub, islice(step, 1, None), step))
        return max(max(second), -min(second)) / 8.0
    check_trace(p, peak, error)
    return PhononTrace(times=t, n_phonon=tuple(n), peak_time=t[n.index(peak)], peak_value=peak)

"""The swap protocol's rules, and its phonon trace without numpy.

``levicav.pulse`` traces on numpy arrays for callers that stay in the
process and trace many protocols, such as a swap map. A ``levicav trace``
process traces once, and importing numpy would cost it more than the
trace itself, so the CLI takes the scalar route here: the same closed forms
of v_b = i u_b, evaluated one grid time at a time in Python floats. Every
rule both routes follow is defined once, here, and ``levicav.pulse``
imports it: the rate checks of a protocol, the uniform grid and its check,
the pulse window with the pulse-area kick, the series rule and its K, and
the checks of a trace with their messages. Only the per-time kernels exist
twice; each one here names the ``levicav.pulse`` function it mirrors,
operation for operation.

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
from itertools import islice

from .errors import GridError, NumericalError, ValidationError
from .records import record

__all__ = ["SwapProtocol", "SwapTrace", "phonon_trace", "faddeeva", "erfcx"]


class ProtocolRules:
    """The checks and the rotating-wave flag of a protocol of either route:
    ``levicav.pulse.PulseProtocol``, whose grid is a numpy array, and
    ``SwapProtocol``, whose grid is a tuple, with the same fields."""

    #: factor defining "much greater" for the rotating-wave check
    RWA_FACTOR = 10.0

    def _check_rates(self) -> None:
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

    @property
    def rwa_valid(self):
        """True when omega_t >= RWA_FACTOR * g; None if omega_t unknown."""
        if self.omega_t is None:
            return None
        if self.g == 0.0:
            return True
        return self.omega_t >= self.RWA_FACTOR * self.g


@record
class SwapProtocol(ProtocolRules):
    """``PulseProtocol``'s rates and grid for the scalar route, the grid a
    tuple of floats."""

    g: float        # rad/s
    kappa: float    # rad/s
    gamma: float    # rad/s
    sigma: float    # rad/s, 1/e amplitude half-width of the spectrum
    delay_L: float  # s, pulse-center arrival time
    t_grid: tuple   # s, strictly increasing
    omega_t: float | None = None  # rad/s, trap frequency if known

    def __post_init__(self) -> None:
        self._check_rates()
        grid = tuple(map(float, self.t_grid))
        error = grid_error(grid)
        if error:
            raise ValidationError(error)
        object.__setattr__(self, "t_grid", grid)


@record
class SwapTrace:
    """``PhononTrace``'s fields for the scalar route, as tuples."""

    times: tuple     # s
    n_phonon: tuple  # <b^dag b>(t)
    peak_time: float  # s, grid argmax
    peak_value: float  # max over the grid


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
    and how it is formed (``levicav.pulse._sorted_window`` has the equations).

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
        # sampling error of a smooth curve read off a uniform-ish grid
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


def _phase(a: float, b: float) -> tuple[float, float]:
    """(phi, R) of a cos(x) + b sin(x) = R sin(x + phi), R = +-hypot(a, b) of
    b's sign, |phi| <= pi/2 (a piece of ``pulse._damped_sine``)."""
    sign = math.copysign(1.0, b)
    return math.atan2(sign * a, sign * b), sign * math.hypot(a, b)


def _real_convolution(lam: float, lo: float, p):
    """t -> ``pulse._gaussian_convolution(lam, t, lo, p)`` for a real lam and
    one time lo < t <= hi."""
    sigma, delay = p.sigma, p.delay_L
    shift = lam / sigma
    z_lo = 0.5 * sigma * (lo - delay) + shift
    w_lo = -erfcx(-z_lo) if z_lo < 0.0 else erfcx(z_lo)
    edge, rate = 0.25 * sigma**2 * (lo - delay) ** 2, 0.25 * sigma**2
    bounded, root = lam**2 / sigma**2, math.sqrt(math.pi) / sigma

    def convolution(t: float) -> float:
        out = math.exp(lam * (t - lo) - edge) * w_lo
        s = t - delay
        z = 0.5 * sigma * s + shift
        term = math.exp(lam * 0.0 - rate * (s * s)) * erfcx(abs(z))
        out -= -term if z < 0.0 else term
        if z_lo < 0.0 and not z < 0.0:  # the limits straddle Re z = 0
            out += 2.0 * math.exp(lam * s + bounded)
        return out * root
    return convolution


def _closed(p, lo: float, rates):
    """t -> v_b of ``pulse._vb_closed`` from lo at one window time t, and
    (u_a, v_b) where ``end``, at hi."""
    h, d, nu2, nu, beta, norm = rates
    sigma, delay = p.sigma, p.delay_L
    if nu2 >= 0.0:
        plus, minus = (_real_convolution(-h + r, lo, p) for r in (nu.real, -nu.real))
        inv = 0.5 / nu.real
        scale = norm * p.g * inv

        def real_rates(t: float, end: bool = False):
            a, b = plus(t), minus(t)
            dif = a - b
            return (norm * (0.5 * (a + b) - d * inv * dif), scale * dif) if end else scale * dif
        return real_rates
    omega, lam, root = nu.imag, -h + nu, math.sqrt(math.pi) / sigma
    re_z, rate, half = omega / sigma, -0.25 * sigma**2, 0.5 * sigma
    s0 = lo - delay
    x0 = s0 * half - h / sigma
    w0 = faddeeva(complex(re_z, abs(x0)))
    c_lo = complex(math.exp(s0 * rate * s0) * (-w0 if x0 < 0.0 else w0.conjugate()))
    # where the limits straddle Re z = 0 the bounded term joins the lo term
    c_up = c_lo + 2.0 * cmath.exp(lam * s0 + lam * lam / sigma**2) if x0 < 0.0 else c_lo
    pieces = _phase(c_lo.imag, c_lo.real), _phase(c_up.imag, c_up.real)
    scale = norm * p.g * root / omega

    def underdamped(t: float, end: bool = False):
        tau, s = t - lo, t - delay
        x = s * half - h / sigma
        w = faddeeva(complex(re_z, abs(x)))
        e = math.exp(s * rate * s)
        phi, r = pieces[x0 < 0.0 and x >= 0.0]
        dif = math.sin(tau * omega + phi) * math.exp(-h * tau) * r + e * w.imag
        if not end:
            return scale * dif
        c = c_up if x0 < 0.0 and x >= 0.0 else c_lo
        mean = c * cmath.exp(lam * tau) + e * (w if x < 0.0 else -w.conjugate())
        return norm * root * (mean.real - d / omega * dif), scale * dif
    return underdamped


def _series(p, lo: float, rates):
    """(t, alpha) -> v_b of the critical-coupling series at one window time t,
    and (u_a, v_b) where ``end``: ``pulse._series``' v_b loop with the inputs
    ``pulse._sorted_window`` gives it, two steps of the loop per pass."""
    h, d, nu2, nu, beta, norm = rates
    steps = 2 * SERIES_TERMS - 1
    weights = [1.0]
    for k in range(steps):
        weights.append(weights[-1] * ((nu2 if k % 2 else 1.0) / (k + 1)))
    pairs = [(weights[k], k * beta, weights[k + 1], (k + 1) * beta) for k in range(1, steps, 2)]
    last = weights[steps]
    edge_lo, rate = 0.25 * p.sigma**2 * (lo - p.delay_L) ** 2, -0.25 * p.sigma**2
    j_0 = _real_convolution(-h, lo, p)

    def series(t: float, alpha: float, end: bool = False):
        tau_lo, s = t - lo, t - p.delay_L
        edge = math.exp(-h * tau_lo - edge_lo)
        j = j_0(t)
        even, odd = 0.0 + j * 1.0, 0.0
        j, j_prev = alpha * j + 0.0 + (math.exp(rate * (s * s)) - edge) * beta, j
        for w_odd, kb_odd, w_even, kb_even in pairs:
            edge *= tau_lo
            odd += j * w_odd
            j, j_prev = alpha * j + j_prev * kb_odd + (0.0 - edge) * beta, j
            edge *= tau_lo
            even += j * w_even
            j, j_prev = alpha * j + j_prev * kb_even + (0.0 - edge) * beta, j
        odd += j * last
        vb = norm * (p.g * odd)
        return (norm * (even - d * odd), vb) if end else vb
    return series


def _window(p, t_in, lo: float, hi: float, rates, reach, out: list, start: int):
    """v_b at the window times t_in into out[start:], and (u_a, v_b) at hi
    (``pulse._vb_window``): the series where it holds, else the closed form,
    each form built on its first time, as the numpy route builds it only for
    its own times."""
    if reach is None:
        closed = _closed(p, lo, rates)
        out[start:start + len(t_in)] = map(closed, t_in)
        return closed(hi, True)
    h, d, nu2, nu, beta, norm = rates
    forms = {}

    def at(t: float, end: bool = False):
        alpha, holds = series_span(p, t, lo, nu, h, beta, reach)
        if holds not in forms:
            forms[holds] = (_series if holds else _closed)(p, lo, rates)
        return forms[holds](t, alpha, end) if holds else forms[holds](t, end)

    out[start:start + len(t_in)] = map(at, t_in)
    return at(hi, True)


def vb_values(p, times) -> list:
    """v_b at ascending finite ``times``, as ``pulse._sorted_vb`` forms it:
    0 up to lo, the window's kernels in (lo, hi), and past hi
    c vb0 + s (d vb0 + g ua0) from the pair at hi (``pulse._free_evolution``,
    one damped sine when underdamped)."""
    out = [0.0] * len(times)
    lo, hi, pair, rates, reach = window(p)
    if hi <= 0.0:
        return out
    after = bisect.bisect_left(times, hi)  # t >= hi
    if pair is None:
        start = bisect.bisect_right(times, lo)
        pair = _window(p, times[start:after], lo, hi, rates, reach, out, start)
    ua0, vb0 = pair
    taus = [t - hi for t in islice(times, after, None)]
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2, x1 = d * d - p.g * p.g, d * vb0 + p.g * ua0
    exp, sin = math.exp, math.sin
    if nu2 < 0.0:
        omega = math.sqrt(-nu2)
        phi, r = _phase(vb0, x1 / omega)
        out[after:] = [sin(tau * omega + phi) * exp(-h * tau) * r for tau in taus]
    elif nu2 > 0.0:
        nu = math.sqrt(nu2)
        out[after:] = [decay * (1.0 + 0.5 * em) * vb0 + decay * em / (-2.0 * nu) * x1
                       for tau in taus
                       for decay, em in ((exp((nu - h) * tau), math.expm1(-2.0 * nu * tau)),)]
    else:
        out[after:] = [c * vb0 + tau * c * x1 for tau in taus for c in (exp(-h * tau),)]
    return out


def phonon_trace(p: SwapProtocol) -> SwapTrace:
    """``levicav.pulse.phonon_trace`` on the scalar route: <b^dag b> = 2 kappa
    v_b^2 at each grid time, with the same checks and errors."""
    two_kappa = 2.0 * p.kappa
    try:
        n = [v * v * two_kappa for v in vb_values(p, p.t_grid)]
    except (OverflowError, ZeroDivisionError, ValueError) as exc:  # math's range and domain
        raise range_error("phonon trace", exc) from exc
    # a NaN anywhere is the peak, as numpy's argmax reads it; max skips one
    # that does not come first, and a sum that is not finite flags it
    peak = max(n)
    if not math.isfinite(sum(n)) and any(map(math.isnan, n)):
        peak = math.nan

    def interp_error() -> float:
        step = list(map(operator.sub, islice(n, 1, None), n))
        return max(map(abs, map(operator.sub, islice(step, 1, None), step))) / 8.0

    check_trace(p, peak, interp_error)
    return SwapTrace(times=p.t_grid, n_phonon=tuple(n),
                     peak_time=p.t_grid[n.index(peak)], peak_value=peak)

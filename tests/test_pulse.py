import hashlib
import json
import math
import random
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from levicav import pulse, swap
from levicav.errors import GridError, NoSwapError, NumericalError, ValidationError
from levicav.pulse import (PhononTrace, PulseProtocol, amplification_envelope,
                           conditional_superposition, greens_ba, output_field_envelope,
                           phonon_expectation_direct, phonon_trace, pulse_envelope,
                           refined_peak)
from levicav.presets import PRESET_NAMES
from levicav.scenario import build_protocol, preset_scenario_dict, scenario_from_dict
from oracles import cavity_population, phonon_expectation_moments, trace_shadow

KAPPA = 1.177e6


def standard(g_over_kappa, **kw):
    return PulseProtocol.standard(g=g_over_kappa * KAPPA, kappa=KAPPA, **kw)


def filtered_input(p, times):
    """(u_a, v_b = i u_b) at times of any shape and order, each from its own route."""
    return (pulse._in_order(pulse._sorted_filtered_input, p, times),
            pulse._in_order(pulse._sorted_vb, p, times))


class TestTrace:
    def test_decoupled_oscillator_is_silent(self):
        trace = phonon_trace(standard(0.0))
        assert np.all(trace.n_phonon == 0.0)
        assert trace.peak_value == 0.0

    def test_strong_coupling_peak_half(self):
        trace = phonon_trace(standard(1.0))
        assert trace.peak_value == pytest.approx(0.5, abs=0.05)

    def test_weak_coupling_peak_strictly_lower(self):
        strong = phonon_trace(standard(1.0))
        weak = phonon_trace(standard(0.25))
        assert weak.peak_value < strong.peak_value

    def test_population_bounds(self):
        for g in (0.25, 0.5, 1.0, 2.0):
            trace = phonon_trace(standard(g))
            assert np.all(trace.n_phonon >= 0.0)
            assert np.all(trace.n_phonon <= 1.0 + 1e-12)

    def test_damping_lowers_peak(self):
        undamped = phonon_trace(standard(1.0))
        damped = phonon_trace(PulseProtocol.standard(g=KAPPA, kappa=KAPPA,
                                                     gamma=0.2 * KAPPA))
        assert damped.peak_value < undamped.peak_value

    def test_scaling_invariance(self):
        # (g, kappa, gamma, sigma, 1/L, 1/t) -> lam * (...) leaves the trace alone
        lam = 3.7
        base = phonon_trace(standard(1.0))
        scaled = phonon_trace(PulseProtocol(
            g=lam * KAPPA, kappa=lam * KAPPA, gamma=0.0, sigma=5.6 * lam * KAPPA,
            delay_L=5.0 / (lam * KAPPA),
            t_grid=np.linspace(0.0, 20.0 / (lam * KAPPA), 2000)))
        assert np.max(np.abs(scaled.n_phonon - base.n_phonon)) < 1e-12

    def test_grid_too_coarse_reported(self):
        with pytest.raises(GridError):
            phonon_trace(standard(1.0, n_points=60))

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValidationError):
            PulseProtocol(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=KAPPA,
                          delay_L=0.0, t_grid=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("name", ["g", "kappa", "gamma", "sigma", "delay_L"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, name, bad):
        fields = dict(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=5.6 * KAPPA,
                      delay_L=5.0 / KAPPA, t_grid=np.linspace(0.0, 20.0 / KAPPA, 100))
        fields[name] = bad
        with pytest.raises(ValidationError, match=name):
            PulseProtocol(**fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        grid = np.linspace(0.0, 20.0 / KAPPA, 100)
        grid[-1] = bad
        with pytest.raises(ValidationError, match="t_grid"):
            PulseProtocol(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=5.6 * KAPPA,
                          delay_L=5.0 / KAPPA, t_grid=grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_trap_frequency_rejected(self, bad):
        with pytest.raises(ValidationError, match="omega_t"):
            PulseProtocol(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=5.6 * KAPPA,
                          delay_L=5.0 / KAPPA, t_grid=np.linspace(0.0, 20.0 / KAPPA, 100),
                          omega_t=bad)

    @pytest.mark.parametrize("rates", [dict(g=1e200, kappa=1.0),
                                       dict(g=1.0, kappa=1.0, sigma_over_kappa=1e200),
                                       dict(g=1.0, kappa=1e-200)])
    def test_out_of_range_trace_reported(self, rates):
        # finite rates whose squares leave the floating-point range
        protocol = PulseProtocol.standard(**rates)
        with pytest.raises(NumericalError):
            phonon_trace(protocol)
        with pytest.raises(NumericalError):
            output_field_envelope(protocol, protocol.t_grid)

    @pytest.mark.parametrize("bad", [{700: math.nan}, {700: math.inf},
                                     {100: math.inf, 900: math.nan}],
                             ids=["nan", "inf", "inf-then-nan"])
    def test_non_finite_trace_reported(self, bad, monkeypatch):
        # the trace is read for NaN and inf at its argmax alone
        sorted_vb = pulse._sorted_vb

        def spoiled(p, t):
            out = sorted_vb(p, t)
            for i, value in bad.items():
                out[i] = value
            return out

        monkeypatch.setattr(pulse, "_sorted_vb", spoiled)
        with pytest.raises(NumericalError, match="^phonon trace is not finite$"):
            phonon_trace(standard(1.0))

    def test_peak_above_one_is_a_numerical_failure(self, monkeypatch):
        # a valid protocol's peak is at most 1, so a larger one is a failed
        # computation (exit 2), not an input error (exit 1)
        monkeypatch.setattr(pulse, "_sorted_vb", lambda p, t: np.full(t.size, 1.5))
        with pytest.raises(NumericalError, match="exceeded 1") as raised:
            phonon_trace(standard(1.0))
        assert not isinstance(raised.value, ValidationError)

    @pytest.mark.parametrize("times", [math.nan, [5.0, math.nan, 6.0], [math.nan] * 3],
                             ids=["scalar", "inside-array", "all-nan"])
    def test_nan_time_reported(self, times):
        # a NaN time lies neither before, inside nor after the pulse
        protocol = PulseProtocol.standard(g=1.0, kappa=1.0)
        with pytest.raises(NumericalError):
            filtered_input(protocol, times)


class TestGridCheck:
    """A protocol scans its grid (finite, strictly increasing) unless the grid is one
    that ``_uniform_grid`` built and found valid, which it recognises by identity."""

    @staticmethod
    def protocol(grid):
        return PulseProtocol(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=KAPPA, delay_L=0.0,
                             t_grid=grid)

    def test_invalid_shared_grid_raises_every_time(self):
        grid = pulse._uniform_grid(1e-321, 2000)  # subnormal steps repeat times
        assert not (grid[1:] > grid[:-1]).all()
        for _ in range(2):
            with pytest.raises(ValidationError, match="strictly increasing"):
                self.protocol(grid)
        assert pulse._uniform_grid(1e-321, 2000) is grid

    def test_read_only_grid_with_nan_raises_every_time(self):
        grid = np.linspace(0.0, 20.0 / KAPPA, 2000)
        grid[700] = math.nan
        grid.flags.writeable = False
        for _ in range(2):
            with pytest.raises(ValidationError, match="finite"):
                self.protocol(grid)

    def test_shared_grid_scanned_once(self, monkeypatch):
        grid, scanned = pulse._uniform_grid(20.0 / KAPPA, 2000), []
        error = pulse._grid_error
        monkeypatch.setattr(pulse, "_grid_error", lambda g: scanned.append(g) or error(g))
        assert self.protocol(grid).t_grid is grid and scanned == []
        copy = grid.copy()
        copy.flags.writeable = False
        assert self.protocol(copy).t_grid is copy and len(scanned) == 1


def assert_trace_matches_direct(protocol):
    """Six evenly spaced grid points, three across the pulse and the peak."""
    trace = phonon_trace(protocol)
    assert np.all(np.isfinite(trace.n_phonon))
    across_pulse = protocol.delay_L + np.array([-1.0, 0.0, 1.0]) / protocol.sigma
    across_pulse = across_pulse[across_pulse < trace.times[-1]]
    idx = np.unique(np.r_[np.linspace(0, trace.times.size - 1, 6).astype(int),
                          np.searchsorted(trace.times, across_pulse),
                          np.argmax(trace.n_phonon)])
    for i in idx:
        direct = phonon_expectation_direct(protocol, float(trace.times[i]))
        assert abs(trace.n_phonon[i] - direct) <= 1e-9, (i, trace.n_phonon[i], direct)


class TestClosedForm:
    """The closed-form trace against the direct quadrature."""

    @pytest.mark.parametrize("gamma_over_kappa", [0.0, 0.3])
    @pytest.mark.parametrize("nu_over_d", [0.0, 1e-7, 1e-5, 1e-3, 3e-2,
                                           -1e-7, -1e-5, -1e-3, -3e-2])
    def test_near_critical_coupling(self, nu_over_d, gamma_over_kappa):
        # nu = sqrt(d^2 - g^2) with d = (kappa - gamma)/2 is real for
        # nu_over_d > 0, imaginary (nu/d = i |nu_over_d|) for nu_over_d < 0
        # and exactly zero at critical coupling g = d
        gamma = gamma_over_kappa * KAPPA
        d = 0.5 * (KAPPA - gamma)
        g = d * math.sqrt(1.0 - math.copysign(nu_over_d**2, nu_over_d))
        assert_trace_matches_direct(PulseProtocol.standard(g=g, kappa=KAPPA, gamma=gamma))

    @pytest.mark.parametrize("sigma_over_kappa", [0.01, 0.3, 5.6, 50.0])
    def test_pulse_widths(self, sigma_over_kappa):
        # 20001 points keep the GridError check quiet up to g = 3 kappa
        # with the shortest pulse
        rng = np.random.default_rng(int(100 * sigma_over_kappa))
        for _ in range(3):
            g, gamma = rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.5)
            assert_trace_matches_direct(PulseProtocol.standard(
                g=g * KAPPA, kappa=KAPPA, gamma=gamma * KAPPA,
                sigma_over_kappa=sigma_over_kappa, n_points=20001))

    def test_times_before_the_pulse_are_exactly_zero(self):
        protocol = standard(1.0)
        lead = protocol.t_grid < protocol.delay_L - 10.0 / protocol.sigma
        assert np.any(lead)
        assert np.all(phonon_trace(protocol).n_phonon[lead] == 0.0)
        assert np.all(filtered_input(protocol, protocol.t_grid[lead])[0] == 0.0)


def per_time_point_convolution(lam, t, lo, p):
    """_gaussian_convolution as it was: w evaluated at every upper limit."""
    from scipy.special import wofz

    hi = swap.pulse_window(p)[1]

    def term(s):
        z = 0.5 * p.sigma * (s - p.delay_L) + lam / p.sigma
        e = np.exp(lam * (t - s) - 0.25 * p.sigma**2 * (s - p.delay_L) ** 2)
        reflected = z.real < 0.0
        w = wofz(1j * np.where(reflected, -z, z))
        return np.where(reflected, -e * w, e * w), reflected

    (term_lo, reflected_lo), (term_hi, reflected_hi) = term(lo), term(np.minimum(t, hi))
    out = term_lo - term_hi
    straddle = reflected_lo & ~reflected_hi
    if np.any(straddle):
        out[straddle] += 2.0 * np.exp(lam * (t[straddle] - p.delay_L) + lam**2 / p.sigma**2)
    return math.sqrt(math.pi) / p.sigma * out


class TestFaddeevaEvaluation:
    """w is evaluated once per distinct integration limit, bit for bit as
    the per-time-point evaluation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_per_time_point(self, seed, monkeypatch):
        # u_a bit for bit; v_b, formed in real arithmetic, within 1e-14 of its peak
        rng = np.random.default_rng(seed)
        d = 0.5 * (1.0 - 0.2 * seed / 3)
        protocols = []
        # g = d is critical coupling; there and just below it the series runs
        for g in (rng.uniform(0.0, 3.0), d, d * math.sqrt(1.0 - 1e-10)):
            sigma, delay = rng.uniform(0.05, 60.0) * KAPPA, rng.uniform(1.0, 8.0) / KAPPA
            lo, hi = delay - 10.0 / sigma, delay + 10.0 / sigma
            for start, stop, n in ((0.0, 0.5 * (delay + hi), 50),  # ends before hi
                                   (0.0, hi + 10.0 / KAPPA, 2000),  # straddles hi
                                   (hi + 1e-3 / KAPPA, hi + 10.0 / KAPPA, 50),  # after hi
                                   (lo, hi + 1.0 / KAPPA, 3)):
                protocols.append(PulseProtocol(
                    g=g * KAPPA, kappa=KAPPA, gamma=(1.0 - 2.0 * d) * KAPPA,
                    sigma=sigma, delay_L=delay, t_grid=np.linspace(start, stop, n)))
        # grids after hi convolve at hi alone; there numpy's in-place complex
        # product of a one-element array rounds differently from the array form
        for g in (1.6, 2.0, 3.0):
            hi = 3.0 + 10.0 / 0.5
            protocols.append(PulseProtocol(g=g, kappa=1.0, gamma=0.0, sigma=0.5, delay_L=3.0,
                                           t_grid=np.linspace(hi + 1e-3, hi + 10.0, 50)))
        shuffled = rng.permutation(protocols[1].t_grid)
        new = [filtered_input(p, p.t_grid) for p in protocols]
        new_envelope = output_field_envelope(protocols[1], shuffled)
        monkeypatch.setattr(pulse, "_gaussian_convolution", per_time_point_convolution)
        old = [filtered_input(p, p.t_grid) for p in protocols]
        assert np.array_equal(output_field_envelope(protocols[1], shuffled), new_envelope)
        for (ua, vb), (ua_ref, vb_ref) in zip(new, old):
            assert np.array_equal(ua, ua_ref)
            assert np.abs(vb - vb_ref).max() <= 1e-14 * np.abs(vb_ref).max()

    def test_one_evaluation_per_distinct_limit(self, monkeypatch):
        wofz, erfcx, evaluated, real = pulse._wofz(), pulse._erfcx(), [], []

        def counting_wofz(z):
            evaluated.append(np.size(z))
            return wofz(z)

        def counting_erfcx(y):
            real.append(np.size(y))
            return erfcx(y)

        monkeypatch.setattr(pulse, "_wofz", lambda: counting_wofz)
        monkeypatch.setattr(pulse, "_erfcx", lambda: counting_erfcx)
        protocol = standard(1.0)  # underdamped: lam- = conj(lam+) needs no second call
        phonon_trace(protocol)
        lo, hi = swap.pulse_window(protocol)
        n_inside = np.count_nonzero((protocol.t_grid > max(lo, 0.0)) & (protocol.t_grid < hi))
        assert 0 < sum(evaluated) <= n_inside + 2
        assert real == []  # a complex rate takes w off the imaginary axis
        assert all(u.dtype == np.float64
                   for u in filtered_input(protocol, protocol.t_grid))
        # real rates take erfcx alone: the overdamped lam+- (two convolutions)
        # and the critical series' -h (one)
        for g_over_kappa, rates in ((0.2, 2), (0.5, 1)):
            evaluated.clear()
            real.clear()
            phonon_trace(standard(g_over_kappa))
            assert evaluated == [] and 0 < sum(real) <= rates * (n_inside + 2)

    def test_erfcx_is_w_on_the_imaginary_axis(self):
        # real rates take erfcx for w: Faddeeva's w(iy) returns erfcx(y) itself
        y = np.concatenate([np.linspace(0.0, 60.0, 100001), np.geomspace(1e-300, 1e300, 2001)])
        w = pulse._wofz()(1j * y)
        assert np.array_equal(w.real, pulse._erfcx()(y)) and not w.imag.any()


#: an underdamped (wofz) and an overdamped (erfcx) trace in a fresh
#: interpreter, with scipy.special imported before them ("before"), scipy
#: alone ("scipy"), no wofz in _special_ufuncs ("ufuncs") or every bare
#: route broken ("fallback"); prints which scipy layers they loaded, the
#: scipy modules sys.modules holds after them, what it holds as
#: scipy.special, the traces' sha256, and, after a full import, whether the
#: bound wofz and erfcx are scipy.special's and
#: scipy.special._special_ufuncs's
BINDER_PROBE = """
import hashlib, importlib.util, json, sys
mode = sys.argv[1]
if mode == "before":
    import scipy.special
if mode == "scipy":
    import scipy
from levicav import pulse
if mode == "ufuncs":  # a _special_ufuncs without wofz, as in older releases
    bare = pulse._import_bare
    def without_wofz(name, packages):
        module = bare(name, packages)
        return object() if name.endswith("._special_ufuncs") else module
    pulse._import_bare = without_wofz
if mode == "fallback":
    importlib.util.find_spec = lambda *args, **kwargs: None
traces = [pulse.phonon_trace(pulse.PulseProtocol.standard(g=g, kappa=1.0)).n_phonon
          for g in (1.0, 0.2)]
special = sys.modules.get("scipy.special")
state = {"layers": [name for name in ("scipy.special._support_alternative_backends",
                                      "scipy._lib._array_api") if name in sys.modules],
         "loaded": sorted(name for name in sys.modules if name.startswith("scipy")),
         "special": None if special is None else hasattr(special, "wofz"),
         "sha": hashlib.sha256(b"".join(n.tobytes() for n in traces)).hexdigest()}
import scipy.special
state["same"] = pulse._wofz() is scipy.special.wofz
state["same_erfcx"] = pulse._erfcx() is scipy.special.erfcx
extension = getattr(scipy.special, "_special_ufuncs", None)
state["extension"] = all(getattr(extension, name, None) is bound
                         for name, bound in (("wofz", pulse._wofz()), ("erfcx", pulse._erfcx())))
print("PROBE " + json.dumps(state))
"""


def special_ufuncs_has_faddeeva():
    """Whether this scipy defines wofz and erfcx in
    ``scipy.special._special_ufuncs``, the extension the binder takes them
    from (not scipy 1.10)."""
    try:
        from scipy.special import _special_ufuncs
    except ImportError:
        return False
    return hasattr(_special_ufuncs, "wofz") and hasattr(_special_ufuncs, "erfcx")


class TestWofzBinding:
    """``pulse._faddeeva`` binds scipy's ufuncs ``wofz`` and ``erfcx`` from
    ``scipy.special._special_ufuncs`` under stand-ins for ``scipy`` and
    ``scipy.special``, so neither package's ``__init__`` runs; where that
    module has no ``wofz`` (scipy 1.10), from ``scipy.special._ufuncs``
    under a stand-in for ``scipy.special`` alone. Each case runs in a fresh
    interpreter, so sys.modules starts empty of scipy; after it a full
    ``import scipy.special`` hands out the same ufuncs."""

    def probe(self, mode):
        proc = subprocess.run([sys.executable, "-c", BINDER_PROBE, mode],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
        state = json.loads(line[len("PROBE "):])
        reference = b"".join(phonon_trace(PulseProtocol.standard(g=g, kappa=1.0)).n_phonon.tobytes()
                             for g in (1.0, 0.2))
        assert state.pop("sha") == hashlib.sha256(reference).hexdigest()
        return state

    def test_fast_path_skips_the_array_api_layer(self):
        # the stand-ins are gone and the real import comes later, in full,
        # with the same ufunc; if a scipy release breaks the fast path, this
        # says so rather than letting trace slow down unseen
        state = self.probe("after")
        loaded, extension = state.pop("loaded"), state.pop("extension")
        assert state == {"layers": [], "special": None, "same": True, "same_erfcx": True}
        if special_ufuncs_has_faddeeva():
            # no scipy module but the extension loads, and it leaves no entry
            # behind, so the full import re-creates it as a package attribute
            assert loaded == [] and extension is True

    def test_loaded_scipy_keeps_its_own_namespace(self):
        # with scipy itself imported, only scipy.special is stood in for
        state = self.probe("scipy")
        loaded, extension = state.pop("loaded"), state.pop("extension")
        assert state == {"layers": [], "special": None, "same": True, "same_erfcx": True}
        assert "scipy" in loaded
        if special_ufuncs_has_faddeeva():
            assert [name for name in loaded if name.startswith("scipy.special")] == []
            assert extension is True

    def test_ufuncs_route(self):
        # the route of releases whose _special_ufuncs has no wofz, taken on
        # any release by hiding it there
        state = self.probe("ufuncs")
        assert state["layers"] == [] and state["special"] is None and state["same"] is True
        assert state["same_erfcx"] is True
        assert "scipy.special" not in state["loaded"]

    def test_prior_import_is_reused(self):
        state = self.probe("before")
        assert state["special"] is True and state["same"] is True
        assert state["same_erfcx"] is True

    def test_failed_fast_path_falls_back(self):
        # with no prior import, a full scipy.special after the traces is the
        # fallback's own import
        state = self.probe("fallback")
        assert state["special"] is True and state["same"] is True
        assert state["same_erfcx"] is True


def past_window_reference(p, t, dps=40):
    """(u_a, u_b)(t) for t >= hi at dps digits, from ``trace_shadow``."""
    pytest.importorskip("mpmath")
    (ua,), (vb,) = trace_shadow(p, [t], dps)
    return complex(ua), complex(-1j * vb)


def window_protocol(g_over_kappa, gamma_over_kappa, sigma_over_kappa, n_points=400,
                    t_past_kappa=15.0):
    """A protocol whose grid runs from t = 0 to t_past_kappa/kappa past the window."""
    sigma = sigma_over_kappa * KAPPA
    delay = 5.0 / KAPPA + 10.0 / sigma
    return PulseProtocol(g=g_over_kappa * KAPPA, kappa=KAPPA, gamma=gamma_over_kappa * KAPPA,
                         sigma=sigma, delay_L=delay,
                         t_grid=np.linspace(0.0, delay + 10.0 / sigma + t_past_kappa / KAPPA,
                                            n_points))


def critical_g(nu_over_d, gamma_over_kappa):
    d = 0.5 * (1.0 - gamma_over_kappa)
    return d * math.sqrt(1.0 - math.copysign(nu_over_d**2, nu_over_d))


#: pulse widths and (g, gamma)/kappa of the window protocols
WINDOW_SIGMAS = [0.03, 0.3, 5.6, 20.0]
WINDOW_RATES = [
    (1.3, 0.0), (0.9, 0.25),                             # underdamped
    (0.2, 0.0), (0.05, 0.4),                             # overdamped
    (0.5, 0.0), (critical_g(0.0, 0.3), 0.3),             # exactly critical
    (critical_g(1e-3, 0.0), 0.0), (critical_g(-1e-3, 0.0), 0.0),
    (critical_g(1e-3, 0.3), 0.3), (critical_g(-1e-3, 0.3), 0.3)]


class TestFreeEvolution:
    """Past the pulse window the state is propagated by exp(M (t - hi))."""

    @pytest.mark.parametrize("sigma_over_kappa", WINDOW_SIGMAS)
    @pytest.mark.parametrize("g_over_kappa, gamma_over_kappa", WINDOW_RATES)
    def test_past_window_matches_high_precision(self, g_over_kappa, gamma_over_kappa,
                                                sigma_over_kappa):
        p = window_protocol(g_over_kappa, gamma_over_kappa, sigma_over_kappa)
        lo, hi = swap.pulse_window(p)
        ua, vb = filtered_input(p, p.t_grid)
        ub = -1j * vb
        dense_a, dense_b = filtered_input(p, np.linspace(max(lo, 0.0), hi, 4001))
        scale = max(np.max(np.hypot(abs(ua), abs(ub))),
                    np.max(np.hypot(abs(dense_a), abs(dense_b))))
        past = np.flatnonzero(p.t_grid >= hi)
        for i in past[np.linspace(0, past.size - 1, 6).astype(int)]:
            ref_a, ref_b = past_window_reference(p, p.t_grid[i])
            assert abs(ua[i] - ref_a) <= 1e-13 * scale, (i, ua[i], ref_a)
            assert abs(ub[i] - ref_b) <= 1e-13 * scale, (i, ub[i], ref_b)

    def test_long_overdamped_grid(self):
        # g = 0.01 kappa: the slow mode decays at about g^2/kappa, so the
        # grid reaches 1e4/kappa; the real exponentials must not overflow
        p = window_protocol(0.01, 0.0, 5.6, n_points=20001, t_past_kappa=1e4)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            ua, vb = filtered_input(p, p.t_grid)
        ub = -1j * vb
        n = 2.0 * p.kappa * np.abs(ub) ** 2
        assert np.all(np.isfinite(ua)) and np.all(np.isfinite(n)) and np.all(n >= 0.0)
        scale = np.max(np.hypot(abs(ua), abs(ub)))
        ref_a, ref_b = past_window_reference(p, p.t_grid[-1])
        assert abs(ref_b) > 1e-3 * scale  # the slow mode is still populated
        assert abs(ua[-1] - ref_a) <= 1e-13 * scale and abs(ub[-1] - ref_b) <= 1e-13 * scale

    @pytest.mark.parametrize("g_over_kappa", [1.0, 0.5])  # Faddeeva route, series route
    def test_convolution_sees_only_window_times(self, g_over_kappa, monkeypatch):
        # u_a's convolutions, and the window forms of the v_b route
        convolution, window, seen = pulse._gaussian_convolution, swap._window, []

        def recording_convolution(lam, t, lo, p):
            seen.append((t.min(), t.max()))
            return convolution(lam, t, lo, p)

        def recording_window(route, p, t_in, *args):
            seen.append((t_in.min(), t_in.max()))
            return window(route, p, t_in, *args)

        monkeypatch.setattr(pulse, "_gaussian_convolution", recording_convolution)
        monkeypatch.setattr(swap, "_window", recording_window)
        protocol = standard(g_over_kappa)
        phonon_trace(protocol)
        assert len(seen) == 1
        output_field_envelope(protocol, protocol.t_grid)
        lo, hi = swap.pulse_window(protocol)
        assert len(seen) >= 2
        assert all(max(lo, 0.0) < t_min and t_max <= hi for t_min, t_max in seen)

    def test_pulse_over_before_t0_gives_exact_zeros(self):
        protocol = standard(1.0, delay_kappa=-5.0)  # window closes at -3.2/kappa
        ua, ub = filtered_input(protocol, protocol.t_grid)
        assert not np.any(ua) and not np.any(ub)
        trace = phonon_trace(protocol)
        assert np.all(trace.n_phonon == 0.0)
        with pytest.raises(NoSwapError):
            refined_peak(trace)


def shadow_points(n):
    """Shadowed trace points on an n-point trace: every 20th grid point, the
    argmax and its neighbours."""
    i = int(np.argmax(n))
    return np.unique(np.r_[np.arange(0, n.size, 20), np.clip([i - 1, i, i + 1], 0, n.size - 1)])


def swap_map_points(seed, g_range=(0.25, 1.85), sigma_range=(1.0, 10.0), strata=4):
    """One seeded (g/kappa, sigma/kappa) point in each cell of the swap map's
    strata x strata grid, drawn as perfbench's swap-map workload draws them."""
    rng = random.Random(seed)
    (g_lo, g_hi), (s_lo, s_hi) = g_range, sigma_range
    return [(g_lo + (i + rng.random()) * (g_hi - g_lo) / strata,
             s_lo + (j + rng.random()) * (s_hi - s_lo) / strata)
            for i in range(strata) for j in range(strata)]


#: the critical-coupling series over a long window (sigma = 0.03 kappa, the
#: window 667/kappa wide) loses digits in its moment recurrence, whose
#: alpha = t - L - h beta reaches 1100/kappa against tau <= 667/kappa:
#: 8.6e-14 to 3.4e-13 of the peak, on the complex and the real v_b route alike;
#: this bound holds those six protocols alone, the critical and near-critical
#: window rates at sigma = 0.03 kappa
LONG_SERIES_BOUND = 1e-12
LONG_SERIES_RATES = WINDOW_RATES[4:]


_SHADOWS: dict = {}


def cached_shadow(p, idx):
    """``trace_shadow(p, p.t_grid[idx])``, formed once per protocol and points in
    a process: the shadow classes below share it."""
    key = (p.g, p.kappa, p.gamma, p.sigma, p.delay_L, p.t_grid.tobytes(), tuple(idx))
    if key not in _SHADOWS:
        _SHADOWS[key] = trace_shadow(p, p.t_grid[idx])
    return _SHADOWS[key]


def scalar_protocol(p):
    """The protocol as the scalar route's ``levicav.swap.SwapProtocol``."""
    return swap.SwapProtocol(g=p.g, kappa=p.kappa, gamma=p.gamma, sigma=p.sigma,
                             delay_L=p.delay_L, t_grid=p.t_grid.tolist(), omega_t=p.omega_t)


class TestTraceShadow:
    """The phonon trace against the 40-digit closed form of ``trace_shadow``
    (``tests/oracles.py``) at every 20th grid point, the argmax and its
    neighbours: each printed ``.6g`` value correctly rounded, and the error
    at most 1e-14 of the peak."""

    @staticmethod
    def trace(p):
        return phonon_trace(p).n_phonon

    @staticmethod
    def vb(p):
        return filtered_input(p, p.t_grid)[1]

    def check(self, p, n, bound=1e-14):
        mp = pytest.importorskip("mpmath")
        idx = shadow_points(n)
        _, vb = cached_shadow(p, idx)
        peak = n.max()
        with mp.workdps(40):
            for i, v in zip(idx, vb):
                exact = 2 * mp.mpf(p.kappa) * v * v
                assert abs(mp.mpf(float(n[i])) - exact) <= bound * peak, (i, n[i], exact)
                assert f"{n[i]:.6g}" == f"{float(mp.nstr(exact, 6)):.6g}", (i, n[i], exact)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_traces(self, preset):
        p = build_protocol(scenario_from_dict(preset_scenario_dict(preset)))
        self.check(p, self.trace(p))

    @pytest.mark.parametrize("sigma_over_kappa", WINDOW_SIGMAS)
    @pytest.mark.parametrize("g_over_kappa, gamma_over_kappa", WINDOW_RATES)
    def test_window_protocols(self, g_over_kappa, gamma_over_kappa, sigma_over_kappa):
        # 400 points are too coarse for the trace's interpolation check, so
        # n is formed as the trace forms it, 2 kappa v_b^2 from the v_b route
        p = window_protocol(g_over_kappa, gamma_over_kappa, sigma_over_kappa)
        n = 2.0 * p.kappa * self.vb(p) ** 2
        long_series = ((g_over_kappa, gamma_over_kappa) in LONG_SERIES_RATES
                       and sigma_over_kappa == 0.03)
        self.check(p, n, LONG_SERIES_BOUND if long_series else 1e-14)

    @pytest.mark.parametrize("nu_over_d, gamma_over_kappa, sigma_over_kappa, delay_kappa", [
        (0.1, 0.0, 1.0, 1.0), (-0.1, 0.0, 1.0, 1.0),  # the series, the pulse cut at t = 0
        (-3e-3, 0.4053, 0.03, 0.8)])                  # just past critical, off the series
    def test_edge_protocols(self, nu_over_d, gamma_over_kappa, sigma_over_kappa, delay_kappa):
        # where the series' boundary terms at lo = 0 weigh, so tau^k counts,
        # and where the lower-limit term's phase lies near pi
        p = PulseProtocol.standard(g=critical_g(nu_over_d, gamma_over_kappa) * KAPPA, kappa=KAPPA,
                                   gamma=gamma_over_kappa * KAPPA,
                                   sigma_over_kappa=sigma_over_kappa, delay_kappa=delay_kappa)
        self.check(p, 2.0 * p.kappa * self.vb(p) ** 2)

    @pytest.mark.parametrize("g_over_kappa, sigma_over_kappa", swap_map_points(seed=29),
                             ids=lambda v: f"{v:.3f}")
    def test_swap_map_strata(self, g_over_kappa, sigma_over_kappa):
        # the benchmark's requests: the sphere preset and its 2000-point grid
        doc = preset_scenario_dict("sphere-appendix-h")
        doc["protocol"] |= dict(g_over_kappa=g_over_kappa, sigma_over_kappa=sigma_over_kappa)
        p = build_protocol(scenario_from_dict(doc))
        self.check(p, self.trace(p))


class TestScalarTraceShadow(TestTraceShadow):
    """The scalar route of ``levicav.swap``, which ``levicav trace`` runs, at
    every protocol and bound of ``TestTraceShadow``."""

    @staticmethod
    def trace(p):
        return np.array(swap.phonon_trace(scalar_protocol(p)).n_phonon)

    @staticmethod
    def vb(p):
        return np.array(swap.vb_values(scalar_protocol(p), p.t_grid.tolist()))


#: u_a's critical-coupling series, on the np.power rounding the output field
#: keeps, at sigma = 0.3 kappa and gamma = 0.3 kappa (the window 67/kappa
#: wide): 1.34e-14 to 1.38e-14 of the envelope's peak; the bound of those
#: three window protocols alone
SERIES_ENVELOPE_BOUND = 2e-14


class TestOutputFieldShadow:
    """The output field against 2 kappa u_a - f(t - L) at 40 digits, u_a from
    ``trace_shadow``, at the trace's shadow points: the error at most 1e-14 of
    the envelope's peak over the grid; the six long-series window protocols
    at sigma = 0.03 kappa at most LONG_SERIES_BOUND, as their traces, and the
    three damped ones among them at sigma = 0.3 kappa at most
    SERIES_ENVELOPE_BOUND."""

    def check(self, p, n, bound=1e-14):
        mp = pytest.importorskip("mpmath")
        idx = shadow_points(n)
        ua, _ = cached_shadow(p, idx)
        envelope = output_field_envelope(p, p.t_grid)
        peak = np.abs(envelope).max()
        with mp.workdps(40):
            sigma, delay = mp.mpf(p.sigma), mp.mpf(p.delay_L)
            norm = (sigma**2 / (2 * mp.pi)) ** mp.mpf(0.25)
            for i, u in zip(idx, ua):
                s = mp.mpf(float(p.t_grid[i])) - delay
                exact = 2 * mp.mpf(p.kappa) * u - norm * mp.exp(-sigma**2 * s**2 / 4)
                assert abs(mp.mpf(float(envelope[i])) - exact) <= bound * peak, (i, envelope[i])

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_envelopes(self, preset):
        p = build_protocol(scenario_from_dict(preset_scenario_dict(preset)))
        self.check(p, phonon_trace(p).n_phonon)

    @pytest.mark.parametrize("sigma_over_kappa", WINDOW_SIGMAS)
    @pytest.mark.parametrize("g_over_kappa, gamma_over_kappa", WINDOW_RATES)
    def test_window_protocols(self, g_over_kappa, gamma_over_kappa, sigma_over_kappa):
        p = window_protocol(g_over_kappa, gamma_over_kappa, sigma_over_kappa)
        series = (g_over_kappa, gamma_over_kappa) in LONG_SERIES_RATES
        bound = (LONG_SERIES_BOUND if series and sigma_over_kappa == 0.03 else
                 SERIES_ENVELOPE_BOUND if series and sigma_over_kappa == 0.3
                 and gamma_over_kappa == 0.3 else 1e-14)
        self.check(p, 2.0 * p.kappa * filtered_input(p, p.t_grid)[1] ** 2, bound)


def complex_filtered_input(p, times):
    """The filtered input and _free_evolution as they were in complex arithmetic:
    (u_a, u_b) from both convolutions, divided by the complex 2 nu."""
    t = np.asarray(times, dtype=float)
    u_a, u_b = np.zeros(t.shape, dtype=complex), np.zeros(t.shape, dtype=complex)
    lo, hi = swap.pulse_window(p)
    lo = max(lo, 0.0)
    if hi <= 0.0:
        return u_a, u_b
    inside, after = (t > lo) & (t < hi), t >= hi
    t_live = np.append(t[inside], hi)
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2 = d * d - p.g * p.g
    nu = complex(np.sqrt(complex(nu2)))
    beta = 2.0 / p.sigma**2
    alpha = t_live - p.delay_L - h * beta
    span = (t_live - lo) + np.abs(alpha) + math.sqrt(2 * swap.SERIES_TERMS * beta)
    series = abs(nu) * span <= 1.0
    ua, ub = np.empty((2,) + t_live.shape, dtype=complex)
    if np.any(series):
        ts, al = t_live[series], alpha[series]
        tau_lo = ts - lo
        edge_lo = np.exp(-h * tau_lo - 0.25 * p.sigma**2 * (lo - p.delay_L) ** 2)
        edge_t = np.exp(-0.25 * p.sigma**2 * (ts - p.delay_L) ** 2)
        j_prev, j = 0.0, pulse._gaussian_convolution(-h, ts, lo, p).real
        cosh_part = sinh_part = 0.0
        weight = 1.0
        for k in range(2 * swap.SERIES_TERMS):
            if k % 2:
                sinh_part = sinh_part + weight * j
            else:
                cosh_part = cosh_part + weight * j
            weight *= (nu2 if k % 2 else 1.0) / (k + 1)
            j_prev, j = j, (al * j + k * beta * j_prev
                            + beta * ((edge_t if k == 0 else 0.0) - tau_lo**k * edge_lo))
        ua[series] = cosh_part - d * sinh_part
        ub[series] = -1j * p.g * sinh_part
    rest = ~series
    if np.any(rest):
        plus = pulse._gaussian_convolution(-h + nu, t_live[rest], lo, p)
        minus = pulse._gaussian_convolution(-h - nu, t_live[rest], lo, p)
        ua[rest] = 0.5 * (plus + minus) - d * (plus - minus) / (2.0 * nu)
        ub[rest] = -1j * p.g * (plus - minus) / (2.0 * nu)
    norm = (p.sigma**2 / (2.0 * math.pi)) ** 0.25
    ua, ub = norm * ua, norm * ub
    u_a[inside], u_b[inside] = ua[:-1], ub[:-1]
    tau = t[after] - hi
    if nu2 < 0.0:
        omega = math.sqrt(-nu2)
        decay = np.exp(-h * tau)
        c, s = decay * np.cos(omega * tau), decay * np.sin(omega * tau) / omega
    elif nu2 > 0.0:
        nu = math.sqrt(nu2)
        decay, em = np.exp((nu - h) * tau), np.expm1(-2.0 * nu * tau)
        c, s = decay * (1.0 + 0.5 * em), decay * em / (-2.0 * nu)
    else:
        c = np.exp(-h * tau)
        s = tau * c
    gs = p.g * s
    u_a[after] = (c - d * s) * ua[-1] + gs * (-1j * ub[-1])
    u_b[after] = (c + d * s) * ub[-1] + gs * (-1j * ua[-1])
    return u_a, u_b


def bit_identity_protocols(kappa, gamma_over_kappa, rng):
    """Under-, over-, exactly critically and near-critically (nu/d = +-1e-3)
    damped protocols, each on grids that end before hi, straddle it and
    start after it, plus the straddling grid shuffled."""
    gamma = gamma_over_kappa * kappa
    d = 0.5 * (kappa - gamma)
    for g in (1.3 * kappa, 0.2 * kappa, d, critical_g(1e-3, gamma_over_kappa) * kappa,
              critical_g(-1e-3, gamma_over_kappa) * kappa):
        sigma, delay = rng.uniform(0.05, 60.0) * kappa, rng.uniform(1.0, 8.0) / kappa
        hi = delay + 10.0 / sigma
        for start, stop, n in ((0.0, 0.5 * (delay + hi), 400),
                               (0.0, hi + 10.0 / kappa, 2000),
                               (hi + 1e-3 / kappa, hi + 10.0 / kappa, 50)):
            p = PulseProtocol(g=g, kappa=kappa, gamma=gamma, sigma=sigma, delay_L=delay,
                              t_grid=np.linspace(start, stop, n))
            yield p, p.t_grid
        yield p, rng.permutation(np.linspace(0.0, hi + 10.0 / kappa, 2000))


class TestRealArithmetic:
    """u_a in real arithmetic gives the complex form's values bit for bit, and
    so does the output field; v_b, on its own real-arithmetic route, and the
    trace are within 1e-14 of their peaks."""

    @pytest.mark.parametrize("kappa", [1.0, KAPPA])
    @pytest.mark.parametrize("gamma_over_kappa", [0.0, 0.3])
    def test_bit_identical_to_complex_form(self, kappa, gamma_over_kappa):
        rng = np.random.default_rng(int(10 * gamma_over_kappa) + (kappa == 1.0))
        traces = 0
        for p, times in bit_identity_protocols(kappa, gamma_over_kappa, rng):
            ua, vb = filtered_input(p, times)
            ua_ref, ub_ref = complex_filtered_input(p, times)
            assert np.array_equal(ua, ua_ref)
            assert np.abs(-1j * vb - ub_ref).max() <= 1e-14 * np.abs(ub_ref).max()
            assert np.array_equal(output_field_envelope(p, times),
                                  2.0 * p.kappa * ua_ref - pulse_envelope(times - p.delay_L,
                                                                          p.sigma))
            if times is p.t_grid:
                try:
                    n = phonon_trace(p).n_phonon
                except GridError:  # the grids that end before or start after hi
                    continue       # may be too coarse to sample the trace
                n_ref = 2.0 * p.kappa * abs(ub_ref) ** 2
                assert np.abs(n - n_ref).max() <= 1e-14 * n_ref.max()
                traces += 1
        assert traces >= 5  # the straddling grid of every protocol at least

    @pytest.mark.parametrize("kappa", [1.0, KAPPA])
    def test_short_pulse_is_an_impulse(self, kappa):
        # at sigma = 1e17 kappa, 10/sigma is below the resolution of L and
        # the window closes to a point; the kick of the pulse area remains
        scaled = []
        for sigma_over_kappa in (1e12, 1e14, 1e17):
            protocol = PulseProtocol.standard(g=kappa, kappa=kappa,
                                              sigma_over_kappa=sigma_over_kappa)
            scaled.append(refined_peak(phonon_trace(protocol))[1] * sigma_over_kappa)
        assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-6)


def product_series(moments, nu2, beta):
    """``_series`` as it was, a new array per operation: the reference for the
    in-place loop."""
    al, tau_lo, edge, edge_t, j = moments
    j_prev, parts, weight = 0.0, [0.0, 0.0], 1.0
    for k in range(2 * swap.SERIES_TERMS - 1):
        parts[k % 2] = parts[k % 2] + weight * j
        weight *= (nu2 if k % 2 else 1.0) / (k + 1)
        j_prev, j = j, al * j + k * beta * j_prev + beta * ((edge_t if k == 0 else 0.0)
                                                            - tau_lo**k * edge)
    return parts[0], parts[1] + weight * j


class TestSeriesLoop:
    """The critical-coupling series' in-place loop against the loop it replaced."""

    def test_in_place_loop_bit_identical(self, monkeypatch):
        # u_a's series on seeded near-critical protocols, from deep inside the
        # series' range to its edge, where later terms weigh: the sums bit for
        # bit, inputs untouched
        series, seen = pulse._series, []

        def recording(moments, nu2, beta):
            copies = [m.copy() for m in moments]
            out = series(moments, nu2, beta)
            assert all(np.array_equal(a, b) for a, b in zip(copies, moments))
            seen.append((copies, nu2, beta, out))
            return out

        monkeypatch.setattr(pulse, "_series", recording)
        rng = np.random.default_rng(41)
        for _ in range(60):
            gamma_over_kappa = rng.choice([0.0, rng.uniform(0.0, 0.9)])
            nu_over_d = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4.0, -0.5)
            p = PulseProtocol.standard(
                g=critical_g(nu_over_d, gamma_over_kappa) * KAPPA, kappa=KAPPA,
                gamma=gamma_over_kappa * KAPPA, sigma_over_kappa=rng.uniform(0.5, 10.0),
                delay_kappa=rng.uniform(1.0, 8.0), n_points=int(rng.integers(400, 3000)))
            filtered_input(p, p.t_grid)
        assert len(seen) >= 40
        for moments, nu2, beta, (even, odd) in seen:
            ref_even, ref_odd = product_series(moments, nu2, beta)
            assert even.tobytes() == ref_even.tobytes() and odd.tobytes() == ref_odd.tobytes()


def mask_filtered_input(p, times):
    """filtered_input as it was with boolean masks over the times and the
    per-time span of the critical-coupling series, on the per-time-point
    convolution: the reference for the slice-based form."""
    t = np.asarray(times, dtype=float)
    u_a, v_b = np.zeros(t.shape), np.zeros(t.shape)
    lo, hi = swap.pulse_window(p)
    if hi <= 0.0:
        return u_a, v_b
    after = t >= hi
    if min(hi - p.delay_L, p.delay_L - lo) < 9.0 / p.sigma:
        area = (8.0 * math.pi / p.sigma**2) ** 0.25
        u_a[after], v_b[after] = pair_free_evolution(p, t[after] - hi, area, 0.0)
        return u_a, v_b
    lo = max(lo, 0.0)
    inside = (t > lo) & (t < hi)
    t_live = np.append(t[inside], hi)
    h, d = 0.5 * (p.kappa + p.gamma), 0.5 * (p.kappa - p.gamma)
    nu2 = d * d - p.g * p.g
    nu = complex(np.sqrt(complex(nu2)))
    beta = 2.0 / p.sigma**2
    alpha = t_live - p.delay_L - h * beta
    span = (t_live - lo) + np.abs(alpha) + math.sqrt(2 * swap.SERIES_TERMS * beta)
    series = abs(nu) * span <= 1.0
    ua, vb = np.empty((2,) + t_live.shape)
    if np.any(series):
        ts, al = t_live[series], alpha[series]
        tau_lo = ts - lo
        edge_lo = np.exp(-h * tau_lo - 0.25 * p.sigma**2 * (lo - p.delay_L) ** 2)
        edge_t = np.exp(-0.25 * p.sigma**2 * (ts - p.delay_L) ** 2)
        j_prev, j = 0.0, per_time_point_convolution(-h, ts, lo, p).real
        cosh_part = sinh_part = 0.0
        weight = 1.0
        for k in range(2 * swap.SERIES_TERMS):
            if k % 2:
                sinh_part = sinh_part + weight * j
            else:
                cosh_part = cosh_part + weight * j
            weight *= (nu2 if k % 2 else 1.0) / (k + 1)
            j_prev, j = j, (al * j + k * beta * j_prev
                            + beta * ((edge_t if k == 0 else 0.0) - tau_lo**k * edge_lo))
        ua[series] = cosh_part - d * sinh_part
        vb[series] = p.g * sinh_part
    rest = ~series
    if np.any(rest):
        tr = t_live[rest]
        plus = per_time_point_convolution(-h + nu, tr, lo, p)
        if nu2 < 0.0:
            mean, dif, inv = plus.real, plus.imag, 1.0 / nu.imag
        else:
            minus = per_time_point_convolution(-h - nu, tr, lo, p).real
            mean, dif, inv = 0.5 * (plus.real + minus), plus.real - minus, 1.0 / (2.0 * nu.real)
        ua[rest] = mean - (d * dif) * inv
        vb[rest] = (p.g * dif) * inv
    norm = (p.sigma**2 / (2.0 * math.pi)) ** 0.25
    ua, vb = norm * ua, norm * vb
    u_a[inside], v_b[inside] = ua[:-1], vb[:-1]
    u_a[after], v_b[after] = pair_free_evolution(p, t[after] - hi, ua[-1], vb[-1])
    return u_a, v_b


def pair_free_evolution(p, tau, ua0, vb0):
    """_free_evolution as it was, propagating the pair (u_a, v_b) together."""
    c, s = pulse._free_evolution(p, tau)
    gs = p.g * s
    ua = (c - 0.5 * (p.kappa - p.gamma) * s) * ua0 - gs * vb0
    vb = s  # (c + d s) vb0 + g s ua0, in place
    vb *= 0.5 * (p.kappa - p.gamma)
    vb += c
    vb *= vb0
    gs *= ua0
    vb += gs
    return ua, vb


def series_threshold_protocol(kappa, gamma_over_kappa):
    """A protocol at the edge of the critical-coupling series: |nu| times
    the lower bound (L + h beta - lo) + sqrt(2 K beta) of the per-time span
    rounds above 1, yet the rounded span at some window times stays within
    1/|nu|. With |nu| several times d, an ulp of g moves |nu| by about an ulp."""
    gamma, delay = gamma_over_kappa * kappa, 5.0 / kappa
    h, d = 0.5 * (kappa + gamma), 0.5 * (kappa - gamma)
    grid = np.linspace(0.0, 12.0 / kappa, 4000)
    for sigma in np.linspace(40.0, 60.0, 201) * kappa:
        beta = 2.0 / sigma**2
        tail = math.sqrt(2 * swap.SERIES_TERMS * beta)
        lo, hi = max(delay - 10.0 / sigma, 0.0), delay + 10.0 / sigma
        t = grid[(grid > lo) & (grid < hi)]
        span = (t - lo) + np.abs(t - delay - h * beta) + tail
        bound = delay + h * beta - lo + tail
        g = math.sqrt(d * d + bound**-2)
        for _ in range(8):
            nu = abs(complex(np.sqrt(complex(d * d - g * g))))
            if nu * bound > 1.0 and np.any(nu * span <= 1.0):
                return PulseProtocol(g=g, kappa=kappa, gamma=gamma, sigma=sigma,
                                     delay_L=delay, t_grid=grid)
            g = np.nextafter(g, math.inf)
    raise AssertionError("no protocol at the series threshold")


class TestSliceWindow:
    """The window and tail as slices of sorted times, and the scalar guard
    on the critical-coupling series, give the mask-based u_a and output
    field bit for bit, and v_b and the trace within 1e-14 of their peaks;
    the trace is 2 kappa v_b^2 of the v_b route bit for bit."""

    @pytest.mark.parametrize("kappa", [1.0, KAPPA])
    @pytest.mark.parametrize("gamma_over_kappa", [0.0, 0.3])
    def test_bit_identical_to_mask_form(self, kappa, gamma_over_kappa, monkeypatch):
        rng = np.random.default_rng(20 + int(10 * gamma_over_kappa) + (kappa == 1.0))
        convolution, series_calls = pulse._gaussian_convolution, []

        def recording_convolution(lam, t, lo, p):
            hi = swap.pulse_window(p)[1]
            assert lo < t.min() and t.max() <= hi  # the open window (lo, hi) and hi
            series_calls.append(isinstance(lam, float))
            return convolution(lam, t, lo, p)

        monkeypatch.setattr(pulse, "_gaussian_convolution", recording_convolution)
        p = series_threshold_protocol(kappa, gamma_over_kappa)
        lo, hi = swap.pulse_window(p)  # lo > 0: a grid can start on it
        cases = [*bit_identity_protocols(kappa, gamma_over_kappa, rng), (p, p.t_grid),
                 (p, np.linspace(lo, hi + 2.0 / kappa, 500))]
        # impulses (at 1e17 kappa the window closes to a point), on a grid
        # fine enough for the kick, and a pulse that ends before t = 0
        rates = dict(g=kappa, kappa=kappa, gamma=gamma_over_kappa * kappa)
        for q in [*(PulseProtocol.standard(**rates, sigma_over_kappa=s, n_points=4000)
                    for s in (1e12, 1e14, 1e17)),
                  PulseProtocol.standard(**rates, delay_kappa=-5.0)]:
            cases.append((q, q.t_grid))
        traces = 0
        for p, times in cases:
            pairs = rng.permutation(times)[:times.size // 2 * 2]
            for t in (times, np.sort(rng.choice(times, times.size)), rng.choice(times, 60),
                      float(rng.choice(times)), pairs.reshape(2, -1)):
                ua_ref, vb_ref = mask_filtered_input(p, t)
                ua, vb = filtered_input(p, t)
                assert ua.shape == vb.shape == np.shape(t)
                assert np.array_equal(ua, ua_ref)
                scale = np.abs(vb_ref).max(initial=0.0)
                assert np.abs(vb - vb_ref).max(initial=0.0) <= 1e-14 * scale
                assert np.array_equal(output_field_envelope(p, t),
                                      2.0 * p.kappa * ua_ref - pulse_envelope(t - p.delay_L,
                                                                              p.sigma))
            if times is p.t_grid:
                try:
                    trace = phonon_trace(p)
                except GridError:  # the grids that end before or start after hi
                    continue       # may be too coarse to sample the trace
                n = 2.0 * p.kappa * mask_filtered_input(p, p.t_grid)[1] ** 2
                assert np.abs(trace.n_phonon - n).max() <= 1e-14 * n.max()
                assert np.array_equal(trace.n_phonon,
                                      2.0 * p.kappa * filtered_input(p, p.t_grid)[1] ** 2)
                i = np.argmax(trace.n_phonon)
                assert (trace.peak_time, trace.peak_value) == (p.t_grid[i], trace.n_phonon[i])
                assert abs(trace.peak_value - n.max()) <= 1e-14 * n.max()
                traces += 1
        assert traces >= 10 and any(series_calls)


class TestOracles:
    def test_direct_and_moment_routes_agree_at_peak(self):
        protocol = standard(1.0)
        t_star, _ = refined_peak(phonon_trace(protocol))
        direct = phonon_expectation_direct(protocol, t_star)
        moments = phonon_expectation_moments(protocol, t_star)
        assert moments == pytest.approx(direct, rel=1e-6)

    def test_production_trace_matches_oracles(self):
        protocol = standard(1.0)
        trace = phonon_trace(protocol)
        t = float(trace.times[len(trace.times) // 2])
        n = float(trace.n_phonon[len(trace.times) // 2])
        assert n == pytest.approx(phonon_expectation_direct(protocol, t), rel=1e-8, abs=1e-14)

    def test_oracles_agree_with_damping(self):
        protocol = PulseProtocol.standard(g=KAPPA, kappa=KAPPA, gamma=0.3 * KAPPA)
        t_star, _ = refined_peak(phonon_trace(protocol))
        direct = phonon_expectation_direct(protocol, t_star)
        moments = phonon_expectation_moments(protocol, t_star)
        assert moments == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("g_over_kappa, gamma_over_kappa",
                             [(0.25, 0.0), (0.5, 0.0), (1.0, 0.3), (2.0, 0.0)])
    def test_cavity_population_matches_filtered_input(self, g_over_kappa, gamma_over_kappa):
        # the intracavity photon number 2 kappa u_a^2 behind the output field,
        # over- and underdamped and at exactly critical coupling (g = kappa/2)
        p = PulseProtocol.standard(g=g_over_kappa * KAPPA, kappa=KAPPA,
                                   gamma=gamma_over_kappa * KAPPA)
        t = p.t_grid[::50]
        ua, _ = filtered_input(p, t)
        assert np.allclose(cavity_population(p, t), 2.0 * p.kappa * ua**2, rtol=0.0, atol=1e-12)


def legendre_reference(n, dps=40):
    """Nodes x >= 0 (ascending) and weights of the n-point Gauss-Legendre
    rule at dps digits: Newton's method on P_n's three-term recurrence,
    started from numpy's eigenvalue nodes."""
    mp = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mp.workdps(dps):
        for x in np.polynomial.legendre.leggauss(n)[0][n // 2:]:
            x, dx = mp.mpf(x), 1
            while abs(dx) > mp.mpf(10) ** (5 - dps):
                p0, p1 = mp.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (p0 - x * p1) / (1 - x * x)
                dx = p1 / dp
                x -= dx
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


class TestGaussLegendre:
    """The oracle's nodes and weights, by Newton's method on the recurrence,
    against a 40-digit reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 160, 161, 400])
    def test_matches_high_precision(self, n):
        x, w = pulse._gauss_legendre(n)
        assert x.shape == w.shape == (n,) and not (x.flags.writeable or w.flags.writeable)
        nodes, weights = legendre_reference(n)
        mpf = type(nodes[0])
        assert max(abs(float(mpf(a) - b)) for a, b in zip(x[n // 2:], nodes)) <= 2e-16
        assert max(abs(float((mpf(a) - b) / b)) for a, b in zip(w[n // 2:], weights)) <= 1e-12
        assert abs(w.sum() - 2.0) <= 4e-15
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert (x[1:] > x[:-1]).all()
        if n % 2:
            middle = x[n // 2]
            assert middle == 0.0 and not np.signbit(middle)

    @pytest.mark.parametrize("n, error", [(0, ValueError), (-1, ValueError), (2.5, TypeError)])
    def test_invalid_node_count_rejected(self, n, error):
        with pytest.raises(error):
            pulse._gauss_legendre(n)
        with pytest.raises(error):
            phonon_expectation_direct(standard(1.0), 6.0 / KAPPA, n_nodes=n)


def literal_double_quadrature(p, t, n_nodes=160):
    """phonon_expectation_direct as it was: numpy's Gauss-Legendre rule and
    the n x n kernel of the Green's function against the input correlation."""
    lo, hi = swap.pulse_window(p)
    lo, hi = max(lo, 0.0), min(hi, t)
    if hi <= lo:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (hi - lo)
    s = lo + half * (x + 1.0)
    ws = half * w
    gvals = greens_ba(t - s, p.g, p.kappa, p.gamma)
    corr = pulse_envelope(s[:, None] - p.delay_L, p.sigma) * \
        pulse_envelope(s[None, :] - p.delay_L, p.sigma)
    kernel = np.conj(gvals)[:, None] * gvals[None, :] * corr
    return float(2.0 * p.kappa * np.real(np.einsum("i,ij,j->", ws, kernel, ws)))


def oracle_cases():
    """20 seeded protocols, under-, over- and critically damped, with and
    without gamma, each at odd and even node counts and at times before,
    inside and after the pulse window."""
    for seed in range(20):
        rng = np.random.default_rng(2300 + seed)
        gamma = (0.0, rng.uniform(0.05, 0.5))[seed % 2] * KAPPA
        d = 0.5 * (KAPPA - gamma)
        g = (rng.uniform(1.1, 3.0) * d, rng.uniform(0.1, 0.9) * d, d)[seed % 3]
        p = PulseProtocol.standard(g=g, kappa=KAPPA, gamma=gamma,
                                   sigma_over_kappa=rng.uniform(0.3, 20.0),
                                   delay_kappa=rng.uniform(2.0, 8.0))
        lo, hi = swap.pulse_window(p)
        times = (0.5 * max(lo, 0.0), rng.uniform(max(lo, 0.0), hi), p.delay_L,
                 hi + rng.uniform(0.0, 10.0) / KAPPA)
        yield p, times, (rng.integers(20, 200) * 2, rng.integers(20, 200) * 2 + 1)


class TestDirectQuadrature:
    """The factored single sum is the literal double quadrature, and it
    shares nothing with the production route."""

    def test_matches_literal_double_quadrature(self):
        inside = 0
        for p, times, node_counts in oracle_cases():
            for t in times:
                for n in node_counts:
                    direct = phonon_expectation_direct(p, t, n_nodes=n)
                    literal = literal_double_quadrature(p, t, n)
                    assert type(direct) is float
                    assert abs(direct - literal) <= 1e-12 * abs(literal) + 1e-15, (p, t, n)
                    inside += literal > 0.0
        assert inside >= 100

    def test_independent_of_the_production_route(self, monkeypatch):
        p = standard(1.0)
        expected = [phonon_expectation_direct(p, t / KAPPA) for t in (4.0, 6.0, 12.0)]

        def broken(*args, **kwargs):
            raise AssertionError("the oracle reached the production route")

        for name in ("_faddeeva", "_gaussian_convolution", "_sorted_filtered_input", "_sorted_vb"):
            monkeypatch.setattr(pulse, name, broken)
        assert [phonon_expectation_direct(p, t / KAPPA) for t in (4.0, 6.0, 12.0)] == expected

    def test_loads_no_polynomial_or_linalg_module(self):
        # numpy < 2 imports both with numpy itself; the call must add neither
        probe = ("import sys; from levicav import pulse; "
                 "p = pulse.PulseProtocol.standard(g=1.0, kappa=1.0); before = set(sys.modules); "
                 "value = pulse.phonon_expectation_direct(p, 6.0); "
                 "print(value, *sorted(m for m in set(sys.modules) - before "
                 "if m.startswith(('numpy.polynomial', 'numpy.linalg'))))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        value, *loaded = proc.stdout.split()
        assert loaded == []
        assert float(value) == phonon_expectation_direct(PulseProtocol.standard(g=1.0, kappa=1.0),
                                                         6.0)


class TestPhotonConservation:
    def test_emitted_quanta_recover_input(self):
        # g = 0, gamma = 0: everything reflects eventually
        protocol = standard(0.0, t_max_kappa=40.0, n_points=4000)
        t = np.linspace(0.0, 40.0 / KAPPA, 24001)
        emitted = simpson(np.abs(output_field_envelope(protocol, t)) ** 2, x=t)
        assert emitted == pytest.approx(1.0, abs=1e-4)

    def test_cavity_population_decays_at_2kappa(self):
        protocol = standard(0.0)
        t1 = protocol.delay_L + 4.0 / KAPPA
        t2 = protocol.delay_L + 6.0 / KAPPA
        n1, n2 = cavity_population(protocol, np.array([t1, t2]))
        assert n2 / n1 == pytest.approx(math.exp(-2.0 * KAPPA * (t2 - t1)), rel=1e-3)


class TestSwapTime:
    def test_no_swap_on_flat_trace(self):
        trace = phonon_trace(standard(0.0))
        with pytest.raises(NoSwapError):
            refined_peak(trace)

    def test_swap_time_near_grid_argmax(self):
        trace = phonon_trace(standard(1.0))
        t_star = refined_peak(trace)[0]
        step = trace.times[1] - trace.times[0]
        assert abs(t_star - trace.peak_time) <= step

    def test_delay_shift_moves_peak_rigidly(self):
        a = phonon_trace(standard(1.0, delay_kappa=5.0, t_max_kappa=20.0, n_points=4001))
        b = phonon_trace(standard(1.0, delay_kappa=7.0, t_max_kappa=22.0, n_points=4401))
        ta, va = refined_peak(a)
        tb, vb = refined_peak(b)
        assert (tb - ta) * KAPPA == pytest.approx(2.0, abs=1e-6)
        assert vb == pytest.approx(va, rel=1e-8)


def numpy_vertex(trace):
    """refined_peak as it was, on numpy scalars: the reference its Python floats pin."""
    n = trace.n_phonon
    i = int(n.argmax())
    if i == 0 or i == n.size - 1:
        return float(trace.times[i]), float(n[i])
    t0, t1, t2 = trace.times[i - 1: i + 2]
    y0, y1, y2 = n[i - 1: i + 2]
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0.0:
        return float(t1), float(y1)
    h = 0.5 * (t2 - t0)
    return float(t1 + 0.5 * h * (y0 - y2) / denom), float(y1 - 0.125 * (y0 - y2) ** 2 / denom)


class TestRefinedPeakBits:
    """refined_peak returns Python floats, bit for bit the numpy-scalar vertex."""

    @staticmethod
    def assert_pinned(trace):
        got = refined_peak(trace)
        assert all(type(v) is float for v in got)
        assert struct.pack("2d", *got) == struct.pack("2d", *numpy_vertex(trace))
        return got

    def test_seeded_traces(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = standard(rng.uniform(0.25, 1.85), gamma=rng.uniform(0.0, 0.3) * KAPPA,
                         sigma_over_kappa=rng.uniform(1.0, 10.0),
                         delay_kappa=rng.uniform(3.0, 8.0), n_points=int(rng.integers(2000, 4000)))
            self.assert_pinned(phonon_trace(p))

    def test_ends_and_flat_top(self):
        rng = np.random.default_rng(31)
        times = np.linspace(0.0, 20.0 / KAPPA, 200)
        for _ in range(200):
            n = rng.uniform(0.0, 0.5, times.size)
            end = rng.choice([0, -1])
            n[end] = 0.9  # the argmax at an end of the grid
            assert self.assert_pinned(PhononTrace(times, n, float(times[end]), 0.9)) == (
                float(times[end]), 0.9)
        # y0 - 2 y1 + y2 rounds to 0 with y0 an ulp below the peak y1 = y2
        n = np.full(times.size, 0.25)
        i = int(rng.integers(1, times.size - 2))
        n[i - 1: i + 2] = np.nextafter(1.0, 0.0), 1.0, 1.0
        trace = PhononTrace(times, n, float(times[i]), 1.0)
        assert n[i - 1] - 2.0 * n[i] + n[i + 1] == 0.0
        assert self.assert_pinned(trace) == (float(times[i]), 1.0)


class TestSuperposition:
    def test_node_at_displaced_center(self):
        state = conditional_superposition(3.2, 3.2)
        assert state.c0 == 0.0
        assert abs(state.c1) == pytest.approx(1.0, rel=1e-12)

    def test_normalization_for_random_outcomes(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x_L = rng.normal(0.0, 50.0)
            disp = rng.uniform(0.0, 1e4)
            s = conditional_superposition(x_L, disp)
            assert abs(s.c0) ** 2 + abs(s.c1) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_depend_only_on_offset(self):
        # tolerance reflects the roundoff of forming x_L = u + displacement
        # with displacements up to 1e4, not the algorithm itself
        rng = np.random.default_rng(29)
        for _ in range(50):
            u = rng.normal(0.0, 2.0)
            disp = rng.uniform(0.0, 1e4)
            a = conditional_superposition(u, 0.0)
            b = conditional_superposition(u + disp, disp)
            assert abs(b.c0) == pytest.approx(abs(a.c0), abs=1e-9)
            assert abs(b.c1) == pytest.approx(abs(a.c1), abs=1e-9)

    def test_conditional_probabilities_integrate_to_marginals(self):
        # pre-measurement outcome density p(x) = (psi0^2 + psi1^2)/2;
        # integrating each branch weight recovers the 1/2 : 1/2 marginals
        disp = 3.7
        x = np.linspace(disp - 12.0, disp + 12.0, 20001)
        u = x - disp
        psi0_sq = np.exp(-u**2) / math.sqrt(math.pi)
        psi1_sq = 2.0 * u**2 * psi0_sq
        density = 0.5 * (psi0_sq + psi1_sq)
        c0_sq = np.array([abs(conditional_superposition(xi, disp).c0) ** 2 for xi in x])
        c1_sq = 1.0 - c0_sq
        p_ground = simpson(density * c0_sq, x=x)
        p_excited = simpson(density * c1_sq, x=x)
        assert p_ground == pytest.approx(0.5, abs=1e-6)
        assert p_excited == pytest.approx(0.5, abs=1e-6)

    def test_negative_displacement_rejected(self):
        with pytest.raises(ValidationError):
            conditional_superposition(0.0, -1.0)


class TestAmplification:
    def test_starts_at_unity(self):
        mu, q = amplification_envelope(2.0 * KAPPA, KAPPA, 4.1e-13, 2.2e6, 0.0)
        assert float(mu) == 1.0
        assert float(q) == pytest.approx(4.1e-13, rel=1e-15)

    def test_zero_kappa_limit_is_cosh(self):
        g = 0.8
        t = np.linspace(0.0, 5.0, 50)
        mu, _ = amplification_envelope(g, 0.0, 1.0, 1.0, t)
        assert np.max(np.abs(mu - np.cosh(g * t))) < 1e-12

    def test_asymptotic_growth(self):
        g, kappa = 2.0, 1.0
        chi = math.sqrt(g**2 + kappa**2 / 4.0)
        t = np.linspace(5.0, 30.0, 200)
        mu, _ = amplification_envelope(g, kappa, 1.0, 1.0, t)
        assert np.all(np.diff(mu) > 0.0)
        growth = np.diff(np.log(mu)) / np.diff(t)
        assert growth[-1] == pytest.approx(chi - kappa / 2.0, rel=1e-6)

    def test_oscillation_envelope(self):
        omega_t = 2.0 * math.pi * 351e3
        q_m = 4.1e-13
        t = np.linspace(0.0, 4.0 / 351e3, 500)
        mu, q = amplification_envelope(1e5, 5e4, q_m, omega_t, t)
        assert np.max(np.abs(q - q_m * mu * np.cos(omega_t * t))) < 1e-20


def test_pulse_envelope_normalized():
    sigma = 5.6 * KAPPA
    t = np.linspace(-30.0 / sigma, 30.0 / sigma, 40001)
    assert simpson(pulse_envelope(t, sigma) ** 2, x=t) == pytest.approx(1.0, rel=1e-10)

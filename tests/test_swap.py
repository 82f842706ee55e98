"""The scalar trace route of ``levicav.swap``, which ``levicav trace`` runs
without numpy or scipy, against the numpy route of ``levicav.pulse`` and
against 40-digit references; the route's 40-digit trace shadow is
``TestScalarTraceShadow`` in ``tests/test_pulse.py``."""

import math
import random
import subprocess
import sys

import numpy as np
import pytest

from levicav import pulse, swap
from levicav.errors import GridError, LevicavError, NumericalError, ValidationError
from levicav.presets import PRESET_NAMES
from levicav.pulse import PhononTrace, PulseProtocol, phonon_trace
from levicav.scenario import build_protocol, preset_scenario_dict, scenario_from_dict
from test_cli import GATE_TRACE_ARGS as TRACE_ARGS
from test_pulse import tuple_twin

KAPPA = 1.177e6



def preset_protocols():
    """The presets' protocols, plain and with the gate's trace overrides."""
    for name in PRESET_NAMES:
        for extra in ({}, TRACE_ARGS[name]):
            doc = preset_scenario_dict(name)
            doc["protocol"] |= extra
            yield build_protocol(scenario_from_dict(doc))


def window_protocols():
    """``TestFreeEvolution``'s window protocols (tests/test_pulse.py)."""
    from test_pulse import WINDOW_RATES, WINDOW_SIGMAS, window_protocol
    for sigma in WINDOW_SIGMAS:
        for g, gamma in WINDOW_RATES:
            yield window_protocol(g, gamma, sigma)


def outcome(route, *args):
    """``route(*args)``, or the package error it raised."""
    try:
        return route(*args)
    except LevicavError as exc:
        return exc


def w_reference(z: complex, mp) -> complex:
    """Faddeeva's w(z) = e^{-z^2} erfc(-iz) at the working precision."""
    z = mp.mpc(z)
    return mp.exp(-z * z) * mp.erfc(-1j * z)


def evaluated_arguments(monkeypatch):
    """The arguments of ``swap.faddeeva`` and ``swap.erfcx`` over the scalar
    traces of the presets (plain and with the gate's overrides) and of the
    window protocols: the lines the route evaluates."""
    faddeeva, erfcx, seen = swap.faddeeva, swap.erfcx, ([], [])
    monkeypatch.setattr(swap, "faddeeva", lambda z: seen[0].append(z) or faddeeva(z))
    monkeypatch.setattr(swap, "erfcx", lambda y: seen[1].append(y) or erfcx(y))
    for p in (*preset_protocols(), *window_protocols()):
        swap.vb_values(p, p.t_grid.tolist())
    monkeypatch.undo()
    return seen


class TestFaddeeva:
    """Weideman's w(z) in pure Python, on the lines the scalar route evaluates."""

    def test_table_regenerated_with_numpy(self):
        # Weideman (1994), section 3: p's coefficients from one FFT
        n = len(swap._WEIDEMAN)
        m = 2 * n
        k = np.arange(-m + 1, m)
        big_l = math.sqrt(n / math.sqrt(2.0))
        t = big_l * np.tan(k * np.pi / (2 * m))
        f = np.r_[0.0, np.exp(-t**2) * (big_l**2 + t**2)]
        a = (np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m))[1:n + 1][::-1]
        assert n == 48 and swap._L == big_l
        # a few ulps of the largest coefficient: FFT rounding may differ by release
        assert np.abs(a - np.array(swap._WEIDEMAN)).max() <= 4 * np.finfo(float).eps * a.max()

    def test_matches_40_digits_on_the_route_lines(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        zs = evaluated_arguments(monkeypatch)[0]
        lines = sorted({z.real for z in zs})
        assert len(lines) >= 12 and min(lines) < 0.05 and max(lines) > 1.0
        # the evaluated points, thinned, and each line, and others from 0.01
        # to 1, from Im z = 0 up to 8
        sample = zs[::max(1, len(zs) // 600)] + [
            complex(x, y) for x in lines + np.linspace(0.01, 1.0, 12).tolist()
            for y in (0.0, 0.3, 1.0, 2.5, 5.0, 8.0)]
        with mp.workdps(40):
            for z in sample:
                got, want = swap.faddeeva(z), w_reference(z, mp)
                assert abs(mp.mpc(got) - want) <= 2e-15 * abs(want), (z, got)
                assert abs(mp.mpf(got.imag) - want.imag) <= 2e-15 * abs(want.imag), (z, got)

    def test_asymptotic_branch(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for z in (complex(0.3, 2e8), complex(5e8, 1.0), complex(1e-6, 1e12), 1e20j):
                got, want = swap.faddeeva(z), w_reference(z, mp)
                assert abs(mp.mpc(got) - want) <= 2e-15 * abs(want), (z, got)
            # where mpmath's erfc gives out, w(iy) = 1/(sqrt(pi) y) to 1/(2 y^2)
            y = mp.mpf(3e300)
            assert abs(swap.faddeeva(3e300j) - 1 / (mp.sqrt(mp.pi) * y)) <= 2e-15 / y

    def test_erfcx_is_w_on_the_imaginary_axis(self, monkeypatch):
        # the route's real rates take erfcx(y) = w(iy) for y >= 0: the same
        # operations in real arithmetic, and within 2e-15 of scipy's erfcx
        # from 0 up to the largest argument the route reaches and far beyond
        from scipy.special import erfcx
        reached = evaluated_arguments(monkeypatch)[1]
        ys = np.r_[reached, np.linspace(0.0, 1.5 * max(reached), 20001),
                   np.geomspace(1e-300, 1e300, 601)].tolist()
        assert max(reached) > 10.0
        got = [swap.erfcx(y) for y in ys]
        assert got == [swap.faddeeva(1j * y).real for y in ys]
        want = erfcx(np.array(ys))
        assert np.all(np.abs(np.array(got) - want) <= 2e-15 * want)


def grid_cases():
    """(t_max, n_points) of valid grids, and of grids with subnormal steps."""
    rng = random.Random(7)
    cases = [(20.0 / KAPPA, 2000), (1.0, 3), (1e308, 2000), (1e-321, 2000), (5e-324, 4),
             (3e-308, 1_000_000)]
    return cases + [(10 ** rng.uniform(-12, 5), rng.randint(3, 50_000)) for _ in range(30)]


class TestSharedRules:
    """The rules both routes take from ``levicav.swap``."""

    @pytest.mark.parametrize("t_max, n_points", grid_cases())
    def test_uniform_grid_is_linspace(self, t_max, n_points):
        times = swap.uniform_grid(t_max, n_points)
        want = np.linspace(0.0, t_max, n_points)
        assert swap.grid_error(times) is swap.grid_error(want.tolist())
        if swap.grid_error(times) is None:
            assert np.array_equal(np.array(times), want)
            assert np.array_equal(pulse._uniform_grid(t_max, n_points), want)

    def test_one_record_set(self):
        # both routes' records are defined once, in levicav.swap
        assert swap.PulseProtocol is pulse.PulseProtocol is PulseProtocol
        assert swap.PhononTrace is pulse.PhononTrace is PhononTrace

    @pytest.mark.parametrize("change", [
        dict(g=math.nan), dict(kappa=0.0), dict(gamma=-1.0), dict(sigma=math.inf),
        dict(delay_L=-math.inf), dict(omega_t=0.0), dict(t_grid=[0.0, 1.0]),
        dict(t_grid=[0.0, 2.0, 1.0]), dict(t_grid=[0.0, math.nan, 1.0]),
        dict(t_grid=[[0.0], [1e-6], [2e-6]]), dict(t_grid=[[0.0, 1e-6], [2e-6, 3e-6]])])
    def test_protocol_checks(self, change):
        fields = dict(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=5.6 * KAPPA, delay_L=5.0 / KAPPA,
                      t_grid=[0.0, 1e-6, 2e-6, 3e-6], omega_t=None) | change
        with pytest.raises(ValidationError) as on_array:
            PulseProtocol(**fields | {"t_grid": np.array(fields["t_grid"])})
        for grid in (fields["t_grid"], tuple(fields["t_grid"])):
            with pytest.raises(ValidationError, match=f"^{on_array.value}$"):
                PulseProtocol(**fields | {"t_grid": grid})

    @pytest.mark.parametrize("grid", [1.0, np.float64(1.0)], ids=["float", "numpy-float"])
    def test_grid_a_number(self, grid):
        with pytest.raises(ValidationError, match="^t_grid must be a strictly increasing 1-D"):
            PulseProtocol(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=KAPPA, delay_L=0.0, t_grid=grid)

    def test_grid_kept_by_type(self):
        # an array as np.asarray(grid, dtype=float) gives it, the same object
        # where it is one already; any other sequence as a tuple of floats
        fields = dict(g=KAPPA, kappa=KAPPA, gamma=0.0, sigma=KAPPA, delay_L=0.0)
        grid = np.linspace(0.0, 1e-5, 50)
        assert PulseProtocol(**fields, t_grid=grid).t_grid is grid
        kept = PulseProtocol(**fields, t_grid=np.arange(5)).t_grid
        assert kept.dtype == float and kept.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        for given in (grid.tolist(), tuple(grid.tolist()), range(5)):
            kept = PulseProtocol(**fields, t_grid=given).t_grid
            assert type(kept) is tuple and kept == tuple(map(float, given))
            assert all(type(t) is float for t in kept)


KINDS = ("underdamped", "overdamped", "critical", "near-critical", "cut at t = 0",
         "collapsed window", "closed by t = 0")


def two_step_grid(start, stop, n, fine_first=False):
    """About n times from start to stop in two linspace pieces, one of them
    with a step ten times finer than the other's."""
    n_coarse, n_fine = n // 2, n - n // 2 + 1
    step = (stop - start) / ((n_coarse - 1) + (n_fine - 1) / 10.0)
    pieces = [(n_coarse, step), (n_fine, step / 10.0)][::-1 if fine_first else 1]
    split = start + (pieces[0][0] - 1) * pieces[0][1]
    return np.concatenate((np.linspace(start, split, pieces[0][0]),
                           np.linspace(split, stop, pieces[1][0])[1:]))


def seeded_protocol(rng, kind):
    """One protocol of ``kind`` at sigma from kappa to 60 kappa: under-, over-,
    exactly and near-critically damped (nu/d = +-1e-3, +-1e-6) rates, each
    also with the window cut at t = 0, collapsed to a kick (sigma above about
    1e16 kappa) or closed by t = 0, on grids that run past the window, end
    before hi or start after it; a third of the grids are ``two_step_grid``s."""
    kappa, gamma_over_kappa = rng.choice((1.0, KAPPA)), rng.choice((0.0, 0.3))
    d = 0.5 * (1.0 - gamma_over_kappa)
    rates = {"underdamped": lambda: rng.uniform(1.05 * d, 3.0),
             "overdamped": lambda: rng.uniform(0.0, 0.95 * d),
             "critical": lambda: d,
             "near-critical": lambda: d * math.sqrt(1.0 - rng.choice((1e-6, 1e-12, -1e-6, -1e-12)))}
    g = rates.get(kind, rates[rng.choice(list(rates))])()
    sigma = 10 ** rng.uniform(15.5, 17.5) if kind == "collapsed window" else rng.uniform(1.0, 60.0)
    delay = {"cut at t = 0": rng.uniform(-0.9, 0.9) * 10.0 / sigma,
             "closed by t = 0": -rng.uniform(1.0, 3.0) * 10.0 / sigma}.get(kind, rng.uniform(1.0, 8.0))
    hi = delay + 10.0 / sigma
    grids = [(0.0, max(hi, 0.0) + rng.uniform(2.0, 10.0), rng.choice((400, 2000)))]
    if kind in rates:
        grids += [(0.0, 0.5 * (delay + hi), 400), (hi + 1e-3, hi + 10.0, 50)]
    start, stop, n = rng.choice(grids)
    grid = (two_step_grid(start, stop, n, rng.random() < 0.5) if rng.random() < 1 / 3
            else np.linspace(start, stop, n))
    return PulseProtocol(g=g * kappa, kappa=kappa, gamma=gamma_over_kappa * kappa,
                         sigma=sigma * kappa, delay_L=delay / kappa, t_grid=grid / kappa)


class TestAgainstNumpyRoute:
    """The scalar route gives the numpy route's trace, and its errors, on the
    same protocol, whose grid is an array or its tuple twin."""

    def test_seeded_protocols(self):
        # 2100 protocols, 300 of each kind. At sigma below kappa the routes
        # part by up to 2.4e-14 of the peak underdamped, where scipy's wofz
        # puts the numpy route 1e-14 to 2e-14 off the 40-digit closed form
        # (test_small_sigma_underdamped), and by up to 3e-13 on the
        # critical-coupling series, whose recurrence amplifies the last bits
        # of J_0 on either route (LONG_SERIES_BOUND in tests/test_pulse.py).
        # Every other protocol is the tuple twin of the one drawn.
        rng, traced, failed = random.Random(30), [], {}
        for i in range(2100):
            kind = KINDS[i % len(KINDS)]
            p = seeded_protocol(rng, kind)
            p = tuple_twin(p) if i % 2 else p
            t = np.asarray(p.t_grid)
            vb, vb_scalar = outcome(pulse._sorted_vb, p, t), outcome(swap.vb_values, p, t.tolist())
            n, n_scalar = (2.0 * p.kappa * np.asarray(v) ** 2 for v in (vb, vb_scalar))
            assert np.abs(n_scalar - n).max() <= 1e-14 * n.max(), (kind, p)
            trace, trace_scalar = outcome(phonon_trace, p), outcome(swap.phonon_trace, p)
            if isinstance(trace, Exception):
                assert type(trace_scalar) is type(trace), (kind, p, trace, trace_scalar)
                failed[type(trace).__name__] = failed.get(type(trace).__name__, 0) + 1
                continue
            assert trace_scalar.times == tuple(trace.times.tolist())
            assert np.abs(np.array(trace_scalar.n_phonon) - trace.n_phonon).max() \
                <= 1e-14 * trace.peak_value
            steps = np.diff(t)
            traced.append((steps.max() > 2.0 * steps.min(), i % 2))
        # two-step grids among them, which the grid check reads by their larger
        # step, and tuple grids
        assert len(traced) >= 500 and failed.get("GridError", 0) >= 500
        assert sum(two for two, _ in traced) >= 100 and sum(twin for _, twin in traced) >= 250

    def test_small_sigma_underdamped(self):
        # where the routes part: the scalar route stays within 1e-14 of the
        # peak of the 40-digit closed form at these points, where the numpy
        # route is 1.53e-14, 1.16e-14 and 1.22e-14 off (scipy 1.17.1's wofz)
        mp = pytest.importorskip("mpmath")
        from oracles import trace_shadow
        from test_pulse import shadow_points
        for g, sigma in ((1.6, 0.3), (2.0, 0.35), (3.0, 0.5)):
            p = PulseProtocol.standard(g=g * KAPPA, kappa=KAPPA, sigma_over_kappa=sigma,
                                       delay_kappa=5.0 + 10.0 / sigma, t_max_kappa=80.0,
                                       n_points=400)
            n = 2.0 * p.kappa * np.array(swap.vb_values(p, p.t_grid.tolist())) ** 2
            idx = shadow_points(n)
            _, vb = trace_shadow(p, p.t_grid[idx])
            with mp.workdps(40):
                for i, v in zip(idx, vb):
                    assert abs(mp.mpf(float(n[i])) - 2 * mp.mpf(p.kappa) * v * v) <= 1e-14 * n.max()

    def test_presets_bit_for_bit_grid_and_csv(self):
        from levicav.cli import _trace_csv
        for p in preset_protocols():
            csvs, peaks = set(), set()
            for q in (p, tuple_twin(p)):
                for trace in (phonon_trace(q), swap.phonon_trace(q)):
                    csvs.add(_trace_csv(trace.times, p.kappa, trace.n_phonon))
                    peaks.add(trace.peak_time)
            assert len(csvs) == len(peaks) == 1

    def test_grid_estimates_agree(self, monkeypatch):
        # on the presets' uniform grids: the numpy route reads |n0 - 2 n1 + n2|/8
        # on a grid _uniform_grid built and the general form on its tuple twin,
        # the scalar route |n0 - 2 n1 + n2|/8 on both, each grid being one that
        # uniform_grid builds; all of them within 1e-9 of one another
        check, read = swap.check_trace, []

        def spy(p, peak, error):
            read.append(error())
            return check(p, peak, error)

        monkeypatch.setattr(swap, "check_trace", spy)
        monkeypatch.setattr(pulse, "check_trace", spy)
        for p in preset_protocols():
            trace = swap.phonon_trace(p)
            n, t = trace.n_phonon, trace.times
            general = max(map(swap.interp_error, n, n[1:], n[2:], t, t[1:], t[2:]))
            read.clear()
            for q in (p, tuple_twin(p)):
                phonon_trace(q), swap.phonon_trace(q)
            assert len(read) == 4 and read[1] == read[3]
            assert read == pytest.approx([general] * 4, rel=1e-9)

    def test_underflowed_trace(self):
        # g = 1e-300 kappa: every sample underflows to 0 on a grid 18 times
        # finer than the pulse, a NumericalError, not a coarse grid
        for route in (phonon_trace, swap.phonon_trace):
            for grid in (lambda p: p, tuple_twin):
                p = grid(PulseProtocol.standard(g=1e-300 * KAPPA, kappa=KAPPA))
                with pytest.raises(NumericalError, match="underflowed to 0") as raised:
                    route(p)
                assert not isinstance(raised.value, GridError)
                p = grid(PulseProtocol.standard(g=KAPPA, kappa=KAPPA, t_max_kappa=1e308))
                with pytest.raises(GridError, match="every sample is 0"):
                    route(p)

    def test_peak_above_one_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(swap, "vb_values", lambda p, t: [1.5] * len(t))
        with pytest.raises(NumericalError, match="exceeded 1") as raised:
            swap.phonon_trace(tuple_twin(PulseProtocol.standard(g=KAPPA, kappa=KAPPA)))
        assert not isinstance(raised.value, ValidationError)

    @pytest.mark.parametrize("bad", [{0: math.nan}, {700: math.nan}, {700: math.inf},
                                     {100: math.inf, 900: math.nan}],
                             ids=["nan-first", "nan", "inf", "inf-then-nan"])
    def test_non_finite_trace_reported(self, bad, monkeypatch):
        vb_values = swap.vb_values

        def spoiled(p, t):
            out = vb_values(p, t)
            for i, value in bad.items():
                out[i] = value
            return out

        monkeypatch.setattr(swap, "vb_values", spoiled)
        with pytest.raises(NumericalError, match="^phonon trace is not finite$"):
            swap.phonon_trace(tuple_twin(PulseProtocol.standard(g=KAPPA, kappa=KAPPA)))


class TestTwoStepGrids:
    """The grid check reads |n''| h^2/8, n'' twice the second divided
    difference and h the larger adjacent step, on both routes."""

    @staticmethod
    def protocol(coarse, fine):
        # a step of ``coarse`` up to t = 5.99 and of ``fine`` from there to 20
        grid = np.concatenate((np.linspace(0.0, 5.99, round(5.99 / coarse) + 1),
                               np.linspace(5.99, 20.0, round(14.01 / fine) + 1)[1:]))
        return PulseProtocol(g=1.0, kappa=1.0, gamma=0.0, sigma=5.6, delay_L=5.0, t_grid=grid)

    @staticmethod
    def read(trace):
        n, t = np.asarray(trace.n_phonon), np.asarray(trace.times)
        return swap.interp_error(n[:-2], n[1:-1], n[2:], t[:-2], t[1:-1], t[2:],
                                 np.maximum).max() / trace.peak_value

    @pytest.mark.parametrize("coarse, fine, error", [(0.01, 0.001, 3.5e-5),
                                                     (0.005, 0.0005, 8.8e-6)])
    def test_finer_than_the_default_grid_passes(self, coarse, fine, error):
        # finer everywhere than the default 2000-point grid; the uniform second
        # difference read n' (h1 - h0) at the change of step: 3.1e-4 and 1.6e-4
        p = self.protocol(coarse, fine)
        for route in (phonon_trace, swap.phonon_trace):
            for protocol in (p, tuple_twin(p)):
                assert self.read(route(protocol)) == pytest.approx(error, rel=0.01)

    def test_coarse_two_step_grid_reported(self):
        p = self.protocol(0.02, 0.005)  # reads 1.4e-4 of the peak
        for route in (phonon_trace, swap.phonon_trace):
            for protocol in (p, tuple_twin(p)):
                with pytest.raises(GridError, match=r"interpolation error 6\.9\d\de-05 exceeds"):
                    route(protocol)

    def test_uniform_grid_reads_the_second_difference(self):
        # 3.50e-5 of the peak on the default grid, as |n0 - 2 n1 + n2|/8 read it
        p = PulseProtocol.standard(g=1.0, kappa=1.0)
        trace = phonon_trace(p)
        second = np.abs(np.diff(trace.n_phonon, 2)).max() / 8.0 / trace.peak_value
        assert self.read(trace) == pytest.approx(second, rel=1e-9)
        assert self.read(swap.phonon_trace(p)) == pytest.approx(second, rel=1e-9)
        assert second == pytest.approx(3.50e-5, rel=1e-3)


#: the forms of v_b in ``levicav.swap`` that both routes evaluate
FORMS = ("_damped_sine", "_real_convolution", "_underdamped", "_overdamped", "_series", "_tail")


class TestOneSource:
    """Each closed form of v_b is written once and serves both routes."""

    def test_each_form_serves_both_routes(self, monkeypatch):
        served = {}

        def wrap(name, form):
            def wrapped(route, *args):
                served.setdefault(name, set()).add("scalar" if route is swap.SCALAR else "numpy")
                return form(route, *args)
            return wrapped

        for name in FORMS:
            monkeypatch.setattr(swap, name, wrap(name, getattr(swap, name)))
        d = 0.5  # (kappa - gamma)/2 at gamma = 0
        branches = {
            "underdamped": (PulseProtocol.standard(g=1.0, kappa=1.0),
                            {"_underdamped", "_damped_sine", "_tail"}),
            "overdamped": (PulseProtocol.standard(g=0.2, kappa=1.0),
                           {"_overdamped", "_real_convolution", "_tail"}),
            # nu = 0.1 d: the series over 953 window times, the closed form over 546
            "series": (PulseProtocol.standard(g=d * math.sqrt(0.99), kappa=1.0,
                                              sigma_over_kappa=1.0),
                       {"_series", "_overdamped", "_real_convolution", "_tail"}),
            "kick": (PulseProtocol.standard(g=1.0, kappa=1.0, sigma_over_kappa=1e17),
                     {"_tail", "_damped_sine"})}
        for branch, (p, forms) in branches.items():
            for kind, route, protocol in (("numpy", phonon_trace, p),
                                          ("scalar", swap.phonon_trace, tuple_twin(p))):
                served.clear()
                route(protocol)
                assert served == {name: {kind} for name in forms}, (branch, kind, served)
        assert set().union(*(forms for _, forms in branches.values())) == set(FORMS)


#: builds a protocol on a tuple grid and traces it on the scalar route, then
#: prints the numpy and scipy modules loaded
NO_NUMPY_PROBE = """
import sys
from levicav.swap import PulseProtocol, phonon_trace, uniform_grid
p = PulseProtocol(g=1.0, kappa=1.0, gamma=0.0, sigma=5.6, delay_L=5.0,
                  t_grid=tuple(uniform_grid(20.0, 2000)))
trace = phonon_trace(p)
assert type(trace.n_phonon) is tuple and 0.4 < trace.peak_value < 0.6, trace
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_tuple_grid_trace_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

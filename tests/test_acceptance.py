"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured values before asserting."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from levicav.cavity import (CavityConfig, Sphere,
                            derived_cavity_quantities, numeric_derivatives)
from levicav.constants import CODATA, TWO_PI, pa_to_torr, torr_to_pa
from levicav.environment import (GasEnvironment, ThermalInput, bulk_temperature,
                                 decoherence_rates, gas_damping,
                                 heating_time_and_bound, quality_factor)
from levicav.pulse import (PulseProtocol, amplification_envelope,
                           conditional_superposition, phonon_expectation_direct,
                           phonon_trace, refined_peak)
from levicav.rod import (rod_optomech_params, rotation_configuration,
                         solve_self_trap, translation_configuration)
from levicav.scenario import evaluate_scenario, preset_scenario_dict, scenario_from_dict
from levicav.sphere import (DielectricObject, TweezerConfig, equilibrium_z,
                            sphere_linear_coupling, tweezer_trap_frequency)
from oracles import (perturbative_shift, phonon_expectation_moments, sphere_frequency_profile,
                     tem00_mode)

REF_CAVITY = CavityConfig(length_d=4e-3, finesse_F=1e5, wavelength_lambda=1.064e-6)
REF_SPHERE = DielectricObject(Sphere(250e-9), 2201.0, 2.1, 2.5e-10)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def test_criterion_1_cavity_constants():
    derived = derived_cavity_quantities(REF_CAVITY)
    kappa_hz = derived.kappa / TWO_PI
    ok = within(kappa_hz, 188e3, 0.01) and within(derived.waist_W, 26.0e-6, 0.005)
    report(1, ok, f"kappa = 2pi x {kappa_hz/1e3:.2f} kHz (target 188, 1%), "
                  f"W = {derived.waist_W*1e6:.3f} um (target 26.0, 0.5%)")
    assert ok


def test_criterion_2_sphere_trap_frequency():
    omega_t = tweezer_trap_frequency(REF_SPHERE, TweezerConfig(2e12, 1e-6))
    ok = within(omega_t, TWO_PI * 351e3, 0.02)
    report(2, ok, f"omega_t = 2pi x {omega_t/TWO_PI/1e3:.2f} kHz (target 351, 2%)")
    assert ok


def test_criterion_3_enhanced_coupling():
    scenario = scenario_from_dict(preset_scenario_dict("sphere-appendix-h"))
    rep = evaluate_scenario(scenario)
    g_hz = rep.optomech.g / TWO_PI
    ok = within(g_hz, 182e3, 0.03) and within(rep.kappa_over_omega_t, 0.53, 0.02)
    report(3, ok, f"g = 2pi x {g_hz/1e3:.2f} kHz (target 182, 3%), "
                  f"kappa/omega_t = {rep.kappa_over_omega_t:.4f} (target 0.53, 2%)")
    assert ok


def test_criterion_4_rod_self_trapping():
    rod = scenario_from_dict(preset_scenario_dict("rod-translation")).object
    results = []
    for build, targets in (
            (translation_configuration,
             {"omega_t_z": 552e3, "omega_t_phi": 848e3, "g": 243e3}),
            (rotation_configuration,
             {"omega_t_z": 492e3, "omega_t_phi": 503e3, "g": 276e3})):
        pair1, pair2, eq, dof = build(REF_CAVITY, 4e-3)
        sol = solve_self_trap(rod, REF_CAVITY, pair1, pair2, eq, dof)
        params = rod_optomech_params(rod, sol)
        got = {"omega_t_z": sol.omega_t_z / TWO_PI,
               "omega_t_phi": sol.omega_t_phi / TWO_PI,
               "g": abs(params.g) / TWO_PI}
        for key, target in targets.items():
            results.append((f"{dof}.{key}", got[key], target,
                            within(got[key], target, 0.10)))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"{name} = 2pi x {value/1e3:.1f} kHz "
                       f"(target {target/1e3:.0f}, 10%) "
                       f"{'ok' if good else 'OUT'}"
                       for name, value, target, good in results)
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_protocol_dynamics():
    kappa = REF_CAVITY.kappa
    strong = PulseProtocol.standard(g=kappa, kappa=kappa)
    weak = PulseProtocol.standard(g=kappa / 4.0, kappa=kappa)
    trace_strong = phonon_trace(strong)
    trace_weak = phonon_trace(weak)
    t_star, peak = refined_peak(trace_strong)
    direct = phonon_expectation_direct(strong, t_star)
    moments = phonon_expectation_moments(strong, t_star)
    oracle_rel = abs(direct - moments) / direct
    ok = (abs(peak - 0.5) <= 0.05
          and trace_weak.peak_value < trace_strong.peak_value
          and oracle_rel <= 1e-6)
    report(5, ok, f"peak = {peak:.4f} (target 0.50 +/- 0.05), weak peak "
                  f"{trace_weak.peak_value:.4f} < strong, oracle agreement "
                  f"{oracle_rel:.2e} (<= 1e-6)")
    assert ok


def test_criterion_6_numeric_vs_analytic_coupling():
    xi0, _ = sphere_linear_coupling(REF_SPHERE, REF_CAVITY)
    z0 = equilibrium_z(REF_CAVITY)
    deriv = numeric_derivatives(
        lambda z: sphere_frequency_profile(REF_SPHERE, REF_CAVITY, (0.0, 0.0, z)),
        z0, scale=REF_CAVITY.wavelength_lambda)
    fd_rel = abs(deriv.first - xi0) / xi0

    mode = tem00_mode(REF_CAVITY)
    W = REF_CAVITY.waist_W
    worst_quad = 0.0
    for radius in (250e-9, W / 20.0, W / 10.0):
        body = Sphere(radius)
        shift = perturbative_shift(mode, body, REF_SPHERE.eps1, REF_CAVITY, center=(0.0, 0.0, z0))
        analytic = (-body.volume * (REF_SPHERE.eps1 - 1.0) * W**2
                    * math.cos(REF_CAVITY.wavenumber * z0) ** 2
                    / (math.pi * W**4 * REF_CAVITY.length_d))
        worst_quad = max(worst_quad, abs(shift - analytic) / abs(analytic))
    ok = fd_rel <= 1e-6 and worst_quad <= 0.01
    report(6, ok, f"finite-difference xi0 rel err {fd_rel:.2e} (<= 1e-6), "
                  f"quadrature vs analytic worst rel err {worst_quad:.2e} "
                  f"(<= 1e-2 for R <= W/10)")
    assert ok


def test_criterion_7_decoherence_budget():
    env = GasEnvironment(pressure_P=torr_to_pa(1e-6), temperature_T=300.0)
    omega_t = tweezer_trap_frequency(REF_SPHERE, TweezerConfig(2e12, 1e-6))
    gamma = gas_damping(REF_SPHERE, env)
    q = quality_factor(omega_t, gamma)
    bound = heating_time_and_bound(REF_SPHERE, env, gamma, omega_t, 1e5)
    p_max_torr = pa_to_torr(bound.P_max)

    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(100):
        obj = DielectricObject(Sphere(rng.uniform(30e-9, 2e-6)),
                               rng.uniform(500.0, 8000.0), rng.uniform(1.1, 8.0))
        g_env = GasEnvironment(pressure_P=10**rng.uniform(-8, -2),
                               temperature_T=rng.uniform(10.0, 1000.0),
                               molecule_mass=rng.uniform(1.0, 100.0) * CODATA.amu)
        w = 10**rng.uniform(4, 7)
        z_m = math.sqrt(CODATA.hbar / (2.0 * obj.mass * w))
        worst = max(worst, abs(decoherence_rates(obj, g_env, gas_damping(obj, g_env), w,
                                                 z_m).ratio - 9.0 / 16.0))

    ok = (within(gamma, 1.4e-3, 0.20)
          and 0.5e9 <= q <= 2e9
          and 5e-7 <= p_max_torr <= 5e-6
          and worst < 1e-12)
    report(7, ok, f"gamma = {gamma:.3e} /s (target 1.4e-3, 20%), Q = {q:.3e} "
                  f"(within x2 of 1e9), P_max = {p_max_torr:.3e} Torr "
                  f"(in [5e-7, 5e-6]), ratio worst dev {worst:.2e} (< 1e-12)")
    assert ok


def test_criterion_8_formula_limits():
    mu0, _ = amplification_envelope(2e5, 1e5, 1e-13, 2e6, 0.0)
    exact_mu0 = float(mu0) == 1.0

    g = 0.8e5
    t = np.linspace(0.0, 5.0 / g, 200)
    mu, _ = amplification_envelope(g, 0.0, 1.0, 1.0, t)
    cosh_dev = float(np.max(np.abs(mu - np.cosh(g * t)) / np.cosh(g * t)))

    dark = DielectricObject(Sphere(250e-9), 2201.0, 2.1, 0.0)
    t_dark = bulk_temperature(dark, ThermalInput(intensity_I0=2e12), 1.064e-6)
    t_off = bulk_temperature(REF_SPHERE, ThermalInput(intensity_I0=0.0), 1.064e-6)
    exact_bulk = (t_dark == 300.0) and (t_off == 300.0)

    rng = np.random.default_rng(101)
    worst_norm = 0.0
    for _ in range(1000):
        s = conditional_superposition(rng.normal(0.0, 30.0), rng.uniform(0.0, 1e4))
        worst_norm = max(worst_norm, abs(abs(s.c0)**2 + abs(s.c1)**2 - 1.0))

    ok = exact_mu0 and cosh_dev <= 1e-12 and exact_bulk and worst_norm <= 1e-12
    report(8, ok, f"mu(0) exact: {exact_mu0}, cosh limit dev {cosh_dev:.2e} "
                  f"(<= 1e-12), bulk T_env limits exact: {exact_bulk}, "
                  f"norm worst dev {worst_norm:.2e} (<= 1e-12)")
    assert ok


def test_criterion_9_unreproducible_claims_bounded_by_properties():
    # bulk heating: monotone, and analytically invertible for the intensity
    # a 4 K rise would need; the published claim itself is not reproducible
    # because the tweezer waist is unstated
    lam = 1.064e-6
    coeff = (4.0 * math.pi**3 * 250e-9 / (CODATA.sigma_SB * lam)
             * 3.0 * REF_SPHERE.eps2 / ((REF_SPHERE.eps1 + 2.0)**2 + REF_SPHERE.eps2**2))
    i0_closed = (304.0**4 - 300.0**4) / coeff
    i0_root = brentq(
        lambda i: bulk_temperature(REF_SPHERE, ThermalInput(intensity_I0=i), lam) - 304.0,
        1e8, 1e12, rtol=1e-13)
    inversion_ok = (abs(i0_root - i0_closed) / i0_closed < 1e-6
                    and within(i0_closed, 1.9e10, 0.05))

    rng = np.random.default_rng(103)
    monotone = True
    for _ in range(20):
        i0 = 10**rng.uniform(9, 12)
        t1 = bulk_temperature(REF_SPHERE, ThermalInput(intensity_I0=i0), lam)
        t2 = bulk_temperature(REF_SPHERE, ThermalInput(intensity_I0=2 * i0), lam)
        monotone = monotone and (t2 > t1 >= 300.0)

    # pressure-bound coefficient: order of magnitude only (x30), both the
    # plain-rate and angular readings
    env = GasEnvironment(pressure_P=torr_to_pa(1e-6))
    omega_t = tweezer_trap_frequency(REF_SPHERE, TweezerConfig(2e12, 1e-6))
    bound = heating_time_and_bound(REF_SPHERE, env, gas_damping(REF_SPHERE, env), omega_t, 1e5)
    coeff_ok = all(1e-12 / 30.0 <= c <= 1e-12 * 30.0
                   for c in (bound.torr_per_hz_linear, bound.torr_per_hz_angular))

    ok = inversion_ok and monotone and coeff_ok
    report(9, ok, f"bulk inversion I0 = {i0_closed:.3e} W/m^2 (~1.9e10, matches "
                  f"root-finding), monotone: {monotone}, Torr/Hz coefficient "
                  f"within x30: {coeff_ok} (linear {bound.torr_per_hz_linear:.2e}, "
                  f"angular {bound.torr_per_hz_angular:.2e})")
    assert ok

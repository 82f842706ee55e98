import math

import numpy as np
import pytest
from scipy.optimize import brentq

from levicav.cavity import BodyGeometry, Rod, Sphere
from levicav.constants import CODATA, torr_to_pa
from levicav.environment import (AIR_MOLECULE_MASS, GasEnvironment, ThermalInput,
                                 bulk_temperature, decoherence_budget,
                                 decoherence_rates, gas_damping,
                                 heating_time_and_bound, quality_factor)
from levicav.errors import GeometryError, RegimeError, ValidationError
from levicav.records import replace
from levicav.scenario import preset_scenario_dict, scenario_from_dict
from levicav.sphere import DielectricObject

OMEGA_T = 2.0 * math.pi * 351.556e3  # reference sphere trap frequency


def make_sphere(radius=250e-9, density=2201.0, eps1=2.1, eps2=2.5e-10):
    return DielectricObject(BodyGeometry(Sphere(radius)), density, eps1, eps2)


def air(pressure_torr=1e-6, T=300.0):
    return GasEnvironment(pressure_P=torr_to_pa(pressure_torr), temperature_T=T)


class TestGasDamping:
    def test_reference_value(self):
        gamma = gas_damping(make_sphere(), air())
        assert gamma == pytest.approx(1.4e-3, rel=0.2)

    def test_linear_in_pressure(self):
        g1 = gas_damping(make_sphere(), air(1e-6))
        g2 = gas_damping(make_sphere(), air(2e-6))
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_rod_rejected(self):
        rod = DielectricObject(BodyGeometry(Rod(13e-6, 50e-9, 50e-9)), 2201.0, 2.1)
        with pytest.raises(GeometryError):
            gas_damping(rod, air())

    def test_mean_velocity(self):
        env = air()
        assert env.v_bar == pytest.approx(
            math.sqrt(3.0 * CODATA.k_B * 300.0 / AIR_MOLECULE_MASS), rel=1e-12)


class TestHeatingBound:
    def test_reference_pressure_bound(self):
        bound = heating_time_and_bound(make_sphere(), air(), OMEGA_T, 1e5)
        p_max_torr = bound.P_max / 133.322
        assert 5e-7 <= p_max_torr <= 5e-6
        assert p_max_torr == pytest.approx(2e-6, rel=0.1)

    def test_torr_per_hz_coefficient_order_of_magnitude(self):
        bound = heating_time_and_bound(make_sphere(), air(), OMEGA_T, 1e5)
        # linear and angular readings of the published ~1e-12 Torr/Hz figure,
        # both within a factor of 30
        for coeff in (bound.torr_per_hz_linear, bound.torr_per_hz_angular):
            assert 1e-12 / 30.0 <= coeff <= 1e-12 * 30.0

    def test_regime_violation_reported(self):
        cold = GasEnvironment(pressure_P=1e-4, temperature_T=1e-9)
        with pytest.raises(RegimeError):
            heating_time_and_bound(make_sphere(), cold, OMEGA_T, 1e5)

    def test_exact_heating_time_matches_variance_growth_oracle(self):
        # independent oracle: solve Delta E(t*) = hbar w on the variance
        # growth k_B T (1 - exp(-2 gamma t)) by root finding
        obj, env = make_sphere(), air(1e-5)
        gamma = gas_damping(obj, env)
        bound = heating_time_and_bound(obj, env, OMEGA_T, 1e5)
        target = CODATA.hbar * OMEGA_T

        def energy_gap(t):
            return CODATA.k_B * env.temperature_T * (1.0 - math.exp(-2.0 * gamma * t)) - target

        t_root = brentq(energy_gap, 1e-12 / gamma, 1.0 / gamma, xtol=1e-30, rtol=1e-14)
        assert bound.t_star == pytest.approx(t_root, rel=1e-10)
        # first-order form agrees to first order in hbar w / k_B T
        ratio = CODATA.hbar * OMEGA_T / (CODATA.k_B * env.temperature_T)
        rel_gap = abs(bound.t_star - bound.t_star_first_order) / bound.t_star_first_order
        assert rel_gap <= ratio

    @pytest.mark.parametrize("T", [300.0, 30.0, 20.0, 3.0e4])
    def test_heating_time_has_no_cancellation(self, T):
        # -log(1 - x) lost about 1e-16/x of its digits to the rounding of 1 - x
        # (7.6e-10 relative at the sphere preset's x = 5.6e-8)
        obj, env = make_sphere(), air(T=T)
        x = CODATA.hbar * OMEGA_T / (CODATA.k_B * T)
        assert x <= 1e-6
        series = (x + x**2 / 2.0 + x**3 / 3.0) / (2.0 * gas_damping(obj, env))
        bound = heating_time_and_bound(obj, env, OMEGA_T, 1e5)
        assert bound.t_star == pytest.approx(series, rel=1e-15, abs=0.0)

    def test_first_order_expression(self):
        obj, env = make_sphere(), air()
        gamma = gas_damping(obj, env)
        bound = heating_time_and_bound(obj, env, OMEGA_T, 1e5)
        expected = CODATA.hbar * OMEGA_T / (CODATA.k_B * env.temperature_T * 2.0 * gamma)
        assert bound.t_star_first_order == pytest.approx(expected, rel=1e-12)


class TestQualityFactor:
    def test_reference_value(self):
        gamma = gas_damping(make_sphere(), air())
        q = quality_factor(OMEGA_T, gamma)
        assert 0.5e9 <= q <= 2e9

    def test_unit_case(self):
        assert quality_factor(123.0, 123.0) == 1.0

    def test_unbounded_at_zero_damping(self):
        assert math.isinf(quality_factor(OMEGA_T, 0.0))

    def test_halving_pressure_doubles_q(self):
        q1 = quality_factor(OMEGA_T, gas_damping(make_sphere(), air(1e-6)))
        q2 = quality_factor(OMEGA_T, gas_damping(make_sphere(), air(0.5e-6)))
        assert q2 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_q_gamma_identity(self):
        gamma = gas_damping(make_sphere(), air())
        assert quality_factor(OMEGA_T, gamma) * gamma == pytest.approx(OMEGA_T, rel=1e-12)


class TestDecoherence:
    def test_ratio_is_nine_sixteenths_for_random_parameters(self):
        # parameter-free: holds for every positive parameter combination
        rng = np.random.default_rng(37)
        for _ in range(100):
            obj = make_sphere(radius=rng.uniform(30e-9, 2e-6),
                              density=rng.uniform(500.0, 8000.0),
                              eps1=rng.uniform(1.1, 8.0))
            env = GasEnvironment(pressure_P=10**rng.uniform(-8, -2),
                                 temperature_T=rng.uniform(10.0, 1000.0),
                                 molecule_mass=rng.uniform(1.0, 100.0) * CODATA.amu)
            omega_t = 10**rng.uniform(4, 7)
            z_m = math.sqrt(CODATA.hbar / (2.0 * obj.mass * omega_t))
            rates = decoherence_rates(obj, env, omega_t, z_m)
            assert abs(rates.ratio - 9.0 / 16.0) < 1e-12

    def test_lambda_scales_with_pressure_and_sqrt_temperature(self):
        obj = make_sphere()
        z_m = math.sqrt(CODATA.hbar / (2.0 * obj.mass * OMEGA_T))
        base = decoherence_rates(obj, air(1e-6, T=300.0), OMEGA_T, z_m)
        doubled = decoherence_rates(obj, air(2e-6, T=300.0), OMEGA_T, z_m)
        hot = decoherence_rates(obj, air(1e-6, T=1200.0), OMEGA_T, z_m)
        assert doubled.Lambda == pytest.approx(2.0 * base.Lambda, rel=1e-12)
        assert hot.Lambda == pytest.approx(2.0 * base.Lambda, rel=1e-12)


class TestBulkTemperature:
    def test_no_absorption(self):
        obj = make_sphere(eps2=0.0)
        th = ThermalInput(intensity_I0=2e12)
        assert bulk_temperature(obj, th, 1.064e-6) == pytest.approx(300.0, rel=1e-14)

    def test_no_intensity(self):
        th = ThermalInput(intensity_I0=0.0)
        assert bulk_temperature(make_sphere(), th, 1.064e-6) == pytest.approx(300.0, rel=1e-14)

    def test_analytic_inversion_for_four_kelvin_rise(self):
        # the intensity that heats the reference sphere 4 K above the room:
        # closed-form inversion vs root finding on the forward formula
        obj = make_sphere()
        lam = 1.064e-6
        coeff = (4.0 * math.pi**3 * 250e-9 / (CODATA.sigma_SB * lam)
                 * 3.0 * obj.eps2 / ((obj.eps1 + 2.0) ** 2 + obj.eps2**2))
        i0_closed = (304.0**4 - 300.0**4) / coeff
        i0_root = brentq(
            lambda i: bulk_temperature(obj, ThermalInput(intensity_I0=i), lam) - 304.0,
            1e8, 1e12, rtol=1e-13)
        assert i0_closed == pytest.approx(1.9e10, rel=0.05)
        assert i0_root == pytest.approx(i0_closed, rel=1e-6)

    def test_monotone_in_intensity_and_absorption(self):
        rng = np.random.default_rng(41)
        lam = 1.064e-6
        for _ in range(30):
            i0 = 10**rng.uniform(8, 13)
            eps2 = 10**rng.uniform(-11, -7)
            t_base = bulk_temperature(make_sphere(eps2=eps2),
                                      ThermalInput(intensity_I0=i0), lam)
            t_brighter = bulk_temperature(make_sphere(eps2=eps2),
                                          ThermalInput(intensity_I0=2.0 * i0), lam)
            t_darker_glass = bulk_temperature(make_sphere(eps2=2.0 * eps2),
                                              ThermalInput(intensity_I0=i0), lam)
            assert t_base >= 300.0
            assert t_brighter > t_base
            assert t_darker_glass > t_base


class TestBudget:
    def test_assembles_consistently(self):
        obj, env = make_sphere(), air()
        z_m = math.sqrt(CODATA.hbar / (2.0 * obj.mass * OMEGA_T))
        budget = decoherence_budget(obj, env, OMEGA_T, z_m, 1e5)
        assert budget.Q_factor * budget.gamma == pytest.approx(OMEGA_T, rel=1e-12)
        assert budget.rates.ratio == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert budget.noise_D == pytest.approx(
            2.0 * CODATA.k_B * env.temperature_T * budget.gamma / obj.mass, rel=1e-12)

    def test_invalid_environment_rejected(self):
        with pytest.raises(ValidationError):
            GasEnvironment(pressure_P=-1.0)
        with pytest.raises(ValidationError):
            ThermalInput(intensity_I0=1.0, emissivity_e=0.0)

    def test_zero_pressure_rejected(self):
        # the gas formulas hold only with gas present: at P = 0 the report
        # would print an infinite Q, t* and pressure margin
        with pytest.raises(ValidationError, match="pressure must be positive"):
            GasEnvironment(pressure_P=0.0)
        gas = scenario_from_dict(preset_scenario_dict("sphere-appendix-h")).gas
        with pytest.raises(ValidationError, match="pressure must be positive"):
            replace(gas, pressure_P=0.0)

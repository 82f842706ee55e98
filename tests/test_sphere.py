import inspect
import math

import numpy as np
import pytest

from levicav.cavity import BodyGeometry, CavityConfig, Rod, Sphere, numeric_derivatives
from levicav.constants import CODATA, TWO_PI
from levicav.errors import GeometryError, ValidationError
from levicav.sphere import (DielectricObject, DriveConfig, TweezerConfig,
                            assemble_optomech_params, equilibrium_z,
                            intracavity_amplitude, sphere_frequency_profile,
                            sphere_linear_coupling, sphere_shift_profile,
                            tweezer_trap_frequency)


def make_sphere(radius=250e-9, eps1=2.1):
    return DielectricObject(BodyGeometry(Sphere(radius)), 2201.0, eps1, 2.5e-10)


class TestFrequencyProfile:
    def test_unit_permittivity_gives_bare_frequency(self, ref_cavity):
        obj = DielectricObject(BodyGeometry(Sphere(250e-9)), 2201.0, 1.0)
        assert sphere_frequency_profile(obj, ref_cavity, (0, 0, 0)) == ref_cavity.omega_c0

    def test_standing_wave_node(self, ref_cavity, silica_sphere):
        node = CODATA.c * math.pi / (2.0 * ref_cavity.omega_c0)
        value = sphere_frequency_profile(silica_sphere, ref_cavity, (0.0, 0.0, node))
        assert value == pytest.approx(ref_cavity.omega_c0, rel=1e-14)

    def test_antinode_shift_equals_static_formula(self, ref_cavity, silica_sphere):
        # on-axis antinode shift is twice the equilibrium shift delta
        omega = sphere_frequency_profile(silica_sphere, ref_cavity, (0.0, 0.0, 0.0))
        shift = omega / ref_cavity.omega_c0 - 1.0
        _, delta = sphere_linear_coupling(silica_sphere, ref_cavity)
        assert shift == pytest.approx(2.0 * delta / ref_cavity.omega_c0, rel=1e-9)
        assert shift < 0.0

    def test_radius_at_waist_rejected(self, ref_cavity):
        obj = make_sphere(radius=30e-6)
        with pytest.raises(GeometryError):
            sphere_frequency_profile(obj, ref_cavity, (0, 0, 0))

    def test_rod_rejected(self, ref_cavity):
        rod = DielectricObject(BodyGeometry(Rod(13e-6, 50e-9, 50e-9)), 2201.0, 2.1)
        with pytest.raises(GeometryError):
            sphere_frequency_profile(rod, ref_cavity, (0, 0, 0))


class TestLinearCoupling:
    def test_unit_permittivity(self, ref_cavity):
        obj = DielectricObject(BodyGeometry(Sphere(250e-9)), 2201.0, 1.0)
        xi0, delta = sphere_linear_coupling(obj, ref_cavity)
        assert xi0 == 0.0 and delta == 0.0

    def test_reference_value(self, ref_cavity, silica_sphere):
        xi0, delta = sphere_linear_coupling(silica_sphere, ref_cavity)
        assert xi0 == pytest.approx(8.8e13, rel=2e-2)
        assert delta < 0.0

    def test_signs_for_random_materials(self, ref_cavity):
        rng = np.random.default_rng(5)
        for _ in range(30):
            obj = make_sphere(radius=rng.uniform(50e-9, 400e-9),
                              eps1=rng.uniform(1.01, 8.0))
            xi0, delta = sphere_linear_coupling(obj, ref_cavity)
            assert xi0 > 0.0
            assert delta < 0.0

    def test_matches_numeric_derivative_of_profile(self, ref_cavity):
        # the carrier-free shift profile keeps the difference signal far
        # above the float64 floor for any material and size
        rng = np.random.default_rng(13)
        z0 = equilibrium_z(ref_cavity)
        for _ in range(10):
            obj = make_sphere(radius=rng.uniform(50e-9, 400e-9),
                              eps1=rng.uniform(1.05, 5.0))
            xi0, _ = sphere_linear_coupling(obj, ref_cavity)
            d = numeric_derivatives(
                lambda z: sphere_shift_profile(obj, ref_cavity, (0.0, 0.0, z)),
                z0, scale=ref_cavity.wavelength_lambda)
            assert d.first == pytest.approx(xi0, rel=1e-6)

    def test_full_profile_derivative_reference_case(self, ref_cavity, silica_sphere):
        # differencing the absolute profile (carrier included) still meets
        # 1e-6 at the reference coupling strength
        z0 = equilibrium_z(ref_cavity)
        xi0, _ = sphere_linear_coupling(silica_sphere, ref_cavity)
        d = numeric_derivatives(
            lambda z: sphere_frequency_profile(silica_sphere, ref_cavity, (0.0, 0.0, z)),
            z0, scale=ref_cavity.wavelength_lambda)
        assert d.first == pytest.approx(xi0, rel=1e-6)


class TestTweezer:
    def test_reference_trap_frequency(self, silica_sphere, ref_tweezer):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        assert omega_t == pytest.approx(TWO_PI * 351e3, rel=2e-2)

    def test_sqrt_intensity_scaling(self, silica_sphere, ref_tweezer):
        quad = TweezerConfig(4.0 * ref_tweezer.intensity_I0, ref_tweezer.waist_W0)
        assert tweezer_trap_frequency(silica_sphere, quad) == pytest.approx(
            2.0 * tweezer_trap_frequency(silica_sphere, ref_tweezer), rel=1e-12)

    def test_vanishing_polarizability_limit(self, ref_tweezer):
        values = [tweezer_trap_frequency(make_sphere(eps1=e), ref_tweezer)
                  for e in (1.1, 1.01, 1.001)]
        assert values[0] > values[1] > values[2]
        # omega_t ~ sqrt(eps1 - 1) as eps1 -> 1+
        assert values[2] / values[0] == pytest.approx(
            math.sqrt(0.001 / 3.001 * 3.1 / 0.1), rel=1e-6)

    def test_no_gradient_trapping(self, ref_tweezer):
        obj = DielectricObject(BodyGeometry(Sphere(250e-9)), 2201.0, 1.0)
        with pytest.raises(ValidationError):
            tweezer_trap_frequency(obj, ref_tweezer)


def tweezed(obj, cfg, omega_t, drive):
    """OptomechParams of a tweezed sphere on the red sideband Delta = omega_t,
    from the inputs evaluate_scenario hands the builder."""
    xi0, delta = sphere_linear_coupling(obj, cfg)
    _, alpha = intracavity_amplitude(drive, cfg.kappa, omega_t)
    return assemble_optomech_params(omega_t, xi0, delta, alpha, omega_t, obj.mass)


class TestIntracavityAmplitude:
    def test_zero_power(self, ref_cavity):
        drive = DriveConfig(0.0, TWO_PI * CODATA.c / 1.064e-6, detuning_Delta=0.0)
        e_abs, alpha = intracavity_amplitude(drive, ref_cavity.kappa, 0.0)
        assert e_abs == 0.0 and alpha == 0.0

    def test_reference_photon_amplitude(self, ref_cavity, ref_drive, silica_sphere,
                                        ref_tweezer):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        _, alpha = intracavity_amplitude(ref_drive, ref_cavity.kappa, detuning=omega_t)
        assert alpha == pytest.approx(3.17e4, rel=1e-2)

    def test_resonant_drive(self, ref_cavity):
        drive = DriveConfig(1e-3, TWO_PI * CODATA.c / 1.064e-6, detuning_Delta=0.0)
        e_abs, alpha = intracavity_amplitude(drive, ref_cavity.kappa, 0.0)
        assert alpha == pytest.approx(e_abs / ref_cavity.kappa, rel=1e-12)

    def test_detuning_argument_not_the_record(self, ref_cavity):
        # the caller resolves Delta; the drive record's own value is not read
        drive = DriveConfig(1e-3, TWO_PI * CODATA.c / 1.064e-6, detuning_Delta=0.0)
        e_abs, alpha = intracavity_amplitude(drive, ref_cavity.kappa, ref_cavity.kappa)
        assert alpha == pytest.approx(e_abs / (math.sqrt(2.0) * ref_cavity.kappa), rel=1e-12)


class TestAssembledParams:
    def test_inputs_are_explicit(self):
        # one builder for sphere and rod: every input is passed, none defaults
        params = inspect.signature(assemble_optomech_params).parameters.values()
        assert [p.name for p in params] == ["omega_t", "xi0", "delta_shift", "alpha_abs",
                                            "detuning", "mass_like"]
        assert all(p.default is inspect.Parameter.empty for p in params)

    def test_reference_scenario(self, ref_cavity, silica_sphere, ref_tweezer, ref_drive):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        params = tweezed(silica_sphere, ref_cavity, omega_t, ref_drive)
        assert params.g == pytest.approx(TWO_PI * 182e3, rel=3e-2)
        assert params.zm == pytest.approx(4.1e-13, rel=2e-2)
        assert params.detuning == pytest.approx(omega_t)
        assert params.beta < 0.0

    def test_zero_drive(self, ref_cavity, silica_sphere, ref_tweezer):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        drive = DriveConfig(0.0, TWO_PI * CODATA.c / 1.064e-6)
        params = tweezed(silica_sphere, ref_cavity, omega_t, drive)
        assert params.g == 0.0
        assert params.beta == 0.0

    def test_zero_point_identity(self, ref_cavity, silica_sphere, ref_tweezer, ref_drive):
        # zm^2 * 2 M omega_t = hbar exactly
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        params = tweezed(silica_sphere, ref_cavity, omega_t, ref_drive)
        assert params.zm**2 * 2.0 * silica_sphere.mass * omega_t == pytest.approx(
            CODATA.hbar, rel=1e-12)

    def test_g_scales_with_sqrt_power(self, ref_cavity, silica_sphere, ref_tweezer):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        omega_L = TWO_PI * CODATA.c / 1.064e-6
        gs = []
        for power in (0.25e-3, 1e-3, 4e-3):
            drive = DriveConfig(power, omega_L)
            gs.append(tweezed(silica_sphere, ref_cavity, omega_t, drive).g)
        assert gs[1] / gs[0] == pytest.approx(2.0, rel=1e-9)
        assert gs[2] / gs[1] == pytest.approx(2.0, rel=1e-9)

    def test_consistency_identities(self, ref_cavity, silica_sphere, ref_tweezer, ref_drive):
        omega_t = tweezer_trap_frequency(silica_sphere, ref_tweezer)
        params = tweezed(silica_sphere, ref_cavity, omega_t, ref_drive)
        assert params.g == pytest.approx(params.alpha_abs * params.g0, rel=1e-12)
        assert params.g0 == pytest.approx(params.zm * params.xi0, rel=1e-12)

    def test_non_positive_trap_frequency_rejected(self):
        with pytest.raises(ValidationError, match="trap frequency must be positive"):
            assemble_optomech_params(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)

import math

import numpy as np
import pytest

from levicav.cavity import (CavityConfig, Rod, Sphere, derived_cavity_quantities,
                            numeric_derivatives)
from levicav.constants import TWO_PI
from levicav.errors import DerivativeError, GeometryError, ValidationError
from levicav.rod import C1, C2
from levicav.sphere import equilibrium_z
from oracles import lg_pair_mode, perturbative_shift, tem00_mode

EPS1 = 2.1


def point_shift(cfg, volume, eps_r, x, y, z):
    """Small-object closed-form relative shift for the TEM00 mode."""
    W = cfg.waist_W
    return (-volume * (eps_r - 1.0) * (W**2 - 2.0 * (x**2 + y**2))
            * math.cos(cfg.wavenumber * z) ** 2 / (math.pi * W**4 * cfg.length_d))


class TestDerivedQuantities:
    def test_reference_kappa_and_waist(self, ref_cavity):
        d = derived_cavity_quantities(ref_cavity)
        assert d.kappa == pytest.approx(TWO_PI * 188e3, rel=1e-2)
        assert d.waist_W == pytest.approx(26.0e-6, rel=5e-3)
        assert d.omega_c0 == pytest.approx(TWO_PI * 2.99792458e8 / 1.064e-6, rel=1e-12)

    def test_kappa_halves_when_finesse_doubles(self, ref_cavity):
        doubled = CavityConfig(ref_cavity.length_d, 2 * ref_cavity.finesse_F,
                               ref_cavity.wavelength_lambda)
        assert doubled.kappa == pytest.approx(ref_cavity.kappa / 2.0, rel=1e-12)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValidationError):
            CavityConfig(-1.0, 1e5, 1e-6)
        with pytest.raises(ValidationError):
            CavityConfig(4e-3, 0.5, 1e-6)
        with pytest.raises(ValidationError):
            CavityConfig(4e-3, 1e5, 0.0)


class TestPerturbativeShift:
    def test_vanishing_perturbation(self, ref_cavity):
        mode = tem00_mode(ref_cavity)
        assert perturbative_shift(mode, Sphere(100e-9), 1.0, ref_cavity) == 0.0

    def test_sphere_matches_analytic_at_equilibrium(self, ref_cavity):
        # at the maximum-slope point the axial average is exact, so the
        # closed-form small-object formula holds up to transverse terms
        mode = tem00_mode(ref_cavity)
        z0 = equilibrium_z(ref_cavity)
        for radius in (250e-9, 1e-6, ref_cavity.waist_W / 10.0):
            sphere = Sphere(radius)
            shift = perturbative_shift(mode, sphere, EPS1, ref_cavity, center=(0.0, 0.0, z0))
            analytic = point_shift(ref_cavity, sphere.volume, EPS1, 0.0, 0.0, z0)
            assert shift == pytest.approx(analytic, rel=1e-2)

    def test_sphere_antinode_matches_volume_integral(self, ref_cavity):
        # independent oracle: ball-resolved axial and transverse averages
        mode = tem00_mode(ref_cavity)
        radius = 250e-9
        k = ref_cavity.wavenumber
        W = ref_cavity.waist_W
        sphere = Sphere(radius)
        shift = perturbative_shift(mode, sphere, EPS1, ref_cavity, center=(0.0, 0.0, 0.0))
        u = 2.0 * k * radius
        axial = 0.5 * (1.0 + 3.0 * (math.sin(u) - u * math.cos(u)) / u**3)
        transverse = 1.0 - 0.8 * (radius / W) ** 2
        oracle = (-(EPS1 - 1.0) * sphere.volume * axial * transverse
                  / (math.pi * W**2 * ref_cavity.length_d))
        assert shift == pytest.approx(oracle, rel=5e-5)

    def test_small_sphere_antinode_against_point_formula(self, ref_cavity):
        # 25 nm sphere: axial averaging is negligible even at the antinode
        mode = tem00_mode(ref_cavity)
        sphere = Sphere(25e-9)
        shift = perturbative_shift(mode, sphere, EPS1, ref_cavity)
        analytic = point_shift(ref_cavity, sphere.volume, EPS1, 0.0, 0.0, 0.0)
        assert shift == pytest.approx(analytic, rel=1e-2)

    def test_rod_matches_analytic_profile_constants(self, ref_cavity):
        W = ref_cavity.waist_W
        rod = Rod(radius=W / 2.0, width_a=50e-9, arc_L=50e-9)
        for ell, const in ((1, C1), (2, C2)):
            mode = lg_pair_mode(ref_cavity, ell)
            shift = perturbative_shift(mode, rod, EPS1, ref_cavity, phi=0.0)
            analytic = (-(EPS1 - 1.0) * rod.volume * const
                        / (math.pi * W**2 * ref_cavity.length_d))
            assert shift == pytest.approx(analytic, rel=2e-2)

    def test_shift_negative_and_linear_in_permittivity(self, ref_cavity):
        mode = tem00_mode(ref_cavity)
        sphere, center = Sphere(200e-9), (0.0, 0.0, 0.1e-6)
        s1 = perturbative_shift(mode, sphere, 2.1, ref_cavity, center=center)
        s2 = perturbative_shift(mode, sphere, 3.2, ref_cavity, center=center)
        assert s1 < 0.0
        assert s2 / s1 == pytest.approx(2.2 / 1.1, rel=1e-9)

    def test_shift_monotone_in_volume(self, ref_cavity):
        mode = tem00_mode(ref_cavity)
        shifts = [perturbative_shift(mode, Sphere(r), EPS1, ref_cavity)
                  for r in (50e-9, 100e-9, 150e-9, 200e-9)]
        assert all(b < a for a, b in zip(shifts, shifts[1:]))

    def test_body_outside_cavity_rejected(self, ref_cavity):
        mode = tem00_mode(ref_cavity)
        with pytest.raises(GeometryError):
            perturbative_shift(mode, Sphere(100e-9), EPS1, ref_cavity, center=(0.0, 0.0, 2.5e-3))

    def test_eps_below_one_rejected(self, ref_cavity):
        mode = tem00_mode(ref_cavity)
        with pytest.raises(ValidationError):
            perturbative_shift(mode, Sphere(1e-7), 0.9, ref_cavity)

    def test_lg_pair_requires_catalog_order(self, ref_cavity):
        with pytest.raises(ValidationError):
            lg_pair_mode(ref_cavity, 3)


class TestNumericDerivatives:
    def test_quadratic_at_origin(self):
        amp = 3.7
        d = numeric_derivatives(lambda q: amp * q * q, 0.0)
        assert d.first == pytest.approx(0.0, abs=1e-12)
        assert d.second == pytest.approx(2.0 * amp, rel=1e-10)

    def test_cubic_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c, e = rng.uniform(-3, 3, size=4)
            q0 = rng.uniform(-2, 2)
            d = numeric_derivatives(lambda q: a * q**3 + b * q**2 + c * q + e, q0)
            first = 3 * a * q0**2 + 2 * b * q0 + c
            second = 6 * a * q0 + 2 * b
            assert d.first == pytest.approx(first, rel=1e-10, abs=1e-10)
            assert d.second == pytest.approx(second, rel=1e-10, abs=1e-9)

    def test_constant_profile(self):
        d = numeric_derivatives(lambda q: 42.0, 1.0)
        assert d.first == 0.0
        assert d.second == 0.0

    def test_step_underflow_reported(self):
        with pytest.raises(DerivativeError):
            numeric_derivatives(lambda q: q, 1.0, scale=1e-300)

    def test_non_finite_profile_reported(self):
        with pytest.raises(DerivativeError):
            numeric_derivatives(lambda q: math.inf, 0.0)

    def test_error_estimate_reasonable(self):
        d = numeric_derivatives(math.sin, 0.3)
        assert abs(d.first - math.cos(0.3)) <= max(10 * d.err_first, 1e-12)


class TestRodQuadratureGeometry:
    def test_off_axis_rod_rejected(self, ref_cavity):
        mode = lg_pair_mode(ref_cavity, 1)
        rod = Rod(radius=ref_cavity.waist_W / 2.0, width_a=50e-9, arc_L=50e-9)
        with pytest.raises(GeometryError):
            perturbative_shift(mode, rod, 2.1, ref_cavity, center=(1e-6, 0.0, 0.0))

    def test_rotated_rod_follows_azimuthal_standing_wave(self, ref_cavity):
        # quadrature shift at phi follows cos^2(phi) for the LG10 pair
        mode = lg_pair_mode(ref_cavity, 1)
        rod = Rod(radius=ref_cavity.waist_W / 2.0, width_a=50e-9, arc_L=50e-9)
        # tolerance covers the cos^2 average across the wedge's ~4 mrad width
        at_0 = perturbative_shift(mode, rod, 2.1, ref_cavity, phi=0.0)
        at_60 = perturbative_shift(mode, rod, 2.1, ref_cavity, phi=math.pi / 3.0)
        assert at_60 / at_0 == pytest.approx(math.cos(math.pi / 3.0) ** 2, rel=1e-4)

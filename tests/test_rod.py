import math

import numpy as np
import pytest

from levicav.cavity import Rod, Sphere, numeric_derivatives
from levicav.constants import CODATA, TWO_PI
from levicav.errors import GeometryError, ValidationError
from levicav.rod import (C1, C2, LGPairProfile, rod_optomech_params, rotation_configuration,
                         solve_self_trap, translation_configuration)
from levicav.sphere import DielectricObject
from oracles import rod_coupling_constants, rod_frequency_profile, rod_shift_profile


def make_rod(cfg, width=50e-9, arc=50e-9):
    shape = Rod(radius=cfg.waist_W / 2.0, width_a=width, arc_L=arc)
    return DielectricObject(shape, 2201.0, 2.1, 2.5e-10)


def combined_shift(obj, cfg, pair1, pair2, n1, n2):
    """Photon-weighted frequency shift of the two driven modes, rad/s."""
    def shift(phi, z):
        w1 = rod_shift_profile(obj, cfg, pair1, phi, z)
        w2 = rod_shift_profile(obj, cfg, pair2, phi, z)
        return n1 * w1 + n2 * w2
    return shift


class TestOverlapConstants:
    def test_values(self):
        sqrt_e = math.sqrt(math.e)
        assert C1 == pytest.approx(2.0 * (2.0 * sqrt_e - 3.0) / sqrt_e, rel=1e-14)
        assert C2 == pytest.approx((8.0 * sqrt_e - 13.0) / (2.0 * sqrt_e), rel=1e-14)
        assert round(C1, 5) == 0.36082
        assert round(C2, 5) == 0.05755
        assert C1 > C2 > 0.0


class TestFrequencyProfile:
    """The closed-form profile of tests/oracles.py, and the regime it holds in,
    which the self-trap solver enforces."""

    def test_unit_permittivity(self, ref_cavity):
        obj = DielectricObject(Rod(ref_cavity.waist_W / 2.0, 50e-9, 50e-9), 2201.0, 1.0)
        pair = LGPairProfile(order_ell=1)
        assert rod_frequency_profile(obj, ref_cavity, pair, 0.0, 0.0) == ref_cavity.omega_c0

    def test_azimuthal_node(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair = LGPairProfile(order_ell=1)
        value = rod_frequency_profile(obj, ref_cavity, pair, math.pi / 2.0, 0.0)
        assert value == pytest.approx(ref_cavity.omega_c0, rel=1e-14)

    def test_geometry_regime_enforced(self, ref_cavity):
        bad_radius = DielectricObject(Rod(ref_cavity.waist_W / 3.0, 50e-9, 50e-9), 2201.0, 2.1)
        with pytest.raises(GeometryError, match="R = W/2"):
            solve_self_trap(bad_radius, ref_cavity, *translation_configuration(ref_cavity, 4e-3))
        sphere = DielectricObject(Sphere(250e-9), 2201.0, 2.1)
        with pytest.raises(GeometryError, match="rod geometry"):
            solve_self_trap(sphere, ref_cavity, *translation_configuration(ref_cavity, 4e-3))


class TestCouplingConstants:
    def test_uncooled_coordinate_vanishes(self, ref_cavity):
        obj = make_rod(ref_cavity)
        trans = rod_coupling_constants(obj, ref_cavity, "translation")
        rot = rod_coupling_constants(obj, ref_cavity, "rotation")
        assert trans["xi_phi"] == 0.0
        assert rot["xi_z"] == 0.0
        assert trans["xi_z"] < 0.0
        assert rot["xi_phi"] < 0.0

    def test_translation_xi_matches_numeric_derivative(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, _, (phi0, z0), _ = translation_configuration(ref_cavity, 4e-3)
        xi = rod_coupling_constants(obj, ref_cavity, "translation")["xi_z"]
        d = numeric_derivatives(
            lambda z: rod_shift_profile(obj, ref_cavity, pair1, phi0, z),
            z0, scale=ref_cavity.wavelength_lambda)
        assert d.first == pytest.approx(xi, rel=1e-6)

    def test_rotation_xi_matches_numeric_derivative(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, _, (phi0, z0), _ = rotation_configuration(ref_cavity, 4e-3)
        xi = rod_coupling_constants(obj, ref_cavity, "rotation")["xi_phi"]
        d = numeric_derivatives(
            lambda p: rod_shift_profile(obj, ref_cavity, pair1, p, z0),
            phi0, scale=1.0)
        assert d.first == pytest.approx(xi, rel=1e-6)

    def test_unknown_configuration(self, ref_cavity):
        pair1, pair2, eq, _ = translation_configuration(ref_cavity, 4e-3)
        with pytest.raises(ValidationError, match="cooled_dof"):
            solve_self_trap(make_rod(ref_cavity), ref_cavity, pair1, pair2, eq, "torsion")


class TestSelfTrap:
    @pytest.mark.parametrize("build,expected_ratio", [
        (translation_configuration, C1 / C2),
        (rotation_configuration, C1 / (2.0 * C2)),
    ])
    def test_balance_ratio(self, ref_cavity, build, expected_ratio):
        obj = make_rod(ref_cavity)
        pair1, pair2, eq, dof = build(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        assert sol.alpha_ratio_sq == pytest.approx(expected_ratio, rel=1e-6)

    @pytest.mark.parametrize("build", [translation_configuration, rotation_configuration])
    def test_balance_residual(self, ref_cavity, build):
        # defining equation of the solution: gradients cancel to roundoff
        obj = make_rod(ref_cavity)
        pair1, pair2, eq, dof = build(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        # (the mode-1 gradient is the cooled-coordinate coupling)
        xi = sol.xi_z if dof == "translation" else sol.xi_phi
        # and the mode-2 gradient along it is the closed-form profile's slope
        phi0, z0 = eq
        if dof == "translation":
            grad_2 = numeric_derivatives(
                lambda z: rod_shift_profile(obj, ref_cavity, pair2, phi0, z), z0,
                scale=ref_cavity.wavelength_lambda).first
        else:
            grad_2 = numeric_derivatives(
                lambda p: rod_shift_profile(obj, ref_cavity, pair2, p, z0), phi0, scale=1.0).first
        residual = sol.n_photons_1 * xi + sol.n_photons_2 * grad_2
        assert abs(residual) <= 1e-10 * abs(sol.n_photons_1 * xi)

    @pytest.mark.parametrize("build", [translation_configuration, rotation_configuration])
    def test_true_equilibrium_of_combined_potential(self, ref_cavity, build):
        obj = make_rod(ref_cavity)
        pair1, pair2, (phi0, z0), dof = build(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, (phi0, z0), dof)
        total = combined_shift(obj, ref_cavity, pair1, pair2,
                               sol.n_photons_1, sol.n_photons_2)
        dz = numeric_derivatives(lambda z: total(phi0, z), z0,
                                 scale=ref_cavity.wavelength_lambda)
        dphi = numeric_derivatives(lambda p: total(p, z0), phi0, scale=1.0)
        scale = (sol.n_photons_1 + sol.n_photons_2) * abs(sol.delta_1 + sol.delta_2)
        assert abs(dz.first * ref_cavity.wavelength_lambda) <= 1e-5 * scale
        assert abs(dphi.first) <= 1e-5 * scale
        # both curvatures positive: a genuine 2-D minimum
        assert dz.second > 0.0
        assert dphi.second > 0.0

    def test_trap_frequencies_match_curvature_sums(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, pair2, (phi0, z0), dof = translation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, (phi0, z0), dof)
        total = combined_shift(obj, ref_cavity, pair1, pair2,
                               sol.n_photons_1, sol.n_photons_2)
        curv_z = numeric_derivatives(lambda z: total(phi0, z), z0,
                                     scale=ref_cavity.wavelength_lambda).second
        curv_phi = numeric_derivatives(lambda p: total(p, z0), phi0, scale=1.0).second
        assert sol.omega_t_z == pytest.approx(
            math.sqrt(CODATA.hbar * curv_z / obj.mass), rel=1e-4)
        assert sol.omega_t_phi == pytest.approx(
            math.sqrt(CODATA.hbar * curv_phi / obj.moment_of_inertia), rel=1e-4)

    def test_static_shifts_match_closed_forms(self, ref_cavity):
        obj = make_rod(ref_cavity)
        amp = (obj.volume * 1.1 * ref_cavity.omega_c0
               / (math.pi * ref_cavity.waist_W**2 * ref_cavity.length_d))
        pair1, pair2, eq, dof = translation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        cos_pi8_sq = math.cos(math.pi / 8.0) ** 2
        assert sol.delta_1 == pytest.approx(-amp * C1 * cos_pi8_sq, rel=1e-9)
        assert sol.delta_2 == pytest.approx(-amp * C2 * cos_pi8_sq, rel=1e-9)
        pair1, pair2, eq, dof = rotation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        assert sol.delta_1 == pytest.approx(-0.75 * amp * C1, rel=1e-9)
        assert sol.delta_2 == pytest.approx(-0.75 * amp * C2, rel=1e-9)

    def test_trap_frequency_scales_with_sqrt_power(self, ref_cavity):
        obj = make_rod(ref_cavity)
        freqs = []
        for power in (1e-3, 4e-3):
            pair1, pair2, eq, dof = translation_configuration(ref_cavity, power)
            sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
            freqs.append(sol.omega_t_z)
        assert freqs[1] / freqs[0] == pytest.approx(2.0, rel=1e-6)

    def test_solution_couplings_match_closed_forms(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, pair2, eq, dof = translation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        assert sol.xi_phi == 0.0
        assert sol.xi_z == pytest.approx(
            rod_coupling_constants(obj, ref_cavity, "translation")["xi_z"], rel=1e-6)
        pair1, pair2, eq, dof = rotation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        assert sol.xi_z == 0.0
        assert sol.xi_phi == pytest.approx(
            rod_coupling_constants(obj, ref_cavity, "rotation")["xi_phi"], rel=1e-6)


class TestRodOptomech:
    def test_rotational_zero_point_uses_inertia(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, pair2, eq, dof = rotation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        params = rod_optomech_params(obj, sol)
        inertia = obj.moment_of_inertia
        assert inertia == pytest.approx(
            obj.shape.radius * obj.shape.arc_L * obj.mass
            / (4.0 * math.pi), rel=1e-12)
        assert params.zm == pytest.approx(
            math.sqrt(CODATA.hbar / (2.0 * inertia * sol.omega_t_phi)), rel=1e-12)
        assert params.g == pytest.approx(params.alpha_abs * params.zm * sol.xi_phi,
                                         rel=1e-12)

    def test_translation_uses_mass(self, ref_cavity):
        obj = make_rod(ref_cavity)
        pair1, pair2, eq, dof = translation_configuration(ref_cavity, 4e-3)
        sol = solve_self_trap(obj, ref_cavity, pair1, pair2, eq, dof)
        params = rod_optomech_params(obj, sol)
        assert params.zm == pytest.approx(
            math.sqrt(CODATA.hbar / (2.0 * obj.mass * sol.omega_t_z)), rel=1e-12)
        assert params.alpha_abs == pytest.approx(math.sqrt(sol.n_photons_1), rel=1e-12)

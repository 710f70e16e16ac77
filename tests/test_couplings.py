"""Coupling rates: reference values, scalings, calibration consistency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afm_transducer.constants import HBAR, SPEED_OF_LIGHT, TWO_PI, angular, ordinary
from afm_transducer.couplings import (
    CavityParams,
    CouplingSet,
    DriveParams,
    SampleGeometry,
    calibrated_xi,
    cavity_enhanced_zeta,
    ferromagnet_reference,
    geometry_scaling,
    itinerant_xi,
    microwave_coupling,
    optical_coupling,
    vacuum_coupling_empirical,
    vacuum_coupling_from_cavity_volume,
)
from afm_transducer.presets import (
    PRESET_NAMES,
    assemble,
    get_preset,
    mnf2_material,
    yig_reference_material,
)

G0_SLOPE = 0.025 / math.sqrt(1e9)  # 25 mHz per sqrt(GHz)


def cavity(omega_e_hz=20e9):
    return CavityParams(
        omega_e=angular(omega_e_hz),
        kappa_ee=angular(100e6),
        kappa_ei=angular(100e6),
        delta_omega_o=-angular(omega_e_hz),
        kappa_oe=angular(100e6),
        kappa_oi=angular(100e6),
        n_cav=1e6,
        g0_slope=G0_SLOPE,
    )


def cube_geometry():
    return SampleGeometry(cross_section=1e-8, thickness=1e-4)  # (0.1 mm)^3


def film_geometry():
    return SampleGeometry(cross_section=1e-8, thickness=1e-6)  # (0.1 mm)^2 x 1 um


class TestMicrowaveCoupling:
    def test_reference_cube_value(self):
        # 20 GHz cavity, (0.1 mm)^3 sample: expected about 3.3 MHz
        ga, gb = microwave_coupling(mnf2_material(), cube_geometry(), cavity())
        assert ga == gb
        assert ordinary(gb) == pytest.approx(3.3e6, rel=0.05)
        # frozen pipeline value for regression
        assert ordinary(gb) == pytest.approx(3.3504225668821888e6, rel=1e-12)

    def test_thin_film_value(self):
        _, gb = microwave_coupling(mnf2_material(), film_geometry(), cavity())
        assert ordinary(gb) == pytest.approx(0.33e6, rel=0.05)

    def test_250ghz_value(self):
        _, gb = microwave_coupling(mnf2_material(), cube_geometry(), cavity(250e9))
        assert ordinary(gb) == pytest.approx(10e6, rel=0.2)

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_sqrt_volume_scaling(self, scale):
        geom1 = cube_geometry()
        geom2 = SampleGeometry(cross_section=geom1.cross_section * scale,
                               thickness=geom1.thickness)
        _, g1 = microwave_coupling(mnf2_material(), geom1, cavity())
        _, g2 = microwave_coupling(mnf2_material(), geom2, cavity())
        assert g2 / g1 == pytest.approx(math.sqrt(scale), rel=1e-12)

    def test_doubling_volume_multiplies_by_sqrt2(self):
        geom1 = cube_geometry()
        geom2 = SampleGeometry(cross_section=geom1.cross_section,
                               thickness=2 * geom1.thickness)
        _, g1 = microwave_coupling(mnf2_material(), geom1, cavity())
        _, g2 = microwave_coupling(mnf2_material(), geom2, cavity())
        assert g2 / g1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_quadrupling_omega_e_doubles_g0(self):
        g0_1 = vacuum_coupling_empirical(cavity(20e9))
        g0_2 = vacuum_coupling_empirical(cavity(80e9))
        assert g0_2 / g0_1 == pytest.approx(2.0, rel=1e-12)

    def test_cavity_volume_alternative_positive(self):
        g0 = vacuum_coupling_from_cavity_volume(
            gyro=angular(28e9), omega_e=angular(20e9), cavity_volume=1e-6
        )
        assert g0 > 0
        with pytest.raises(ValueError):
            vacuum_coupling_from_cavity_volume(angular(28e9), angular(20e9), 0.0)


class TestOpticalCoupling:
    def test_calibrated_reference_value(self):
        # kappa_beta = 0.4, V = 1e-3 mm^3 -> G_beta = 40 Hz
        _, Gb = optical_coupling(mnf2_material(), cube_geometry(), (0.5, 0.4))
        assert ordinary(Gb) == pytest.approx(40.0, rel=1e-9)

    def test_zero_kappa_gives_zero(self):
        Ga, Gb = optical_coupling(mnf2_material(), cube_geometry(), (0.0, 0.0))
        assert Ga == Gb == 0.0

    def test_inverse_sqrt_volume_scaling(self):
        _, g1 = optical_coupling(mnf2_material(), cube_geometry(), (0.5, 0.4))
        bigger = SampleGeometry(cross_section=4e-8, thickness=1e-4)
        _, g2 = optical_coupling(mnf2_material(), bigger, (0.5, 0.4))
        assert g1 / g2 == pytest.approx(2.0, rel=1e-12)

    def test_first_principles_ratio_is_kappa(self):
        m = yig_reference_material()
        geom = cube_geometry()
        kappas = (0.5, 0.4)
        Ga, Gb = optical_coupling(m, geom, kappas, backend="first-principles")
        base = ferromagnet_reference(m.theta_F, m.eps_r, geom.total_spins(m.spin_density))
        assert Ga / base == pytest.approx(kappas[0], rel=1e-12)
        assert Gb / base == pytest.approx(kappas[1], rel=1e-12)

    def test_backends_differ_by_order_one_to_ten(self):
        m = yig_reference_material()
        _, cal = optical_coupling(m, cube_geometry(), (1.0, 1.0))
        _, fp = optical_coupling(m, cube_geometry(), (1.0, 1.0), backend="first-principles")
        assert 1.0 < cal / fp < 20.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            optical_coupling(mnf2_material(), cube_geometry(), (0.5, 0.4), backend="guess")


class TestZetaAndXi:
    def test_zeta_zero_population(self):
        assert cavity_enhanced_zeta(TWO_PI * 40.0, 0.0) == 0.0

    def test_zeta_reference_values(self):
        assert ordinary(cavity_enhanced_zeta(TWO_PI * 40.0, 1e6)) == pytest.approx(40e3, rel=1e-12)
        assert ordinary(cavity_enhanced_zeta(TWO_PI * 50.0, 1e6)) == pytest.approx(50e3, rel=1e-12)

    def test_xi_zero_power(self):
        drive = DriveParams(power=0.0, omega_drive=angular(193e12))
        assert itinerant_xi(TWO_PI * 400.0, film_geometry(), drive) == 0.0

    def test_xi_transit_formula_value(self):
        # independent evaluation of G^2 (d/c)^2 P/(hbar Omega) for the film case
        drive = DriveParams(power=15e-3, omega_drive=angular(193e12))
        _, Gb = optical_coupling(mnf2_material(), film_geometry(), (0.5, 0.4))
        xi = itinerant_xi(Gb, film_geometry(), drive)
        tau = 1e-6 / SPEED_OF_LIGHT
        flux = 15e-3 / (HBAR * angular(193e12))
        expected = (TWO_PI * 400.0) ** 2 * tau * tau * flux
        assert xi == pytest.approx(expected, rel=1e-9)
        # the transit formula lands near 1.3e-6 Hz, an O(6) factor above
        # the calibrated law's 2.1e-7 Hz at this thickness
        assert ordinary(xi) == pytest.approx(1.312e-6, rel=0.01)

    def test_xi_proportional_to_thickness(self):
        # G^2 ~ 1/volume and tau^2 ~ d^2 leave xi linear in d
        m = mnf2_material()
        drive = DriveParams(power=15e-3, omega_drive=angular(193e12))
        thin, thick = film_geometry(), SampleGeometry(cross_section=1e-8, thickness=2e-6)
        xi_thin = itinerant_xi(optical_coupling(m, thin, (0.5, 0.4))[1], thin, drive)
        xi_thick = itinerant_xi(optical_coupling(m, thick, (0.5, 0.4))[1], thick, drive)
        assert xi_thick / xi_thin == pytest.approx(2.0, rel=1e-12)


class TestThicknessLaws:
    def test_film_point(self):
        assert ordinary(calibrated_xi(1e-6)) == pytest.approx(2.1e-7, rel=1e-12, abs=0.0)  # 1 um

    def test_unit_thickness_point(self):
        assert ordinary(calibrated_xi(1e-3)) == pytest.approx(2.1e-4, rel=1e-12)  # 1 mm

    def test_xi_law_linear_in_thickness(self):
        assert calibrated_xi(2e-6) / calibrated_xi(1e-6) == pytest.approx(2.0, rel=1e-12)


RATES = ("g_alpha", "g_beta", "zeta_alpha", "zeta_beta", "xi_alpha", "xi_beta")
LITERAL = CouplingSet(g_alpha=2e6, g_beta=3e6, G_alpha=5.0, G_beta=4.0,
                      zeta_alpha=5e4, zeta_beta=4e4, xi_alpha=1e-6, xi_beta=2e-6)


class TestHeterostructure:
    def test_identity_at_single_layer(self):
        assert geometry_scaling(LITERAL, 1) == LITERAL

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200), m=st.integers(min_value=1, max_value=200))
    def test_composition(self, n, m):
        once = geometry_scaling(LITERAL, n * m)
        twice = geometry_scaling(geometry_scaling(LITERAL, n), m)
        assert twice.g_beta == pytest.approx(once.g_beta, rel=1e-12)
        assert twice.zeta_beta == pytest.approx(once.zeta_beta, rel=1e-12)

    def test_xi_unchanged(self):
        scaled = geometry_scaling(LITERAL, 100)
        assert scaled.xi_beta == LITERAL.xi_beta
        assert scaled.g_beta == pytest.approx(10.0 * LITERAL.g_beta, rel=1e-12)

    @pytest.mark.parametrize("name", ["mnf2-easyaxis-20GHz", "mnf2-nocavity-20GHz"])
    def test_array_scaling_equals_point_by_point(self, name):
        base = assemble(get_preset(name)).system
        ratios = np.geomspace(1e-3, 1e3, 41)
        stacked = geometry_scaling(base, 7, ratios)
        for i, ratio in enumerate(ratios.tolist()):
            single = geometry_scaling(base, 7, ratio)
            for rate in RATES:
                # scalars stay Python floats: the closed forms do complex
                # arithmetic on them, which np.float64 rounds differently
                assert type(getattr(single, rate)) is float
                assert getattr(stacked, rate)[i] == getattr(single, rate)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            geometry_scaling(CouplingSet(), 0)

    @pytest.mark.parametrize("name", [
        name for name in PRESET_NAMES
        if get_preset(name).g_override is None and get_preset(name).zeta_override is None
    ])
    def test_matches_pipeline_at_scaled_geometry(self, name):
        preset = get_preset(name)
        base = assemble(preset).system
        for n in (1, 7, 5000):
            for ratio in (1e-9, 3.7e-4, 0.5, 1.0, 2.0, 613.0, 1e7):
                geometry = dataclasses.replace(
                    preset.geometry, thickness=preset.geometry.thickness * ratio, layer_count=n
                )
                expected = assemble(dataclasses.replace(preset, geometry=geometry)).system
                scaled = geometry_scaling(base, n, ratio)
                for rate in RATES:
                    want, got = getattr(expected, rate), getattr(scaled, rate)
                    assert abs(got - want) <= 1e-15 * want, (rate, n, ratio, got, want)


class TestFerromagnetReference:
    def test_positive_for_reference_values(self):
        m = yig_reference_material()
        base = ferromagnet_reference(m.theta_F, m.eps_r, 2.1e16)
        assert base > 0
        # independent evaluation: c * theta / (4 sqrt(eps)) / sqrt(2 SN)
        expected = SPEED_OF_LIGHT * m.theta_F / (4 * math.sqrt(5.0)) / math.sqrt(4.2e16)
        assert base == pytest.approx(expected, rel=1e-12)

    def test_unit_kappa_equality(self):
        m = yig_reference_material()
        geom = cube_geometry()
        Ga, _ = optical_coupling(m, geom, (1.0, 1.0), backend="first-principles")
        base = ferromagnet_reference(m.theta_F, m.eps_r, geom.total_spins(m.spin_density))
        assert Ga == base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ferromagnet_reference(0.0, 5.0, 1e16)


class TestGeometryAndParams:
    def test_volume(self):
        assert cube_geometry().volume == pytest.approx(1e-12, abs=0)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SampleGeometry(cross_section=0.0, thickness=1e-4)
        with pytest.raises(ValueError):
            SampleGeometry(cross_section=1e-8, thickness=-1e-4)
        with pytest.raises(ValueError):
            SampleGeometry(cross_section=1e-8, thickness=1e-4, layer_count=0)

    def test_invalid_cavity(self):
        with pytest.raises(ValueError):
            CavityParams(
                omega_e=angular(20e9), kappa_ee=0.0, kappa_ei=0.0,
                delta_omega_o=0.0, kappa_oe=0.0, kappa_oi=0.0,
                n_cav=1e6, g0_slope=G0_SLOPE,
            )

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            CouplingSet(g_alpha=-1.0)

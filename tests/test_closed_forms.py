"""Closed forms: susceptibilities, reductions, cooperativity identities."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from afm_transducer.closed_forms import (
    Cooperativities,
    cooperativities,
    cooperativity_form_with_cavity,
    cooperativity_form_without_cavity,
    eta_with_cavity_full,
    eta_with_cavity_single,
    eta_without_cavity_full,
    eta_without_cavity_single,
    lock_double_resonance,
    lock_quadruple_resonance,
    lock_triple_resonance,
    susceptibilities,
)
from afm_transducer.presets import assemble, get_preset
from afm_transducer.scattering import scatter

from conftest import draw_with_cavity_system, draw_without_cavity_system

mp.mp.dps = 40


class TestSusceptibilities:
    def test_on_resonance_real(self):
        system = assemble(get_preset("mnf2-easyaxis-20GHz")).system
        chi = susceptibilities(system, system.omega_e)
        assert chi.chi_e == pytest.approx(2.0 / system.kappa_e, rel=1e-12)
        assert chi.chi_e.imag == 0.0
        # locked detuning makes the optical response real too
        assert chi.chi_o == pytest.approx(2.0 / system.kappa_o, rel=1e-12)

    def test_half_width_magnitude(self):
        system = assemble(get_preset("mnf2-easyaxis-20GHz")).system
        chi = susceptibilities(system, system.omega_e + system.kappa_e / 2.0)
        assert abs(chi.chi_e) == pytest.approx(math.sqrt(2.0) / system.kappa_e, rel=1e-12)

    def test_random_draw_against_high_precision(self, rng):
        system = draw_with_cavity_system(rng)
        omega = system.omega_e + 0.7 * system.kappa_e
        chi = susceptibilities(system, omega)
        ref = 1 / (-1j * (mp.mpf(omega) - mp.mpf(system.omega_alpha))
                   + mp.mpf(system.gamma_alpha) / 2)
        assert chi.chi_alpha.real == pytest.approx(float(ref.real), rel=1e-12)
        assert chi.chi_alpha.imag == pytest.approx(float(ref.imag), rel=1e-12)

    def test_without_cavity_has_no_optical_response(self, rng):
        system = draw_without_cavity_system(rng)
        assert susceptibilities(system, system.omega_e).chi_o is None


class TestModeDecoupling:
    def test_with_cavity_full_reduces_to_single(self, rng):
        worst = 0.0
        for _ in range(100):
            system = draw_with_cavity_system(rng)
            solo_beta = dataclasses.replace(system, g_alpha=0.0, zeta_alpha=0.0)
            omega = system.omega_e + rng.uniform(-2, 2) * system.kappa_e
            full = eta_with_cavity_full(solo_beta, omega)
            single = eta_with_cavity_single(solo_beta, "beta", omega)
            worst = max(worst, abs(full - single) / single)
        assert worst < 1e-12

    def test_without_cavity_full_reduces_to_single(self, rng):
        worst = 0.0
        for _ in range(100):
            system = draw_without_cavity_system(rng)
            solo_beta = dataclasses.replace(system, g_alpha=0.0, xi_alpha=0.0)
            omega = system.omega_e + rng.uniform(-2, 2) * system.kappa_e
            full = eta_without_cavity_full(solo_beta, omega)
            single = eta_without_cavity_single(solo_beta, "beta", omega)
            worst = max(worst, abs(full - single) / single)
        assert worst < 1e-12

    def test_zero_coupling_gives_zero(self, rng):
        system = dataclasses.replace(
            draw_with_cavity_system(rng), zeta_alpha=0.0, zeta_beta=0.0
        )
        assert eta_with_cavity_single(system, "beta", system.omega_e) == 0.0

    def test_mode_label_swap_symmetry(self, rng):
        for _ in range(20):
            system = draw_with_cavity_system(rng)
            swapped = dataclasses.replace(
                system,
                omega_alpha=system.omega_beta, omega_beta=system.omega_alpha,
                gamma_alpha=system.gamma_beta, gamma_beta=system.gamma_alpha,
                g_alpha=system.g_beta, g_beta=system.g_alpha,
                zeta_alpha=system.zeta_beta, zeta_beta=system.zeta_alpha,
            )
            omega = system.omega_e + 0.4 * system.kappa_e
            assert eta_with_cavity_full(system, omega) == pytest.approx(
                eta_with_cavity_full(swapped, omega), rel=1e-12
            )

    def test_grouped_and_expanded_denominators_agree(self, rng):
        for _ in range(50):
            system = draw_with_cavity_system(rng)
            omega = system.omega_e + rng.uniform(-3, 3) * system.kappa_e
            grouped = eta_with_cavity_full(system, omega)
            expanded = eta_with_cavity_full(system, omega, expanded=True)
            assert grouped == pytest.approx(expanded, rel=1e-9)


class TestResonanceLocks:
    def test_triple_resonance_equals_cooperativity_form(self, rng):
        worst = 0.0
        for _ in range(50):
            system = dataclasses.replace(
                draw_with_cavity_system(rng), g_alpha=0.0, zeta_alpha=0.0
            )
            locked, probe = lock_triple_resonance(system, "beta")
            closed = eta_with_cavity_single(locked, "beta", probe)
            coop = cooperativity_form_with_cavity(cooperativities(locked), "beta")
            worst = max(worst, abs(closed - coop) / coop)
        assert worst < 1e-12

    def test_double_resonance_equals_cooperativity_form(self, rng):
        worst = 0.0
        for _ in range(50):
            system = dataclasses.replace(
                draw_without_cavity_system(rng), g_alpha=0.0, xi_alpha=0.0
            )
            locked, probe = lock_double_resonance(system, "beta")
            closed = eta_without_cavity_single(locked, "beta", probe)
            coop = cooperativity_form_without_cavity(cooperativities(locked), "beta")
            worst = max(worst, abs(closed - coop) / coop)
        assert worst < 1e-12

    def test_locks_pin_exactly(self, rng):
        system = draw_with_cavity_system(rng)
        locked, probe = lock_quadruple_resonance(system)
        assert probe == system.omega_e
        assert locked.omega_alpha == locked.omega_beta == system.omega_e
        assert locked.delta_omega_o == -system.omega_e

    def test_lock_configuration_guards(self, rng):
        with_cav = draw_with_cavity_system(rng)
        without = draw_without_cavity_system(rng)
        with pytest.raises(ValueError):
            lock_double_resonance(with_cav)
        with pytest.raises(ValueError):
            lock_triple_resonance(without)


class TestHeadlineEstimates:
    def test_single_mode_20ghz_point(self):
        assembled = assemble(get_preset("mnf2-easyaxis-20GHz"))
        eta = eta_with_cavity_single(assembled.system, "beta", assembled.probe)
        # independent arithmetic: eta_o eta_e 4 Com Cem / (1+Com+Cem)^2 with
        # g = 3.3504 MHz, zeta = 40 kHz, gamma = 100 MHz, kappas = 200 MHz
        g, z, gam, ke, ko = 3.3504225668821888, 0.04, 100.0, 200.0, 200.0
        cem = 4 * g * g / (ke * gam)
        com = 4 * z * z / (ko * gam)
        expected = 0.25 * 4 * com * cem / (1 + com + cem) ** 2
        assert eta == pytest.approx(expected, rel=1e-9)
        assert 3e-10 < eta < 3e-9

    def test_two_mode_degenerate_point(self):
        assembled = assemble(get_preset("mnf2-degenerate-250GHz"))
        eta = eta_with_cavity_full(assembled.system, assembled.probe)
        # hand evaluation with the quoted rates gives 6.4696e-11
        assert eta == pytest.approx(6.4696434e-11, rel=1e-6)
        assert 2e-11 < eta < 3e-10

    def test_no_cavity_point(self):
        assembled = assemble(get_preset("mnf2-nocavity-20GHz"))
        eta = eta_without_cavity_single(assembled.system, "beta", assembled.probe)
        coop = cooperativities(assembled.system)
        assert coop.eta_m_beta == pytest.approx(2.1e-15, rel=1e-9, abs=0)
        assert eta == pytest.approx(9.4288550e-20, rel=1e-6, abs=0)
        assert 3e-20 < eta < 3e-19

    def test_cooperativity_values_match_quoted(self):
        coop = cooperativities(assemble(get_preset("mnf2-easyaxis-20GHz")).system)
        assert coop.eta_e == coop.eta_o == 0.5
        assert coop.c_em_beta == pytest.approx(2.245e-3, rel=1e-3)
        assert coop.c_om_beta == pytest.approx(3.2e-7, rel=1e-9)


class TestCooperativityForms:
    def coops(self, c_om, c_em, eta_m=0.0):
        return Cooperativities(
            c_em_alpha=0.0, c_em_beta=c_em, c_om_alpha=0.0, c_om_beta=c_om,
            eta_e=0.5, eta_o=0.5, eta_m_alpha=0.0, eta_m_beta=eta_m,
        )

    def test_stacked_equals_point_by_point(self, rng):
        # sweep rows take their cooperativities from one stacked call; each
        # must equal the single-point figure bit for bit
        system = draw_with_cavity_system(rng)
        scales = np.geomspace(1e-3, 1e3, 4001)
        stacked = cooperativities(dataclasses.replace(
            system, g_beta=system.g_beta * scales, zeta_beta=system.zeta_beta / scales))
        for i, scale in enumerate(scales.tolist()):
            single = cooperativities(dataclasses.replace(
                system, g_beta=system.g_beta * scale, zeta_beta=system.zeta_beta / scale))
            assert stacked.c_em_beta[i] == single.c_em_beta
            assert stacked.c_om_beta[i] == single.c_om_beta

    def test_zero_cooperativities(self):
        assert cooperativity_form_with_cavity(self.coops(0.0, 0.0)) == 0.0
        assert cooperativity_form_without_cavity(self.coops(0.0, 0.0)) == 0.0

    def test_quoted_arithmetic_point(self):
        eta = cooperativity_form_with_cavity(self.coops(3.2e-7, 2.18e-3))
        assert eta == pytest.approx(6.95e-10, rel=1e-2)

    def test_no_cavity_quoted_point(self):
        eta = cooperativity_form_without_cavity(self.coops(0.0, 2.18e-5, eta_m=2.1e-15))
        assert eta == pytest.approx(9.2e-20, rel=1e-2, abs=0)

    def test_impedance_match_factor(self):
        coop = self.coops(0.0, 1.0, eta_m=1.0)
        assert cooperativity_form_without_cavity(coop) == pytest.approx(0.5, rel=1e-12)

    def test_fixed_product_peaks_at_equality(self):
        product = 1e-4
        ratios = np.geomspace(1e-3, 1e3, 601)
        values = [
            cooperativity_form_with_cavity(
                self.coops(math.sqrt(product * r), math.sqrt(product / r))
            )
            for r in ratios
        ]
        best = ratios[int(np.argmax(values))]
        assert abs(math.log(best)) < math.log(ratios[1] / ratios[0]) * 1.5

    def test_monotone_then_decreasing_in_c_om(self):
        c_em = 0.5
        grid = np.geomspace(1e-4, 1e3, 400)
        values = [cooperativity_form_with_cavity(self.coops(c, c_em)) for c in grid]
        peak = int(np.argmax(values))
        assert grid[peak] == pytest.approx(1.0 + c_em, rel=0.05)
        assert all(np.diff(values[: peak + 1]) > 0)
        assert all(np.diff(values[peak + 1:]) < 0)

    def test_eta_m_zero_kills_conversion(self):
        assert cooperativity_form_without_cavity(self.coops(0.0, 0.3, eta_m=0.0)) == 0.0

    def test_port_ratio_validation(self):
        with pytest.raises(ValueError):
            Cooperativities(
                c_em_alpha=0.0, c_em_beta=0.0, c_om_alpha=0.0, c_om_beta=0.0,
                eta_e=1.5, eta_o=0.5, eta_m_alpha=0.0, eta_m_beta=0.0,
            )


class TestSolverAgreementSpotCheck:
    def test_preset_quadruple_resonance(self):
        assembled = assemble(get_preset("mnf2-degenerate-250GHz"))
        closed = eta_with_cavity_full(assembled.system, assembled.probe)
        matrix = scatter(assembled.system, assembled.probe).eta
        assert abs(matrix - closed) / closed < 1e-9

"""Acceptance suite: one test per headline criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Every tolerance is pinned here, not configurable.

Criterion 5 checks the thickness laws of the cavity configuration: the
calibrated couplings keep C_om * C_em constant, so wherever one
cooperativity dominates the efficiency falls off as d^+2 / d^-2 and the
amplitude |S41| = sqrt(eta) as d^+1 / d^-1.  Criterion 7 checks the
layered stack: each cooperativity grows as N, and the efficiency ratio is
exactly N^2 [(1 + s_1)/(1 + s_N)]^2 with s = C_om + C_em, which tends to
the bare N^2 law while both cooperativities stay small.
"""

import dataclasses

import numpy as np

from afm_transducer.closed_forms import (
    cooperativities,
    cooperativity_form_with_cavity,
    cooperativity_form_without_cavity,
    eta_with_cavity_full,
    eta_with_cavity_single,
    eta_without_cavity_full,
    eta_without_cavity_single,
    lock_double_resonance,
    lock_triple_resonance,
)
from afm_transducer.constants import ordinary
from afm_transducer.magnon import (
    bogoliubov_uv,
    diagonalize_numeric,
    quadratic_hamiltonian,
    resonance_frequencies,
)
from afm_transducer.presets import assemble, get_preset
from afm_transducer.scattering import build_dynamics, scatter, scattering_matrix
from afm_transducer.sweeps import (
    SweepSpec,
    SweepVariable,
    faraday_sweep,
    find_optimal_thickness,
    heterostructure_projection,
    thickness_sweep_with_cavity,
    thickness_sweep_without_cavity,
)

from conftest import draw_with_cavity_system, draw_without_cavity_system, probe_grid
from test_magnon import material as make_material


def report(number: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {state} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def test_criterion_1_single_mode_estimate():
    assembled = assemble(get_preset("mnf2-easyaxis-20GHz"))
    g_hz = ordinary(assembled.couplings.g_beta)
    zeta_hz = ordinary(assembled.couplings.zeta_beta)
    eta = scatter(assembled.system, assembled.probe).eta
    ok_g = abs(g_hz - 3.3e6) / 3.3e6 <= 0.05
    ok_zeta = abs(zeta_hz - 40e3) / 40e3 <= 0.05
    ok_eta = 3e-10 <= eta <= 3e-9
    report(
        1, "single-mode 20 GHz estimate", ok_g and ok_zeta and ok_eta,
        f"g_beta = {g_hz/1e6:.4f} MHz (3.3 +- 5%), "
        f"zeta_beta = {zeta_hz/1e3:.3f} kHz (40 +- 5%), "
        f"eta = {eta:.3e} (band [3e-10, 3e-9])",
    )


def test_criterion_2_two_mode_estimate():
    assembled = assemble(get_preset("mnf2-degenerate-250GHz"))
    eta_closed = eta_with_cavity_full(assembled.system, assembled.probe)
    eta_matrix = scatter(assembled.system, assembled.probe).eta
    rel = abs(eta_matrix - eta_closed) / eta_closed
    ok_band = 2e-11 <= eta_closed <= 3e-10
    ok_match = rel <= 1e-9
    report(
        2, "two-mode degenerate estimate", ok_band and ok_match,
        f"eta = {eta_closed:.3e} (band [2e-11, 3e-10]), "
        f"solver agreement {rel:.2e} (tol 1e-9)",
    )


def test_criterion_3_no_cavity_estimate():
    assembled = assemble(get_preset("mnf2-nocavity-20GHz"))
    xi_hz = ordinary(assembled.couplings.xi_beta)
    eta = scatter(assembled.system, assembled.probe).eta
    ok_xi = abs(xi_hz - 2.1e-7) / 2.1e-7 <= 1e-9
    ok_eta = 3e-20 <= eta <= 3e-19
    report(
        3, "itinerant-light estimate", ok_xi and ok_eta,
        f"xi_beta = {xi_hz:.3e} Hz (calibrated 2.1e-7), "
        f"eta = {eta:.3e} (band [3e-20, 3e-19])",
    )


def test_criterion_4_faraday_sweep():
    result = faraday_sweep()
    eta = result.column("eta")
    ratio = result.column("theta_f_ratio")
    eta_high = float(eta[np.argmin(np.abs(ratio - 1.0))])
    eta_low = float(eta[np.argmin(np.abs(ratio - 0.01))])
    slope = loglog_slope(ratio, eta)
    ok_high = 3e-10 <= eta_high <= 3e-9
    ok_low = 3e-14 <= eta_low <= 3e-13
    ok_slope = abs(slope - 2.0) <= 0.02
    report(
        4, "Faraday-angle sweep", ok_high and ok_low and ok_slope,
        f"eta(1) = {eta_high:.3e} (band [3e-10, 3e-9]), "
        f"eta(0.01) = {eta_low:.3e} (band [3e-14, 3e-13]), "
        f"slope = {slope:.4f} (2.00 +- 0.02)",
    )


def test_criterion_5_thickness_peak_with_cavity():
    # peak structure and matching condition on the default range
    result = thickness_sweep_with_cavity()
    eta = result.column("eta")
    peak = int(np.argmax(eta))
    ok_interior = 0 < peak < len(eta) - 1 and eta[0] < eta[peak] and eta[-1] < eta[peak]

    best = find_optimal_thickness()
    d_star_mm = best.thickness * 1e3
    ok_location = 5e-4 <= d_star_mm <= 5e-3
    ok_matching = abs(best.cooperativity_ratio - 1.0) <= 0.01

    # asymptotic slope clause, measured where the respective
    # cooperativity exceeds 10 (the range is extended so such points exist)
    wide = thickness_sweep_with_cavity(
        SweepSpec(
            preset="mnf2-easyaxis-20GHz", variable=SweepVariable.THICKNESS,
            lo=1e-13, hi=1e6, count=381,
        )
    )
    d = wide.column("thickness_mm")
    eta_w = wide.column("eta")
    small_side = wide.column("c_om_beta") > 10.0
    large_side = wide.column("c_em_beta") > 10.0
    # C_om * C_em is constant, so eta ~ 4 C_em/C_om ~ d^2 on the thin side
    # and eta ~ 4 C_om/C_em ~ d^-2 on the thick side; |S41| = sqrt(eta)
    # follows d^+1 / d^-1
    amp_w = np.sqrt(eta_w)
    eta_small = loglog_slope(d[small_side], eta_w[small_side])
    eta_large = loglog_slope(d[large_side], eta_w[large_side])
    amp_small = loglog_slope(d[small_side], amp_w[small_side])
    amp_large = loglog_slope(d[large_side], amp_w[large_side])
    ok_eta_slopes = abs(eta_small - 2.0) <= 0.05 and abs(eta_large + 2.0) <= 0.05
    ok_amp_slopes = abs(amp_small - 1.0) <= 0.05 and abs(amp_large + 1.0) <= 0.05

    report(
        5, "thickness peak with optical cavity",
        ok_interior and ok_location and ok_matching and ok_eta_slopes and ok_amp_slopes,
        f"interior max {'yes' if ok_interior else 'NO'}, "
        f"d* = {d_star_mm:.4e} mm (band [5e-4, 5e-3]), "
        f"C_om/C_em = {best.cooperativity_ratio:.4f} (1 +- 0.01), "
        f"eta slopes = {eta_small:+.3f}/{eta_large:+.3f} (+2/-2 +- 0.05), "
        f"|S41| slopes = {amp_small:+.3f}/{amp_large:+.3f} (+1/-1 +- 0.05)",
    )


def test_criterion_6_thickness_monotonic_without_cavity():
    result = thickness_sweep_without_cavity()
    d = result.column("thickness_mm")
    eta = result.column("eta")
    ok_valid = result.column("thin_sample_ok").astype(bool)
    ok_monotone = bool(np.all(np.diff(eta[ok_valid]) > 0))
    small = result.column("c_em_beta") < 0.01
    slope = loglog_slope(d[small], eta[small])
    ok_slope = abs(slope - 2.0) <= 0.02
    report(
        6, "monotonic thickness growth without optical cavity",
        ok_monotone and ok_slope,
        f"strictly increasing over the physical range: {ok_monotone}, "
        f"small-cooperativity slope = {slope:.4f} (2.00 +- 0.02)",
    )


def test_criterion_7_heterostructure_projection():
    result = heterostructure_projection()
    n = result.column("n_layers")
    eta = result.column("eta")
    eta_1 = float(eta[np.argwhere(n == 1)[0][0]])
    eta_5000 = float(eta[np.argwhere(n == 5000)[0][0]])
    ok_headline = 3e-3 <= eta_5000 <= 3e-2

    # each cooperativity grows as N, so C_om * C_em grows as N^2 and
    # eta_N/eta_1 = N^2 [(1 + s_1)/(1 + s_N)]^2 with s = C_om + C_em
    c_om = result.column("c_om_beta")
    c_em = result.column("c_em_beta")
    s = c_om + c_em
    i_1 = int(np.argwhere(n == 1)[0][0])
    worst_coop = 0.0
    worst_ratio = 0.0
    bare = {}
    saturation = {}
    for n_check in (2, 5, 10, 20, 50, 100):
        i = int(np.argwhere(n == n_check)[0][0])
        worst_coop = max(
            worst_coop,
            abs(c_om[i] / (n_check * c_om[i_1]) - 1.0),
            abs(c_em[i] / (n_check * c_em[i_1]) - 1.0),
        )
        saturation[n_check] = float(((1.0 + s[i_1]) / (1.0 + s[i])) ** 2)
        expected = n_check**2 * saturation[n_check]
        worst_ratio = max(worst_ratio, abs(float(eta[i]) / eta_1 / expected - 1.0))
        bare[n_check] = float(eta[i]) / eta_1 / n_check**2 - 1.0
    ok_coop = worst_coop <= 1e-12
    ok_ratio = worst_ratio <= 1e-9
    worst_n = max(bare, key=lambda k: abs(bare[k]))

    report(
        7, "layered-stack projection",
        ok_headline and ok_coop and ok_ratio,
        f"eta(5000 layers) = {eta_5000:.3e} (band [3e-3, 3e-2]), "
        f"C_om, C_em vs N x one layer: worst {worst_coop:.2e} (tol 1e-12), "
        f"eta_N/eta_1 vs N^2 [(1+s_1)/(1+s_N)]^2: worst {worst_ratio:.2e} (tol 1e-9); "
        f"bare N^2 deviation {bare[worst_n]*100:+.3f}% at N = {worst_n} "
        f"with saturation factor {saturation[worst_n]:.6f}",
    )


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(8)
    worst_with = 0.0
    for _ in range(200):
        system = draw_with_cavity_system(rng)
        for omega in probe_grid(system):
            eta_matrix = scatter(system, omega).eta
            eta_closed = eta_with_cavity_full(system, omega)
            worst_with = max(worst_with, abs(eta_matrix - eta_closed) / eta_closed)
    worst_without = 0.0
    for _ in range(200):
        system = draw_without_cavity_system(rng)
        for omega in probe_grid(system):
            eta_matrix = scatter(system, omega).eta
            eta_closed = eta_without_cavity_full(system, omega)
            worst_without = max(worst_without, abs(eta_matrix - eta_closed) / eta_closed)

    worst_coop = 0.0
    for _ in range(50):
        system = dataclasses.replace(
            draw_with_cavity_system(rng), g_alpha=0.0, zeta_alpha=0.0
        )
        locked, probe = lock_triple_resonance(system, "beta")
        closed = eta_with_cavity_single(locked, "beta", probe)
        coop = cooperativity_form_with_cavity(cooperativities(locked), "beta")
        worst_coop = max(worst_coop, abs(closed - coop) / coop)
    for _ in range(50):
        system = dataclasses.replace(
            draw_without_cavity_system(rng), g_alpha=0.0, xi_alpha=0.0
        )
        locked, probe = lock_double_resonance(system, "beta")
        closed = eta_without_cavity_single(locked, "beta", probe)
        coop = cooperativity_form_without_cavity(cooperativities(locked), "beta")
        worst_coop = max(worst_coop, abs(closed - coop) / coop)

    ok = worst_with <= 1e-9 and worst_without <= 1e-9 and worst_coop <= 1e-12
    report(
        8, "solver and closed forms mutually validate", ok,
        f"matrix vs closed form: {worst_with:.2e} (cavity), "
        f"{worst_without:.2e} (itinerant), tol 1e-9 over 200 draws x 11 probes; "
        f"closed vs cooperativity form at resonance: {worst_coop:.2e} (tol 1e-12)",
    )


def test_criterion_9_structural_properties():
    rng = np.random.default_rng(9)

    worst_sym = 0.0
    for draw in (draw_with_cavity_system, draw_without_cavity_system):
        for _ in range(25):
            system = draw(rng)
            for omega in probe_grid(system):
                s = scattering_matrix(build_dynamics(system), omega)
                worst_sym = max(worst_sym, float(np.max(np.abs(s - s.T))))
    ok_sym = worst_sym <= 1e-12

    worst_unitary = 0.0
    for _ in range(50):
        system = draw_with_cavity_system(rng, lossless=True)
        for omega in probe_grid(system):
            s = scattering_matrix(build_dynamics(system), omega)
            worst_unitary = max(
                worst_unitary, float(np.max(np.abs(s.conj().T @ s - np.eye(4))))
            )
    ok_unitary = worst_unitary <= 1e-9

    worst_norm = 0.0
    worst_zeeman = 0.0
    worst_diag = 0.0
    for _ in range(100):
        we = 10 ** rng.uniform(11, 13)
        m = make_material(omega_E_hz=we, omega_par_hz=we * 10 ** rng.uniform(-4, -1))
        u, v = bogoliubov_uv(m)
        worst_norm = max(worst_norm, abs(u * u - v * v - 1.0))
        # fields above ~1e-3 of spin-flop keep the splitting resolvable
        b0 = rng.uniform(1e-3, 0.9) * m.zero_field_gap / m.gyro
        wa, wb = resonance_frequencies(m, b0)
        expected = 2.0 * m.gyro * b0
        worst_zeeman = max(worst_zeeman, abs((wa - wb) - expected) / expected)
        res = diagonalize_numeric(quadratic_hamiltonian(m, b0))
        worst_diag = max(
            worst_diag,
            abs(res.omega_alpha - wa) / wa,
            abs(res.omega_beta - wb) / wb,
        )
    ok_norm = worst_norm <= 1e-12
    ok_zeeman = worst_zeeman <= 1e-12
    ok_diag = worst_diag <= 1e-9

    ok = ok_sym and ok_unitary and ok_norm and ok_zeeman and ok_diag
    report(
        9, "structural properties", ok,
        f"max|S-S^T| = {worst_sym:.2e} (tol 1e-12), "
        f"lossless ||S+S - I|| = {worst_unitary:.2e} (tol 1e-9), "
        f"|U^2-V^2-1| = {worst_norm:.2e} (tol 1e-12), "
        f"Zeeman splitting dev = {worst_zeeman:.2e} (tol 1e-12), "
        f"numeric vs analytic modes = {worst_diag:.2e} (tol 1e-9 over 100 draws)",
    )

"""Scattering core: matrix structure, limits, reciprocity, unitarity."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afm_transducer.closed_forms import eta_with_cavity_full, eta_without_cavity_full
from afm_transducer.constants import TWO_PI, angular
from afm_transducer.errors import SingularMatrixError
from afm_transducer.scattering import (
    Configuration,
    ModeSystem,
    build_dynamics,
    efficiency,
    reflection,
    scatter,
    scattering_matrix,
    solve_complex_linear,
)

from conftest import draw_with_cavity_system, draw_without_cavity_system, probe_grid


def decoupled_system(kappa_ee_hz=100e6, kappa_ei_hz=100e6):
    return ModeSystem(
        configuration=Configuration.WITH_OPTICAL_CAVITY,
        omega_e=angular(20e9),
        omega_alpha=angular(21e9),
        omega_beta=angular(20e9),
        kappa_ee=angular(kappa_ee_hz),
        kappa_ei=angular(kappa_ei_hz),
        gamma_alpha=angular(100e6),
        gamma_beta=angular(100e6),
        delta_omega_o=-angular(20e9),
        kappa_oe=angular(100e6),
        kappa_oi=angular(100e6),
    )


class TestBuildDynamics:
    def test_decoupled_diagonal(self):
        s = decoupled_system()
        dm = build_dynamics(s)
        a = dm.a
        assert a[0, 0] == 1j * s.omega_e + s.kappa_e / 2
        assert a[1, 1] == 1j * s.omega_alpha + s.gamma_alpha / 2
        assert a[2, 2] == 1j * s.omega_beta + s.gamma_beta / 2
        assert a[3, 3] == -1j * s.delta_omega_o + s.kappa_o / 2
        off = a - np.diag(np.diag(a))
        assert np.all(off == 0)

    def test_with_cavity_port_structure(self):
        dm = build_dynamics(decoupled_system())
        b = dm.b
        nonzero = np.argwhere(b != 0)
        assert nonzero.tolist() == [[0, 0], [3, 3]]

    def test_without_cavity_structure(self):
        s = ModeSystem(
            configuration=Configuration.WITHOUT_OPTICAL_CAVITY,
            omega_e=angular(20e9),
            omega_alpha=angular(250e9),
            omega_beta=angular(20e9),
            kappa_ee=angular(100e6),
            kappa_ei=angular(100e6),
            gamma_alpha=angular(100e6),
            gamma_beta=angular(100e6),
            xi_alpha=TWO_PI * 1e-7,
            xi_beta=TWO_PI * 2.1e-7,
        )
        dm = build_dynamics(s)
        assert dm.a.shape == (3, 3)
        assert dm.b.shape == (3, 4)
        assert dm.b[1, 3] == pytest.approx(math.sqrt(s.xi_alpha))
        assert dm.b[2, 3] == pytest.approx(math.sqrt(s.xi_beta))

    def test_coupled_matrix_is_symmetric(self, rng):
        for _ in range(20):
            dm = build_dynamics(draw_with_cavity_system(rng))
            assert np.array_equal(dm.a, dm.a.T)

    def test_mode_system_validation(self):
        base = decoupled_system()
        with pytest.raises(ValueError):
            dataclasses.replace(base, kappa_ee=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(base, xi_beta=1.0)  # xi unused with a cavity
        without = dataclasses.replace(
            base, configuration=Configuration.WITHOUT_OPTICAL_CAVITY,
            kappa_oe=0.0, kappa_oi=0.0, delta_omega_o=0.0,
        )
        with pytest.raises(ValueError):
            dataclasses.replace(without, zeta_beta=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(without, kappa_oe=1.0)


class TestDecoupledLimits:
    def test_forward_transmission_vanishes(self):
        res = scatter(decoupled_system(), angular(20e9))
        assert res.eta == 0.0

    def test_single_port_lorentzian_reflection(self):
        s = decoupled_system(kappa_ee_hz=150e6, kappa_ei_hz=50e6)
        for det_hz in (0.0, 40e6, -250e6, 1e9):
            omega = s.omega_e + TWO_PI * det_hz
            res = scatter(s, omega)
            num = abs((s.kappa_ei - s.kappa_ee) / 2 - 1j * TWO_PI * det_hz)
            den = abs(s.kappa_e / 2 - 1j * TWO_PI * det_hz)
            assert math.sqrt(res.reflection) == pytest.approx(num / den, rel=1e-12)

    def test_critical_coupling_dark_reflection(self):
        res = scatter(decoupled_system(), angular(20e9))
        assert res.reflection < 1e-24

    def test_far_detuned_mirror(self):
        s = decoupled_system()
        res = scatter(s, s.omega_e + 1000 * s.kappa_e)
        assert res.reflection == pytest.approx(1.0, abs=1e-5)


class TestOracleEquivalence:
    def test_with_cavity_matches_closed_form(self, rng):
        worst = 0.0
        for _ in range(50):
            system = draw_with_cavity_system(rng)
            for omega in probe_grid(system):
                eta_matrix = scatter(system, omega).eta
                eta_closed = eta_with_cavity_full(system, omega)
                worst = max(worst, abs(eta_matrix - eta_closed) / eta_closed)
        assert worst < 1e-9

    def test_without_cavity_matches_closed_form(self, rng):
        worst = 0.0
        for _ in range(50):
            system = draw_without_cavity_system(rng)
            for omega in probe_grid(system):
                eta_matrix = scatter(system, omega).eta
                eta_closed = eta_without_cavity_full(system, omega)
                worst = max(worst, abs(eta_matrix - eta_closed) / eta_closed)
        assert worst < 1e-9


class TestStructuralProperties:
    def test_reciprocity(self, rng):
        worst = 0.0
        for _ in range(30):
            system = draw_with_cavity_system(rng)
            for omega in probe_grid(system, count=5):
                s = scattering_matrix(build_dynamics(system), omega)
                worst = max(worst, float(np.max(np.abs(s - s.T))))
        for _ in range(30):
            system = draw_without_cavity_system(rng)
            for omega in probe_grid(system, count=5):
                s = scattering_matrix(build_dynamics(system), omega)
                worst = max(worst, float(np.max(np.abs(s - s.T))))
        assert worst < 1e-12

    def test_lossless_unitarity(self, rng):
        worst = 0.0
        for _ in range(50):
            system = draw_with_cavity_system(rng, lossless=True)
            for omega in probe_grid(system):
                s = scattering_matrix(build_dynamics(system), omega)
                worst = max(worst, float(np.max(np.abs(s.conj().T @ s - np.eye(4)))))
        assert worst < 1e-9

    def test_lossless_row_sums_to_one(self, rng):
        # reflection + transduction + internal-port leakage add up exactly
        system = draw_with_cavity_system(rng, lossless=True)
        s = scattering_matrix(build_dynamics(system), system.omega_e)
        row = np.abs(s[0]) ** 2
        assert row.sum() == pytest.approx(1.0, abs=1e-10)

    def test_sign_flip_invariance(self, rng):
        system = draw_with_cavity_system(rng)
        flipped = dataclasses.replace(
            system,
            g_alpha=-system.g_alpha, g_beta=-system.g_beta,
            zeta_alpha=-system.zeta_alpha, zeta_beta=-system.zeta_beta,
        )
        omega = system.omega_e + 0.5 * system.kappa_e
        assert scatter(system, omega).eta == pytest.approx(
            scatter(flipped, omega).eta, rel=1e-12
        )
        assert eta_with_cavity_full(system, omega) == pytest.approx(
            eta_with_cavity_full(flipped, omega), rel=1e-12
        )

    def test_preset_dynamics_entries_match_quoted_rates(self):
        from afm_transducer.presets import assemble, get_preset

        assembled = assemble(get_preset("mnf2-easyaxis-20GHz"))
        a = build_dynamics(assembled.system).a
        # quoted rates: kappa_e = kappa_o = 2 x 100 MHz, gamma = 100 MHz
        assert a[0, 0] == pytest.approx(1j * angular(20e9) + angular(200e6) / 2)
        assert a[2, 2] == pytest.approx(1j * angular(20e9) + angular(100e6) / 2)
        assert a[3, 3] == pytest.approx(1j * angular(20e9) + angular(200e6) / 2)
        assert a[0, 2] == pytest.approx(1j * angular(3.3504225668821888e6), rel=1e-12)
        assert a[2, 3] == pytest.approx(1j * angular(40e3), rel=1e-12)


class TestEfficiencyHelpers:
    def test_efficiency_and_reflection_extraction(self, rng):
        system = draw_with_cavity_system(rng)
        s = scattering_matrix(build_dynamics(system), system.omega_e)
        assert efficiency(s) == abs(s[3, 0]) ** 2
        assert reflection(s) == abs(s[0, 0]) ** 2

    def test_reciprocity_assertion_guards(self):
        bad = np.eye(4, dtype=complex)
        bad[3, 0] = 0.5
        with pytest.raises(AssertionError):
            efficiency(bad)

    def test_passivity_bounds_enforced(self, rng):
        for _ in range(20):
            system = draw_with_cavity_system(rng)
            res = scatter(system, system.omega_e)
            assert 0.0 <= res.eta <= 1.0 + 1e-12
            assert 0.0 <= res.reflection <= 1.0 + 1e-12


class TestStackedScatter:
    """A stack of points solves to exactly what each point solves to alone."""

    def test_probe_stack_equals_point_by_point(self, rng):
        for draw in (draw_with_cavity_system, draw_without_cavity_system):
            for _ in range(10):
                system = draw(rng)
                grid = probe_grid(system)
                stacked = scatter(system, grid)
                assert stacked.s.shape == (len(grid), 4, 4)
                for i, omega in enumerate(grid):
                    single = scatter(system, omega)
                    assert stacked.eta[i] == single.eta
                    assert stacked.reflection[i] == single.reflection
                    assert np.array_equal(stacked.s[i], single.s)

    def test_coupling_stack_equals_point_by_point(self, rng):
        scales = np.geomspace(0.1, 10.0, 7)
        draws = ((draw_with_cavity_system, "zeta"), (draw_without_cavity_system, "xi"))
        for draw, optical in draws:
            for _ in range(10):
                system = draw(rng)
                names = ("g_alpha", "g_beta", f"{optical}_alpha", f"{optical}_beta")
                omega = system.omega_e + 0.3 * system.kappa_e
                stacked = scatter(dataclasses.replace(
                    system, **{name: getattr(system, name) * scales for name in names}), omega)
                for i, scale in enumerate(scales):
                    single = scatter(dataclasses.replace(
                        system, **{name: getattr(system, name) * scale for name in names}), omega)
                    assert stacked.eta[i] == single.eta
                    assert stacked.reflection[i] == single.reflection
                    assert np.array_equal(stacked.s[i], single.s)

    def test_lossless_stack_names_singular_probe(self):
        # powers of two keep omega_e + g exact, so the dynamics at that
        # eigenfrequency are exactly singular
        omega_e, g = 2.0**37, 2.0**33
        system = ModeSystem(
            configuration=Configuration.WITH_OPTICAL_CAVITY,
            omega_e=omega_e, omega_alpha=2.0 * omega_e, omega_beta=omega_e,
            kappa_ee=0.0, kappa_ei=0.0, gamma_alpha=0.0, gamma_beta=0.0,
            delta_omega_o=-omega_e, g_beta=g,
        )
        grid = omega_e + g * np.array([0.5, 1.0, 1.5])
        named = re.escape(f"singular at point 1 (omega = {omega_e + g:g} rad/s)")
        with pytest.raises(SingularMatrixError, match=named):
            scatter(system, grid)

    def test_one_warning_names_the_ill_conditioned_point(self):
        # a nearly lossless microwave cavity probed on resonance at index 2,
        # where cond ~ 2e12 sits just above the threshold
        s = decoupled_system(kappa_ee_hz=5e-4, kappa_ei_hz=5e-4)
        grid = s.omega_e + TWO_PI * np.array([-2e6, -1e6, 0.0, 1e6, 2e6])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scatter(s, grid)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "ill-conditioned at 1 of 5 points" in message
        assert f"point 2 (omega = {grid[2]:g} rad/s)" in message

    def test_single_point_gives_floats(self):
        res = scatter(decoupled_system(), angular(20e9) + 1e6)
        assert isinstance(res.eta, float) and isinstance(res.reflection, float)
        assert res.s.shape == (4, 4)


class TestLinearSolver:
    def test_identity_returns_rhs(self):
        rhs = np.arange(8.0).reshape(4, 2)
        out = solve_complex_linear(np.eye(4, dtype=complex), rhs)
        assert np.array_equal(out, rhs)

    def test_residual_bound_on_random_draws(self, rng):
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
            rhs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x = solve_complex_linear(m, rhs)
            residual = np.linalg.norm(m @ x - rhs)
            assert residual <= 1e-12 * np.linalg.norm(rhs)

    def test_ill_conditioned_warns(self):
        # Hilbert-flavored test: scale the last row down until the
        # condition number crosses the warning threshold
        hilbert = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])
        hilbert[3] *= 1e-11
        assert np.linalg.cond(hilbert) > 1e12
        with pytest.warns(UserWarning, match="ill-conditioned"):
            solve_complex_linear(hilbert.astype(complex), np.eye(4))

    def test_singular_raises(self):
        singular = np.zeros((4, 4), dtype=complex)
        with pytest.raises(SingularMatrixError):
            solve_complex_linear(singular, np.eye(4))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_complex_linear(np.zeros((3, 4)), np.zeros(4))

    def test_zero_probe_without_cavity_solves(self):
        # three physical modes, all damped: the dynamics stay invertible at omega = 0
        system = ModeSystem(
            configuration=Configuration.WITHOUT_OPTICAL_CAVITY,
            omega_e=angular(20e9),
            omega_alpha=angular(250e9),
            omega_beta=angular(20e9),
            kappa_ee=angular(100e6),
            kappa_ei=angular(100e6),
            gamma_alpha=angular(100e6),
            gamma_beta=angular(100e6),
            g_beta=angular(3e6),
            xi_beta=TWO_PI * 2.1e-7,
        )
        eta = scatter(system, 0.0).eta
        assert eta > 0.0
        assert eta == pytest.approx(eta_without_cavity_full(system, 0.0), rel=1e-12, abs=0.0)


_WARNING = re.compile(
    r"ill-conditioned at (\d+) of (\d+) points \(worst cond ~ (\S+) at point (\d+)"
    r"(?: \(omega = (\S+) rad/s\))?\)"
)


def outcome_of_screen(matrix, omega):
    """What solve_complex_linear reports: nothing, the warning's fields or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve_complex_linear(matrix, np.eye(matrix.shape[-1]), omega=omega)
        except SingularMatrixError as exc:
            return "singular", re.search(r"at point (\d+)", str(exc)).group(1)
        except np.linalg.LinAlgError as exc:
            return type(exc).__name__, str(exc)
    assert len(caught) <= 1
    return _WARNING.search(str(caught[0].message)).groups() if caught else None


def outcome_of_full_svd(matrix, omega):
    """The same report from a solve and np.linalg.cond over the whole stack."""
    try:
        np.linalg.solve(matrix, np.eye(matrix.shape[-1]))
    except np.linalg.LinAlgError:
        return "singular", str(int(np.argmax(np.ravel(np.linalg.det(matrix)) == 0)))
    try:
        cond = np.ravel(np.linalg.cond(matrix))
    except np.linalg.LinAlgError as exc:
        return type(exc).__name__, str(exc)
    ill = np.count_nonzero(~(cond <= 1e12))
    if not ill:
        return None
    worst = int(np.argmax(cond))
    where = f"{np.broadcast_to(omega, cond.shape)[worst]:g}" if omega is not None else None
    return str(ill), str(cond.size), f"{cond[worst]:.2e}", str(worst), where


def with_singular_values(rng, sigmas, n):
    """Complex n x n matrices U diag(sigma) V^H with Haar-like U and V, one per sigma row."""
    sigmas = np.asarray(sigmas, dtype=float)

    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=sigmas.shape[:-1] + (n, n))
                            + 1j * rng.normal(size=sigmas.shape[:-1] + (n, n)))
        return q

    return (unitary() * sigmas[..., None, :]) @ np.swapaxes(unitary().conj(), -1, -2)


def hilbert(n):
    return np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])


class TestConditionScreen:
    """The Frobenius screen flags exactly what the full-stack SVD flags."""

    def assert_same(self, matrix, omega=None):
        expected = outcome_of_full_svd(matrix, omega)
        assert outcome_of_screen(matrix, omega) == expected
        return expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_log_spaced_conditions(self, rng, n):
        # cond from 1e0 to 1e18 in one stack, at several overall scales
        log_cond = np.linspace(0.0, 18.0, 73)
        sigmas = np.ones((log_cond.size, n))
        sigmas[:, -1] = 10.0 ** -log_cond
        sigmas[:, 1:-1] = 10.0 ** (-log_cond[:, None] / 2)
        for scale in (1e-6, 1.0, 1e9):
            matrix = scale * with_singular_values(rng, sigmas, n)
            omega = np.linspace(-1.0, 1.0, log_cond.size) * 1e11
            fields = self.assert_same(matrix, omega)
            assert fields is not None and int(fields[0]) >= 20

    def test_near_threshold_stack(self, rng):
        # one dominant and one tiny singular value: the bound sits within
        # 1e-8 of cond, and rounding scatters both by about 1e-4 around 1e12
        count = 2000
        sigmas = np.ones((count, 4))
        sigmas[:, 1:3] = 1e-4
        sigmas[:, 3] = 1e-12 * (1.0 + rng.uniform(-5e-4, 5e-4, count))
        matrix = with_singular_values(rng, sigmas, 4)
        fields = self.assert_same(matrix, np.arange(count, dtype=float))
        assert 0 < int(fields[0]) < count

    def test_scaled_near_singular_blocks(self, rng):
        base = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
        # the last column is a combination of the others, up to a relative 10^-k
        k = np.arange(40) % 20
        base[..., 3:] = (base[..., :3] @ rng.normal(size=(40, 3, 1))
                         + (10.0 ** -k)[:, None, None] * base[..., 3:])
        for scale in (1e-8, 1e3, 1e12):
            assert self.assert_same(scale * base) is not None

    def test_hilbert_blocks(self):
        blocks = []
        for n in (3, 4):
            for k in range(16):
                h = hilbert(n)
                h[-1] *= 10.0 ** -k
                blocks.append(h.astype(complex))
            for row in (1, 2):
                h = hilbert(n)
                h[row] *= 1e-13
                blocks.append(h.astype(complex))
        for n in (3, 4):
            stack = np.array([b for b in blocks if b.shape[0] == n])
            assert self.assert_same(stack) is not None

    def test_non_finite_entries(self, rng):
        base = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4)) + 4 * np.eye(4)
        for value in (np.inf, -np.inf, complex(0.0, np.inf), np.nan, complex(np.nan, 0.0)):
            matrix = base.copy()
            matrix[4, 1, 2] = value
            self.assert_same(matrix, np.arange(6.0))

    def test_one_matrix(self):
        h = hilbert(4)
        h[3] *= 1e-11
        assert self.assert_same(h.astype(complex), 2.5) is not None
        assert self.assert_same(hilbert(4).astype(complex)) is None

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_conds=st.lists(st.floats(0.0, 18.0), min_size=1, max_size=12),
        log_scale=st.floats(-6.0, 6.0),
        n=st.sampled_from([3, 4]),
    )
    def test_random_stacks(self, seed, log_conds, log_scale, n):
        rng = np.random.default_rng(seed)
        log_conds = np.asarray(log_conds)[:, None]
        exponents = np.hstack([np.zeros_like(log_conds),
                               log_conds * rng.uniform(0.0, 1.0, (len(log_conds), n - 2)),
                               log_conds])
        matrix = 10.0 ** log_scale * with_singular_values(rng, 10.0 ** -exponents, n)
        self.assert_same(matrix, rng.uniform(-1e11, 1e11, len(log_conds)))

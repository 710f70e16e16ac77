"""Shared random-system generators for the oracle-equivalence tests.

Draw ranges cover the physically sensible regime (GHz-scale modes,
MHz-scale linewidths, couplings well below the linewidths) so tight
relative tolerances are meaningful.
"""

import numpy as np
import pytest

from afm_transducer.constants import TWO_PI
from afm_transducer.scattering import Configuration, ModeSystem


def draw_with_cavity_system(rng: np.random.Generator, lossless: bool = False) -> ModeSystem:
    omega_e = TWO_PI * 10 ** rng.uniform(9.5, 11.5)
    kappa_ee = TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_ei = 0.0 if lossless else TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_oe = TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_oi = 0.0 if lossless else TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_e = kappa_ee + kappa_ei
    gamma = 0.0 if lossless else TWO_PI * 10 ** rng.uniform(6.0, 9.0)
    return ModeSystem(
        configuration=Configuration.WITH_OPTICAL_CAVITY,
        omega_e=omega_e,
        omega_alpha=omega_e + rng.uniform(-3, 3) * kappa_e,
        omega_beta=omega_e + rng.uniform(-3, 3) * kappa_e,
        kappa_ee=kappa_ee,
        kappa_ei=kappa_ei,
        gamma_alpha=gamma,
        gamma_beta=gamma if lossless else TWO_PI * 10 ** rng.uniform(6.0, 9.0),
        delta_omega_o=-omega_e + rng.uniform(-2, 2) * (kappa_oe + kappa_oi),
        kappa_oe=kappa_oe,
        kappa_oi=kappa_oi,
        g_alpha=TWO_PI * 10 ** rng.uniform(4.0, 7.5),
        g_beta=TWO_PI * 10 ** rng.uniform(4.0, 7.5),
        zeta_alpha=TWO_PI * 10 ** rng.uniform(2.0, 6.0),
        zeta_beta=TWO_PI * 10 ** rng.uniform(2.0, 6.0),
    )


def draw_without_cavity_system(rng: np.random.Generator) -> ModeSystem:
    omega_e = TWO_PI * 10 ** rng.uniform(9.5, 11.5)
    kappa_ee = TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_ei = TWO_PI * 10 ** rng.uniform(6.5, 9.0)
    kappa_e = kappa_ee + kappa_ei
    gamma_beta = TWO_PI * 10 ** rng.uniform(6.0, 9.0)
    return ModeSystem(
        configuration=Configuration.WITHOUT_OPTICAL_CAVITY,
        omega_e=omega_e,
        omega_alpha=omega_e + rng.uniform(-3, 3) * kappa_e,
        omega_beta=omega_e + rng.uniform(-3, 3) * kappa_e,
        kappa_ee=kappa_ee,
        kappa_ei=kappa_ei,
        gamma_alpha=TWO_PI * 10 ** rng.uniform(6.0, 9.0),
        gamma_beta=gamma_beta,
        g_alpha=TWO_PI * 10 ** rng.uniform(4.0, 7.5),
        g_beta=TWO_PI * 10 ** rng.uniform(4.0, 7.5),
        xi_alpha=TWO_PI * 10 ** rng.uniform(-8.0, -2.0),
        xi_beta=TWO_PI * 10 ** rng.uniform(-8.0, -2.0),
    )


def probe_grid(system: ModeSystem, count: int = 11) -> np.ndarray:
    return system.omega_e + np.linspace(-5.0, 5.0, count) * system.kappa_e


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

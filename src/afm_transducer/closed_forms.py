"""Closed-form efficiencies, susceptibilities and cooperativity expressions.

These duplicate the matrix solver's physics in analytic form and serve
as its independent cross-check: every efficiency here must agree with
|S[3, 0]|^2 from :mod:`afm_transducer.scattering` to solver precision.

The complex susceptibilities are

    chi_e  = [-i (omega - omega_e)     + kappa_e / 2]^{-1}
    chi_mu = [-i (omega - omega_mu)    + gamma_mu / 2]^{-1}
    chi_o  = [-i (omega + delta_omega_o) + kappa_o / 2]^{-1}

Note the sign in chi_o: with the stored detuning convention the optical
response is resonant at omega = -delta_omega_o, which is what the
resonance-locking helpers enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scattering import Configuration, ModeSystem

__all__ = [
    "Susceptibilities",
    "Cooperativities",
    "susceptibilities",
    "eta_with_cavity_full",
    "eta_with_cavity_single",
    "eta_without_cavity_full",
    "eta_without_cavity_single",
    "cooperativities",
    "cooperativity_form_with_cavity",
    "cooperativity_form_without_cavity",
    "lock_triple_resonance",
    "lock_quadruple_resonance",
    "lock_double_resonance",
]


@dataclass(frozen=True)
class Susceptibilities:
    """Complex mode responses at one probe frequency (units of seconds)."""

    chi_e: complex
    chi_alpha: complex
    chi_beta: complex
    chi_o: complex | None


def susceptibilities(system: ModeSystem, omega: float) -> Susceptibilities:
    """Evaluate the complex Lorentzian responses at probe frequency omega."""
    s = system
    chi_e = 1.0 / (-1j * (omega - s.omega_e) + s.kappa_e / 2.0)
    chi_alpha = 1.0 / (-1j * (omega - s.omega_alpha) + s.gamma_alpha / 2.0)
    chi_beta = 1.0 / (-1j * (omega - s.omega_beta) + s.gamma_beta / 2.0)
    chi_o = None
    if s.configuration is Configuration.WITH_OPTICAL_CAVITY:
        chi_o = 1.0 / (-1j * (omega + s.delta_omega_o) + s.kappa_o / 2.0)
    return Susceptibilities(chi_e=chi_e, chi_alpha=chi_alpha, chi_beta=chi_beta, chi_o=chi_o)


def eta_with_cavity_full(
    system: ModeSystem, omega: float, expanded: bool = False
) -> float:
    """Two-mode efficiency with an optical cavity.

        eta = | sqrt(k_ee k_oe) (zeta_b g_b chi_b + zeta_a g_a chi_a) / D |^2

        D = zeta_b^2 chi_b / chi_e + zeta_a^2 chi_a / chi_e
            + 1 / (chi_e chi_o)
            + (zeta_a g_b - zeta_b g_a)^2 chi_a chi_b
            + g_b^2 chi_b / chi_o + g_a^2 chi_a / chi_o

    ``expanded=True`` evaluates the cross term without the grouped
    square, (zeta_a^2 g_b^2 + zeta_b^2 g_a^2 - 2 zeta_a zeta_b g_a g_b),
    as an internal self-consistency path.
    """
    s = system
    if s.configuration is not Configuration.WITH_OPTICAL_CAVITY:
        raise ValueError("eta_with_cavity_full needs the with-optical-cavity configuration")
    chi = susceptibilities(s, omega)
    chie_inv = 1.0 / chi.chi_e
    chio_inv = 1.0 / chi.chi_o
    if expanded:
        cross = (
            s.zeta_alpha**2 * s.g_beta**2
            + s.zeta_beta**2 * s.g_alpha**2
            - 2.0 * s.zeta_alpha * s.zeta_beta * s.g_alpha * s.g_beta
        )
    else:
        cross = (s.zeta_alpha * s.g_beta - s.zeta_beta * s.g_alpha) ** 2
    num = math.sqrt(s.kappa_ee * s.kappa_oe) * (
        s.zeta_beta * s.g_beta * chi.chi_beta + s.zeta_alpha * s.g_alpha * chi.chi_alpha
    )
    den = (
        s.zeta_beta**2 * chi.chi_beta * chie_inv
        + s.zeta_alpha**2 * chi.chi_alpha * chie_inv
        + chie_inv * chio_inv
        + cross * chi.chi_alpha * chi.chi_beta
        + s.g_beta**2 * chi.chi_beta * chio_inv
        + s.g_alpha**2 * chi.chi_alpha * chio_inv
    )
    return abs(num / den) ** 2


def eta_with_cavity_single(system: ModeSystem, mode: str, omega: float) -> float:
    """Single-mode reduction of the with-cavity efficiency.

        eta = | sqrt(k_ee k_oe) zeta g
                / (zeta^2 / chi_e + g^2 / chi_o + 1 / (chi chi_e chi_o)) |^2
    """
    s = system
    if s.configuration is not Configuration.WITH_OPTICAL_CAVITY:
        raise ValueError("eta_with_cavity_single needs the with-optical-cavity configuration")
    chi = susceptibilities(s, omega)
    if mode == "alpha":
        g, zeta, chi_m = s.g_alpha, s.zeta_alpha, chi.chi_alpha
    elif mode == "beta":
        g, zeta, chi_m = s.g_beta, s.zeta_beta, chi.chi_beta
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    chie_inv = 1.0 / chi.chi_e
    chio_inv = 1.0 / chi.chi_o
    num = math.sqrt(s.kappa_ee * s.kappa_oe) * zeta * g
    den = zeta**2 * chie_inv + g**2 * chio_inv + chie_inv * chio_inv / chi_m
    return abs(num / den) ** 2


def eta_without_cavity_full(system: ModeSystem, omega: float) -> float:
    """Two-mode efficiency without an optical cavity.

        eta = | sqrt(k_ee) (sqrt(xi_a) g_a chi_a + sqrt(xi_b) g_b chi_b)
                / (g_a^2 chi_a + g_b^2 chi_b + 1 / chi_e) |^2
    """
    s = system
    if s.configuration is not Configuration.WITHOUT_OPTICAL_CAVITY:
        raise ValueError("eta_without_cavity_full needs the without-optical-cavity configuration")
    chi = susceptibilities(s, omega)
    num = math.sqrt(s.kappa_ee) * (
        math.sqrt(s.xi_alpha) * s.g_alpha * chi.chi_alpha
        + math.sqrt(s.xi_beta) * s.g_beta * chi.chi_beta
    )
    den = (
        s.g_alpha**2 * chi.chi_alpha
        + s.g_beta**2 * chi.chi_beta
        + 1.0 / chi.chi_e
    )
    return abs(num / den) ** 2


def eta_without_cavity_single(system: ModeSystem, mode: str, omega: float) -> float:
    """Single-mode reduction without an optical cavity.

        eta = | sqrt(k_ee xi) g / (g^2 + 1 / (chi chi_e)) |^2
    """
    s = system
    if s.configuration is not Configuration.WITHOUT_OPTICAL_CAVITY:
        raise ValueError("eta_without_cavity_single needs the without-optical-cavity configuration")
    chi = susceptibilities(s, omega)
    if mode == "alpha":
        g, xi, chi_m = s.g_alpha, s.xi_alpha, chi.chi_alpha
    elif mode == "beta":
        g, xi, chi_m = s.g_beta, s.xi_beta, chi.chi_beta
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    num = math.sqrt(s.kappa_ee) * math.sqrt(xi) * g
    den = g**2 + 1.0 / (chi_m * chi.chi_e)
    return abs(num / den) ** 2


@dataclass(frozen=True)
class Cooperativities:
    """Dimensionless coupling-to-loss figures of one system.

    C_em = 4 g^2 / (kappa_e gamma) and C_om = 4 zeta^2 / (kappa_o gamma)
    per mode; eta_e and eta_o are the port extraction ratios and eta_m
    the itinerant conversion ratio xi / gamma.
    """

    c_em_alpha: float
    c_em_beta: float
    c_om_alpha: float
    c_om_beta: float
    eta_e: float
    eta_o: float
    eta_m_alpha: float
    eta_m_beta: float

    def __post_init__(self):
        for name in ("c_em_alpha", "c_em_beta", "c_om_alpha", "c_om_beta",
                     "eta_m_alpha", "eta_m_beta"):
            if np.count_nonzero(getattr(self, name) < 0):
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.eta_e <= 1.0:
            raise ValueError("eta_e must lie in [0, 1]")
        if not 0.0 <= self.eta_o <= 1.0:
            raise ValueError("eta_o must lie in [0, 1]")


def cooperativities(system: ModeSystem) -> Cooperativities:
    """Compute all cooperativity figures; couplings may be arrays over sweep points."""
    s = system
    kappa_o = s.kappa_o
    eta_o = s.kappa_oe / kappa_o if kappa_o > 0 else 0.0
    # float_power is libm pow, as a float's ** is; an array's ** 2 multiplies,
    # which differs in the last bit on some points
    g_alpha2, g_beta2, zeta_alpha2, zeta_beta2 = (
        np.float_power(v, 2) for v in (s.g_alpha, s.g_beta, s.zeta_alpha, s.zeta_beta))
    return Cooperativities(
        c_em_alpha=4.0 * g_alpha2 / (s.kappa_e * s.gamma_alpha),
        c_em_beta=4.0 * g_beta2 / (s.kappa_e * s.gamma_beta),
        c_om_alpha=(4.0 * zeta_alpha2 / (kappa_o * s.gamma_alpha) if kappa_o > 0 else 0.0),
        c_om_beta=(4.0 * zeta_beta2 / (kappa_o * s.gamma_beta) if kappa_o > 0 else 0.0),
        eta_e=s.kappa_ee / s.kappa_e,
        eta_o=eta_o,
        eta_m_alpha=s.xi_alpha / s.gamma_alpha,
        eta_m_beta=s.xi_beta / s.gamma_beta,
    )


def cooperativity_form_with_cavity(coops: Cooperativities, mode: str = "beta") -> float:
    """On-resonance with-cavity efficiency from cooperativities alone.

        eta = eta_o eta_e 4 C_om C_em / (1 + C_om + C_em)^2

    Equals the single-mode closed form at the locked triple resonance.
    Maximal over the pair at C_om = C_em for a fixed product.
    """
    if mode == "alpha":
        c_om, c_em = coops.c_om_alpha, coops.c_em_alpha
    elif mode == "beta":
        c_om, c_em = coops.c_om_beta, coops.c_em_beta
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    return coops.eta_o * coops.eta_e * 4.0 * c_om * c_em / (1.0 + c_om + c_em) ** 2


def cooperativity_form_without_cavity(coops: Cooperativities, mode: str = "beta") -> float:
    """On-resonance without-cavity efficiency from cooperativities alone.

        eta = eta_e eta_m 4 C_em / (1 + C_em)^2

    The impedance-matching factor 4 C / (1 + C)^2 reaches 1 at C_em = 1.
    """
    if mode == "alpha":
        c_em, eta_m = coops.c_em_alpha, coops.eta_m_alpha
    elif mode == "beta":
        c_em, eta_m = coops.c_em_beta, coops.eta_m_beta
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    return coops.eta_e * eta_m * 4.0 * c_em / (1.0 + c_em) ** 2


def lock_triple_resonance(system: ModeSystem, mode: str = "beta") -> tuple[ModeSystem, float]:
    """Pin one magnon mode, the microwave cavity and the optical response.

    Returns the locked system and the probe frequency.  The chosen mode
    frequency is set to omega_e exactly and the optical detuning to
    -omega_e so that every susceptibility is real at the probe; the
    lock is exact, no tolerance window.
    """
    if system.configuration is not Configuration.WITH_OPTICAL_CAVITY:
        raise ValueError("triple resonance applies to the with-optical-cavity configuration")
    probe = system.omega_e
    updates: dict = {"delta_omega_o": -probe}
    if mode == "alpha":
        updates["omega_alpha"] = probe
    elif mode == "beta":
        updates["omega_beta"] = probe
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    return replace(system, **updates), probe


def lock_quadruple_resonance(system: ModeSystem) -> tuple[ModeSystem, float]:
    """Pin both magnon modes, the microwave cavity and the optical response."""
    if system.configuration is not Configuration.WITH_OPTICAL_CAVITY:
        raise ValueError("quadruple resonance applies to the with-optical-cavity configuration")
    probe = system.omega_e
    locked = replace(
        system, omega_alpha=probe, omega_beta=probe, delta_omega_o=-probe
    )
    return locked, probe


def lock_double_resonance(system: ModeSystem, mode: str = "beta") -> tuple[ModeSystem, float]:
    """Pin one magnon mode and the microwave cavity (no optical cavity)."""
    if system.configuration is not Configuration.WITHOUT_OPTICAL_CAVITY:
        raise ValueError("double resonance applies to the without-optical-cavity configuration")
    probe = system.omega_e
    if mode == "alpha":
        locked = replace(system, omega_alpha=probe)
    elif mode == "beta":
        locked = replace(system, omega_beta=probe)
    else:
        raise ValueError(f"mode must be 'alpha' or 'beta', got {mode!r}")
    return locked, probe

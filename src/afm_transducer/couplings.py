"""Coupling strengths of the transduction chain.

Four rates are computed here, all angular (rad/s):

* ``g``      microwave photon to magnon,
* ``G``      single optical photon to magnon,
* ``zeta``   cavity-enhanced optical coupling, G * sqrt(n_cav),
* ``xi``     itinerant-light conversion rate (no optical cavity).

plus the calibrated itinerant rate, the exact rescaling of the rates to
another thickness or layer count, and a ferromagnet reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT, TWO_PI, VACUUM_PERMEABILITY, ordinary
from .magnon import MaterialParams

__all__ = [
    "SampleGeometry",
    "CavityParams",
    "DriveParams",
    "CouplingSet",
    "microwave_coupling",
    "vacuum_coupling_empirical",
    "vacuum_coupling_from_cavity_volume",
    "optical_coupling",
    "cavity_enhanced_zeta",
    "itinerant_xi",
    "calibrated_xi",
    "geometry_scaling",
    "ferromagnet_reference",
]

# Calibrated itinerant conversion rate of the lower mode: xi = 2.1e-10 d MHz, d in mm
_XI_LAW_MHZ = 2.1e-10


@dataclass(frozen=True)
class SampleGeometry:
    """Sample cross-section (m^2), thickness (m) and layer count."""

    cross_section: float
    thickness: float
    layer_count: int = 1

    def __post_init__(self):
        if self.cross_section <= 0:
            raise ValueError("cross_section must be positive")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")

    @property
    def volume(self) -> float:
        """Per-layer magnetic volume in m^3."""
        return self.cross_section * self.thickness

    def total_spins(self, spin_density: float) -> float:
        return spin_density * self.volume


@dataclass(frozen=True)
class CavityParams:
    """Microwave and optical cavity parameters.

    ``delta_omega_o`` is a signed detuning: the optical mode response is
    resonant at probe frequency -delta_omega_o (pump rotating frame).
    ``g0_slope`` is the empirical vacuum coupling coefficient A in
    g0 = A * sqrt(omega_e / 2 pi), in Hz per sqrt(Hz).
    """

    omega_e: float
    kappa_ee: float
    kappa_ei: float
    delta_omega_o: float
    kappa_oe: float
    kappa_oi: float
    n_cav: float
    g0_slope: float

    def __post_init__(self):
        for name in ("kappa_ee", "kappa_ei", "kappa_oe", "kappa_oi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.kappa_ee + self.kappa_ei <= 0:
            raise ValueError("total microwave decay rate must be positive")
        if self.omega_e <= 0:
            raise ValueError("omega_e must be positive")
        if self.n_cav < 0:
            raise ValueError("n_cav must be non-negative")

    @property
    def kappa_e(self) -> float:
        return self.kappa_ee + self.kappa_ei

    @property
    def kappa_o(self) -> float:
        return self.kappa_oe + self.kappa_oi


@dataclass(frozen=True)
class DriveParams:
    """Incident optical drive: power (W) and angular frequency (rad/s)."""

    power: float
    omega_drive: float

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be non-negative")
        if self.omega_drive <= 0:
            raise ValueError("omega_drive must be positive")


@dataclass(frozen=True)
class CouplingSet:
    """All coupling rates of one configuration (rad/s)."""

    g_alpha: float = 0.0
    g_beta: float = 0.0
    G_alpha: float = 0.0
    G_beta: float = 0.0
    zeta_alpha: float = 0.0
    zeta_beta: float = 0.0
    xi_alpha: float = 0.0
    xi_beta: float = 0.0

    def __post_init__(self):
        for name in (
            "g_alpha", "g_beta", "G_alpha", "G_beta",
            "zeta_alpha", "zeta_beta", "xi_alpha", "xi_beta",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def vacuum_coupling_empirical(cav: CavityParams) -> float:
    """Vacuum microwave coupling g0 (rad/s) from the measured slope.

    g0 / 2 pi = A * sqrt(omega_e / 2 pi) with A in Hz/sqrt(Hz).  The
    spatial overlap is already folded into the measured slope.
    """
    return TWO_PI * cav.g0_slope * math.sqrt(ordinary(cav.omega_e))


def vacuum_coupling_from_cavity_volume(
    gyro: float, omega_e: float, cavity_volume: float, overlap_eta: float = 1.0
) -> float:
    """First-principles alternative: g0 = eta |gamma| sqrt(hbar omega_e mu0 / 4 V_c)."""
    if cavity_volume <= 0:
        raise ValueError("cavity_volume must be positive")
    return overlap_eta * gyro * math.sqrt(
        HBAR * omega_e * VACUUM_PERMEABILITY / (4.0 * cavity_volume)
    )


def microwave_coupling(
    m: MaterialParams, geom: SampleGeometry, cav: CavityParams
) -> tuple[float, float]:
    """Microwave-magnon couplings (g_alpha, g_beta), equal in the easy-axis model.

        g = g0 * (omega_par / 8 omega_E)^(1/4) * sqrt(2 S N)

    with S N the total spin number of the sample and g0 from the
    empirical slope.  Scales as sqrt(volume) and sqrt(omega_e).
    """
    m.require_easy_axis("microwave_coupling")
    total_spins = geom.total_spins(m.spin_density)
    g0 = vacuum_coupling_empirical(cav)
    g = g0 * (m.omega_par / (8.0 * m.omega_E)) ** 0.25 * math.sqrt(2.0 * total_spins)
    return g, g


def optical_coupling(
    m: MaterialParams,
    geom: SampleGeometry,
    kappas: tuple[float, float],
    backend: str = "calibrated",
) -> tuple[float, float]:
    """Single-photon optomagnonic couplings (G_alpha, G_beta).

    Two backends, chosen explicitly by the caller:

    * ``"calibrated"`` (default): G / 2 pi = 0.1 kappa / sqrt(1e9 V[mm^3]) MHz,
      anchored to reference garnet magneto-optics.  All headline numbers
      derive from this rule.
    * ``"first-principles"``: G = c theta_F / (4 sqrt(eps_r)) * kappa / sqrt(2 S N).
      Disagrees with the calibrated rule by an O(10) factor for the
      default inputs; kept for the ferromagnet-reference ratio.

    Both are proportional to kappa and to 1/sqrt(volume).
    """
    kappa_alpha, kappa_beta = kappas
    if kappa_alpha < 0 or kappa_beta < 0:
        raise ValueError("mode coefficients must be non-negative")
    if backend == "calibrated":
        volume_mm3 = geom.volume * 1e9  # m^3 -> mm^3
        scale = TWO_PI * 0.1e6 / math.sqrt(1e9 * volume_mm3)
        return scale * kappa_alpha, scale * kappa_beta
    if backend == "first-principles":
        total_spins = geom.total_spins(m.spin_density)
        base = ferromagnet_reference(m.theta_F, m.eps_r, total_spins)
        return base * kappa_alpha, base * kappa_beta
    raise ValueError(f"unknown optical coupling backend {backend!r}")


def cavity_enhanced_zeta(G: float, n_cav: float) -> float:
    """Cavity-enhanced optical coupling zeta = G * sqrt(n_cav)."""
    if n_cav < 0:
        raise ValueError("n_cav must be non-negative")
    return G * math.sqrt(n_cav)


def itinerant_xi(G: float, geom: SampleGeometry, drive: DriveParams) -> float:
    """Itinerant-light conversion rate without an optical cavity.

        xi = G^2 * (d / c)^2 * P0 / (hbar Omega0)

    The transit time d/c uses the vacuum light speed.  At fixed
    cross-section xi is proportional to the thickness (G^2 falls as
    1/volume while the transit time squared grows as d^2).
    """
    tau = geom.thickness / SPEED_OF_LIGHT
    photon_flux = drive.power / (HBAR * drive.omega_drive)
    return G * G * tau * tau * photon_flux


def calibrated_xi(thickness: float) -> float:
    """Calibrated lower-mode itinerant conversion rate xi (rad/s) at thickness (m).

    xi = 2.1e-10 d MHz with d in mm: linear in d, as :func:`itinerant_xi`
    is at fixed cross-section.
    """
    if thickness <= 0:
        raise ValueError("thickness must be positive")
    d_mm = thickness * 1e3
    return TWO_PI * _XI_LAW_MHZ * 1e6 * d_mm


def geometry_scaling(rates, n_layers: int = 1, thickness_ratio: float = 1.0):
    """Rescale the rates to another layer count and layer thickness.

    ``rates`` is any frozen dataclass with the six fields g, zeta and xi
    for both modes (:class:`CouplingSet`, ``ModeSystem``); a copy is
    returned.  At fixed cross-section the total spin number grows as the
    volume and G falls as 1/sqrt(volume), so a thickness ratio r scales g
    by sqrt(r), zeta by 1/sqrt(r) and xi (G^2 times the squared transit
    time) by r.  A stack of n identical layers boosts g and zeta by
    sqrt(n) through the collective mode and leaves xi unchanged.  The
    single-photon G fields of a :class:`CouplingSet` are not rescaled.
    ``n_layers`` and ``thickness_ratio`` may be arrays over sweep points,
    which make the six fields arrays.
    """
    if np.count_nonzero(n_layers < 1):
        raise ValueError("n_layers must be >= 1")
    if np.count_nonzero(thickness_ratio <= 0):
        raise ValueError("thickness_ratio must be positive")
    g_factor = np.sqrt(thickness_ratio * n_layers)
    zeta_factor = np.sqrt(n_layers / thickness_ratio)
    if g_factor.ndim == 0:
        # Python floats: the closed forms' complex arithmetic rounds np.float64 differently
        g_factor, zeta_factor = float(g_factor), float(zeta_factor)
    return replace(
        rates,
        g_alpha=rates.g_alpha * g_factor,
        g_beta=rates.g_beta * g_factor,
        zeta_alpha=rates.zeta_alpha * zeta_factor,
        zeta_beta=rates.zeta_beta * zeta_factor,
        xi_alpha=rates.xi_alpha * thickness_ratio,
        xi_beta=rates.xi_beta * thickness_ratio,
    )


def ferromagnet_reference(theta_F: float, eps_r: float, total_spins: float) -> float:
    """Light-magnon coupling of a ferromagnet with the same optics.

        G_FM = c theta_F / (4 sqrt(eps_r)) / sqrt(2 S N)

    The antiferromagnet first-principles couplings differ from this only
    by the mode coefficient: G_mu / G_FM = kappa_mu.
    """
    if theta_F <= 0 or eps_r <= 0 or total_spins <= 0:
        raise ValueError("theta_F, eps_r and total_spins must be positive")
    return SPEED_OF_LIGHT * theta_F / (4.0 * math.sqrt(eps_r)) / math.sqrt(
        2.0 * total_spins
    )

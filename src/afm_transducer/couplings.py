"""Coupling strengths of the transduction chain.

Four rates are computed here, all angular (rad/s):

* ``g``      microwave photon to magnon,
* ``G``      single optical photon to magnon,
* ``zeta``   cavity-enhanced optical coupling, G * sqrt(n_cav),
* ``xi``     itinerant-light conversion rate (no optical cavity).

plus the calibrated thickness laws used by the sweep engine, the
heterostructure enhancement and a ferromagnet reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import HBAR, SPEED_OF_LIGHT, TWO_PI, VACUUM_PERMEABILITY, ordinary
from .magnon import MagnonModes, MaterialParams

__all__ = [
    "SampleGeometry",
    "CavityParams",
    "DriveParams",
    "CouplingSet",
    "ThinSampleReport",
    "microwave_coupling",
    "vacuum_coupling_empirical",
    "vacuum_coupling_from_cavity_volume",
    "optical_coupling",
    "cavity_enhanced_zeta",
    "itinerant_xi",
    "thickness_parameterized_couplings",
    "heterostructure_scaling",
    "ferromagnet_reference",
    "validate_thin_sample",
]

# Calibrated thickness laws for the lower mode, d in mm, rates in MHz:
#   g    = 10.5    * sqrt(d)
#   zeta = 1.3e-2  / sqrt(d)
#   xi   = 2.1e-10 * d
_G_LAW_MHZ = 10.5
_ZETA_LAW_MHZ = 1.3e-2
_XI_LAW_MHZ = 2.1e-10

# Interaction-time criterion: tau * omega above this is flagged.
_THIN_SAMPLE_THRESHOLD = 0.1


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


def thickness_parameterized_couplings(thickness: float) -> CouplingSet:
    """Calibrated lower-mode couplings as a function of thickness (m).

    The backend of the thickness sweeps: with d in mm,
    g = 10.5 sqrt(d) MHz, zeta = 1.3e-2 / sqrt(d) MHz and
    xi = 2.1e-10 d MHz.  Only the lower (beta) mode is populated.
    """
    if thickness <= 0:
        raise ValueError("thickness must be positive")
    d_mm = thickness * 1e3
    g = TWO_PI * _G_LAW_MHZ * 1e6 * math.sqrt(d_mm)
    zeta = TWO_PI * _ZETA_LAW_MHZ * 1e6 / math.sqrt(d_mm)
    xi = TWO_PI * _XI_LAW_MHZ * 1e6 * d_mm
    return CouplingSet(g_beta=g, zeta_beta=zeta, xi_beta=xi)


def heterostructure_scaling(c: CouplingSet, n_layers: int) -> CouplingSet:
    """Collective-mode enhancement for a stack of identical magnetic layers.

    g and zeta acquire sqrt(n_layers); the itinerant rate xi is left
    unchanged (the enhancement applies to the cavity configuration).
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    boost = math.sqrt(float(n_layers))
    return replace(
        c,
        g_alpha=c.g_alpha * boost,
        g_beta=c.g_beta * boost,
        zeta_alpha=c.zeta_alpha * boost,
        zeta_beta=c.zeta_beta * boost,
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


@dataclass(frozen=True)
class ThinSampleReport:
    """Interaction-time check tau * omega for both modes (advisory only)."""

    ratio_alpha: float
    ratio_beta: float
    threshold: float
    passed: bool

    @property
    def worst_ratio(self) -> float:
        return max(self.ratio_alpha, self.ratio_beta)


def validate_thin_sample(geom: SampleGeometry, modes: MagnonModes) -> ThinSampleReport:
    """Check that the optical transit time is short on the magnon timescale.

    Computes tau * omega_mu with tau = d / c for both modes and flags the
    geometry when the larger ratio exceeds 0.1.  Never raises; the
    without-cavity conversion rate is simply unreliable past the flag.
    """
    tau = geom.thickness / SPEED_OF_LIGHT
    ratio_alpha = tau * modes.omega_alpha
    ratio_beta = tau * modes.omega_beta
    return ThinSampleReport(
        ratio_alpha=ratio_alpha,
        ratio_beta=ratio_beta,
        threshold=_THIN_SAMPLE_THRESHOLD,
        passed=max(ratio_alpha, ratio_beta) <= _THIN_SAMPLE_THRESHOLD,
    )

"""Built-in parameter bundles and the coupling pipeline.

Each preset packages a material, geometry, cavity rates and mode
assignments into a single named bundle; :func:`assemble` turns a bundle
into a resonance-locked :class:`~afm_transducer.scattering.ModeSystem`
plus the full set of computed couplings.

Mode frequencies in the bundles are pinned directly (the experimental
operating points) rather than derived from the material formulas; the
formula path stays available through
:func:`afm_transducer.magnon.resonance_frequencies`.  Likewise the
magneto-optic coefficients carry the commonly quoted estimate
(0.5, 0.4) as an explicit override next to the computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import angular
from .couplings import (
    CavityParams,
    CouplingSet,
    SampleGeometry,
    calibrated_xi,
    cavity_enhanced_zeta,
    geometry_scaling,
    microwave_coupling,
    optical_coupling,
)
from .magnon import MaterialParams, kappa_coefficients
from .scattering import Configuration, ModeSystem

__all__ = [
    "Preset",
    "AssembledSystem",
    "PRESET_NAMES",
    "mnf2_material",
    "yig_reference_material",
    "get_preset",
    "assemble",
]

_DEG_PER_MM = math.pi / 180.0 / 1e-3  # degrees/mm -> rad/m


def mnf2_material() -> MaterialParams:
    """Easy-axis MnF2: exchange 9.3 THz, anisotropy 0.15 THz, K = 0.007.

    The Faraday rotation per sublattice and permittivity carry the
    reference-garnet values used for the calibrated optical coupling.
    """
    return MaterialParams(
        omega_E=angular(9.3e12),
        omega_par=angular(0.15e12),
        omega_perp=0.0,
        gyro=angular(28.0e9),  # rad/s per tesla, g ~ 2
        spin_density=1e28,     # 1e19 mm^-3
        asymmetry_K=0.007,
        theta_F=20.0 * _DEG_PER_MM,
        eps_r=5.0,
    )


def yig_reference_material() -> MaterialParams:
    """Reference garnet values used to anchor the optical coupling."""
    return MaterialParams(
        omega_E=angular(9.3e12),   # placeholder exchange scale; optics-only preset
        omega_par=angular(0.15e12),
        omega_perp=0.0,
        gyro=angular(28.0e9),
        spin_density=2.1e28,       # 2.1e19 mm^-3
        asymmetry_K=0.0,
        theta_F=20.0 * _DEG_PER_MM,
        eps_r=5.0,
    )


@dataclass(frozen=True)
class Preset:
    """A named, fully resolved parameter bundle."""

    name: str
    configuration: Configuration
    material: MaterialParams
    geometry: SampleGeometry
    cavity: CavityParams
    omega_alpha: float
    omega_beta: float
    gamma_alpha: float
    gamma_beta: float
    kappa_mo_override: tuple[float, float] | None = None
    g_override: tuple[float, float] | None = None
    zeta_override: tuple[float, float] | None = None
    active_modes: str = "beta"          # "alpha" | "beta" | "both"

    def __post_init__(self):
        if self.active_modes not in ("alpha", "beta", "both"):
            raise ValueError("active_modes must be 'alpha', 'beta' or 'both'")


@dataclass(frozen=True)
class AssembledSystem:
    """Resonance-locked mode system with its computed couplings."""

    preset_name: str
    system: ModeSystem
    couplings: CouplingSet
    kappa_mo: tuple[float, float]
    probe: float
    field_sources: dict = field(default_factory=dict)


def _single_crystal_20ghz_cavity() -> CavityParams:
    return CavityParams(
        omega_e=angular(20e9),
        kappa_ee=angular(100e6),
        kappa_ei=angular(100e6),
        delta_omega_o=-angular(20e9),
        kappa_oe=angular(100e6),
        kappa_oi=angular(100e6),
        n_cav=1e6,
        g0_slope=0.025 / math.sqrt(1e9),  # 25 mHz per sqrt(GHz)
    )


def _preset_mnf2_easyaxis_20ghz() -> Preset:
    """Single lower mode at 20 GHz, microwave and optical cavities."""
    return Preset(
        name="mnf2-easyaxis-20GHz",
        configuration=Configuration.WITH_OPTICAL_CAVITY,
        material=mnf2_material(),
        geometry=SampleGeometry(cross_section=1e-8, thickness=1e-4),  # (0.1 mm)^3
        cavity=_single_crystal_20ghz_cavity(),
        omega_alpha=angular(250e9),  # spectator mode, decoupled below
        omega_beta=angular(20e9),
        gamma_alpha=angular(100e6),
        gamma_beta=angular(100e6),
        kappa_mo_override=(0.5, 0.4),
        active_modes="beta",
    )


def _preset_mnf2_degenerate_250ghz() -> Preset:
    """Both modes degenerate at 250 GHz (zero static field)."""
    return Preset(
        name="mnf2-degenerate-250GHz",
        configuration=Configuration.WITH_OPTICAL_CAVITY,
        material=mnf2_material(),
        geometry=SampleGeometry(cross_section=1e-8, thickness=1e-4),
        cavity=CavityParams(
            omega_e=angular(250e9),
            kappa_ee=angular(500e6),
            kappa_ei=angular(500e6),
            delta_omega_o=-angular(250e9),
            kappa_oe=angular(100e6),
            kappa_oi=angular(100e6),
            n_cav=1e6,
            g0_slope=0.025 / math.sqrt(1e9),
        ),
        omega_alpha=angular(250e9),
        omega_beta=angular(250e9),
        gamma_alpha=angular(1000e6),
        gamma_beta=angular(1000e6),
        kappa_mo_override=(0.5, 0.4),
        g_override=(angular(10e6), angular(10e6)),
        zeta_override=(angular(50e3), angular(40e3)),
        active_modes="both",
    )


def _preset_mnf2_nocavity_20ghz() -> Preset:
    """Single lower mode at 20 GHz, itinerant light, thin film."""
    return Preset(
        name="mnf2-nocavity-20GHz",
        configuration=Configuration.WITHOUT_OPTICAL_CAVITY,
        material=mnf2_material(),
        geometry=SampleGeometry(cross_section=1e-8, thickness=1e-6),  # (0.1 mm)^2 x 1 um
        cavity=CavityParams(
            omega_e=angular(20e9),
            kappa_ee=angular(100e6),
            kappa_ei=angular(100e6),
            delta_omega_o=0.0,
            kappa_oe=0.0,
            kappa_oi=0.0,
            n_cav=0.0,
            g0_slope=0.025 / math.sqrt(1e9),
        ),
        omega_alpha=angular(250e9),
        omega_beta=angular(20e9),
        gamma_alpha=angular(100e6),
        gamma_beta=angular(100e6),
        kappa_mo_override=(0.5, 0.4),
        active_modes="beta",
    )


def _preset_yig_reference() -> Preset:
    """Reference-garnet optics bundle for coupling comparisons."""
    return Preset(
        name="yig-reference",
        configuration=Configuration.WITH_OPTICAL_CAVITY,
        material=yig_reference_material(),
        geometry=SampleGeometry(cross_section=1e-8, thickness=1e-4),
        cavity=_single_crystal_20ghz_cavity(),
        omega_alpha=angular(250e9),
        omega_beta=angular(20e9),
        gamma_alpha=angular(100e6),
        gamma_beta=angular(100e6),
        kappa_mo_override=(1.0, 1.0),
        active_modes="beta",
    )


_FACTORIES = {
    "mnf2-easyaxis-20GHz": _preset_mnf2_easyaxis_20ghz,
    "mnf2-degenerate-250GHz": _preset_mnf2_degenerate_250ghz,
    "mnf2-nocavity-20GHz": _preset_mnf2_nocavity_20ghz,
    "yig-reference": _preset_yig_reference,
}

PRESET_NAMES = tuple(_FACTORIES)


def get_preset(name: str) -> Preset:
    try:
        return _FACTORIES[name]()
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


def assemble(preset: Preset) -> AssembledSystem:
    """Run the coupling pipeline and build the resonance-locked system.

    Couplings are computed from the material, geometry and cavity
    (empirical vacuum coupling slope, calibrated optical rule) unless the
    bundle pins them explicitly.  Inactive modes are decoupled, the layer
    count applies the collective sqrt(N) enhancement, and the
    probe frequency is locked to the microwave cavity.
    """
    p = preset
    sources: dict[str, str] = {}

    if p.kappa_mo_override is not None:
        kappa_mo = p.kappa_mo_override
        sources["kappa_mo"] = "override"
    else:
        kappa_mo = kappa_coefficients(p.material)
        sources["kappa_mo"] = "computed"

    if p.g_override is not None:
        g_alpha, g_beta = p.g_override
        sources["g"] = "override"
    else:
        g_alpha, g_beta = microwave_coupling(p.material, p.geometry, p.cavity)
        sources["g"] = "computed"

    big_g_alpha, big_g_beta = optical_coupling(
        p.material, p.geometry, kappa_mo, backend="calibrated"
    )

    zeta_alpha = zeta_beta = 0.0
    xi_alpha = xi_beta = 0.0
    if p.configuration is Configuration.WITH_OPTICAL_CAVITY:
        if p.zeta_override is not None:
            zeta_alpha, zeta_beta = p.zeta_override
            sources["zeta"] = "override"
        else:
            zeta_alpha = cavity_enhanced_zeta(big_g_alpha, p.cavity.n_cav)
            zeta_beta = cavity_enhanced_zeta(big_g_beta, p.cavity.n_cav)
            sources["zeta"] = "computed"
    else:
        xi_beta = calibrated_xi(p.geometry.thickness)
        sources["xi"] = "thickness-law"

    couplings = CouplingSet(
        g_alpha=g_alpha, g_beta=g_beta,
        G_alpha=big_g_alpha, G_beta=big_g_beta,
        zeta_alpha=zeta_alpha, zeta_beta=zeta_beta,
        xi_alpha=xi_alpha, xi_beta=xi_beta,
    )
    couplings = geometry_scaling(couplings, p.geometry.layer_count)

    # decouple the spectator modes
    keep_alpha = p.active_modes in ("alpha", "both")
    keep_beta = p.active_modes in ("beta", "both")
    sys_g_alpha = couplings.g_alpha if keep_alpha else 0.0
    sys_g_beta = couplings.g_beta if keep_beta else 0.0
    sys_zeta_alpha = couplings.zeta_alpha if keep_alpha else 0.0
    sys_zeta_beta = couplings.zeta_beta if keep_beta else 0.0
    sys_xi_alpha = couplings.xi_alpha if keep_alpha else 0.0
    sys_xi_beta = couplings.xi_beta if keep_beta else 0.0

    system = ModeSystem(
        configuration=p.configuration,
        omega_e=p.cavity.omega_e,
        omega_alpha=p.omega_alpha,
        omega_beta=p.omega_beta,
        kappa_ee=p.cavity.kappa_ee,
        kappa_ei=p.cavity.kappa_ei,
        gamma_alpha=p.gamma_alpha,
        gamma_beta=p.gamma_beta,
        delta_omega_o=p.cavity.delta_omega_o,
        kappa_oe=p.cavity.kappa_oe,
        kappa_oi=p.cavity.kappa_oi,
        g_alpha=sys_g_alpha,
        g_beta=sys_g_beta,
        zeta_alpha=sys_zeta_alpha,
        zeta_beta=sys_zeta_beta,
        xi_alpha=sys_xi_alpha,
        xi_beta=sys_xi_beta,
    )
    return AssembledSystem(
        preset_name=p.name,
        system=system,
        couplings=couplings,
        kappa_mo=kappa_mo,
        probe=p.cavity.omega_e,
        field_sources=sources,
    )

"""Declarative sweep engine and the thickness optimizer.

Every sweep is deterministic (identical spec, bit-identical rows), every
point is evaluated through the exact matrix solver, and rows carry the
cooperativities alongside the efficiency so the curves are
self-describing.  Sweep points are mutually independent; all points of
one sweep are solved and checked in one stacked call and emitted in spec
order.  Every sweep runs through :func:`run_sweep`, which takes an
already resolved preset, so overrides hold at each point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from ._version import __version__
from .closed_forms import cooperativities
from .constants import SPEED_OF_LIGHT, ordinary
from .couplings import geometry_scaling
from .errors import ConfigError
from .presets import AssembledSystem, Preset, assemble, get_preset
from .scattering import Configuration, ModeSystem, scatter

__all__ = [
    "SweepVariable",
    "SweepSpec",
    "SweepResult",
    "OptimalThickness",
    "run_sweep",
    "faraday_sweep",
    "thickness_sweep_with_cavity",
    "thickness_sweep_without_cavity",
    "detuning_sweep",
    "heterostructure_projection",
    "find_optimal_thickness",
]

_THIN_SAMPLE_THRESHOLD = 0.1
_PER_LAYER_THICKNESS = 1e-6  # m


class SweepVariable(enum.Enum):
    FARADAY_ANGLE = "faraday-angle"
    THICKNESS = "thickness"
    PROBE_DETUNING = "probe-detuning"
    LAYER_COUNT = "layer-count"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    ``lo``/``hi`` are in the variable's natural external unit (ratio for
    the Faraday sweep, mm for thickness, Hz for detunings, count for
    layers).
    """

    preset: str
    variable: SweepVariable
    lo: float
    hi: float
    count: int
    scale: str = "log"            # "log" | "linear"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("sweep range must satisfy lo < hi")
        if self.count < 2:
            raise ValueError("sweep needs at least 2 points")
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError("log scale requires lo > 0")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepResult:
    """Ordered result rows plus provenance for self-describing output."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def __len__(self) -> int:
        return len(self.rows)


def _require_computed_couplings(preset: Preset, what: str) -> None:
    if preset.g_override is not None or preset.zeta_override is not None:
        raise ConfigError(
            f"{what} rescales the computed couplings; preset {preset.name!r} pins g or zeta"
        )


def _axis(variable: SweepVariable, preset: Preset, assembled: AssembledSystem, grid: np.ndarray):
    """What one sweep variable contributes to the engine.

    Returns the value column, the system with the swept rates as arrays
    over ``grid``, the probe frequencies, the tail (column name to the
    cells after ``reflection``) and provenance extras.  Thickness and
    layer-count points rescale the assembled rates with
    :func:`geometry_scaling`, which is what the pipeline computes at that
    geometry.

    Raises
    ------
    ConfigError
        If the variable cannot act on the configuration of the preset, or
        a thickness sweep meets couplings the preset pins.
    """
    base, probe = assembled.system, assembled.probe
    cavity = base.configuration is Configuration.WITH_OPTICAL_CAVITY

    def cavity_tail(system: ModeSystem) -> dict:
        coop = cooperativities(system)
        return {"c_em_beta": coop.c_em_beta, "c_om_beta": coop.c_om_beta,
                "g_beta_hz": ordinary(system.g_beta), "zeta_beta_hz": ordinary(system.zeta_beta)}

    if variable is SweepVariable.PROBE_DETUNING:
        return "probe_detuning_hz", base, probe + 2.0 * math.pi * grid, {}, {}
    if variable is SweepVariable.THICKNESS:
        _require_computed_couplings(preset, "the thickness sweep")
        system = geometry_scaling(base, thickness_ratio=grid / (preset.geometry.thickness * 1e3))
        if cavity:
            return "thickness_mm", system, probe, cavity_tail(system), {}
        cap_m = _THIN_SAMPLE_THRESHOLD * SPEED_OF_LIGHT / base.omega_beta
        coop = cooperativities(system)
        tail = {"c_em_beta": coop.c_em_beta, "eta_m_beta": coop.eta_m_beta,
                "g_beta_hz": ordinary(system.g_beta), "xi_beta_hz": ordinary(system.xi_beta),
                "thin_sample_ok": grid * 1e-3 <= cap_m}
        return "thickness_mm", system, probe, tail, {"thin_sample_cap_mm": cap_m * 1e3}
    if variable is SweepVariable.FARADAY_ANGLE and cavity:
        system = replace(base, zeta_alpha=base.zeta_alpha * grid, zeta_beta=base.zeta_beta * grid)
        return "theta_f_ratio", system, probe, cavity_tail(system), {}
    if variable is SweepVariable.LAYER_COUNT and cavity:
        system = geometry_scaling(base, grid)
        return ("n_layers", system, probe, cavity_tail(system),
                {"per_layer_thickness_mm": preset.geometry.thickness * 1e3})
    raise ConfigError(
        f"sweep variable {variable.value!r} cannot act on the "
        f"{base.configuration.value} configuration"
    )


def _sweep(
    spec: SweepSpec, preset: Preset, grid, per_layer_thickness: float = _PER_LAYER_THICKNESS
) -> SweepResult:
    """The engine behind every sweep: assemble once, solve the whole grid in one call.

    A layer-count sweep assembles one layer of ``per_layer_thickness``.
    """
    if spec.variable is SweepVariable.LAYER_COUNT:
        geometry = replace(preset.geometry, thickness=per_layer_thickness, layer_count=1)
        preset = replace(preset, geometry=geometry)
    assembled = assemble(preset)
    grid = np.asarray(grid)
    value_column, system, omega, tail, extra = _axis(spec.variable, preset, assembled, grid)
    res = scatter(system, omega)
    # .tolist() gives Python floats, ints and bools, as the renderers expect
    cells = [np.broadcast_to(c, grid.shape).tolist()
             for c in (grid, res.eta, res.reflection, *tail.values())]
    configuration = system.configuration.value
    rows = tuple((spec.preset, configuration, *row) for row in zip(*cells))
    if spec.variable is SweepVariable.PROBE_DETUNING:
        extra["fwhm_hz"] = _full_width_half_max(grid, res.eta)
    return SweepResult(
        columns=("preset", "configuration", value_column, "eta", "reflection", *tail),
        rows=rows,
        provenance={
            "preset": spec.preset,
            "configuration": configuration,
            "code_version": __version__,
            "variable": spec.variable.value,
            "scale": spec.scale,
            "resonance_lock": "locked",
            "count": spec.count,
            **extra,
        },
    )


def _layer_counts(n_layers: Iterable) -> tuple[int, ...]:
    layers = tuple(sorted({int(n) for n in n_layers}))
    if any(n < 1 for n in layers):
        raise ValueError("layer counts must be >= 1")
    if len(layers) < 2:
        raise ValueError("layer-count sweep needs at least 2 distinct counts")
    return layers


def run_sweep(spec: SweepSpec, preset: Preset) -> SweepResult:
    """Run one sweep on an already resolved preset.

    The preset is assembled once, so every override resolved into it
    holds at every point.  Thickness sweeps follow the preset's
    configuration (optical cavity or itinerant light); a layer-count
    sweep runs over the distinct integers of the rounded log grid from
    max(lo, 1) to hi, on one layer of 1 um as heterostructure_projection
    does.

    Raises
    ------
    ConfigError
        If the variable cannot act on the preset's configuration:
        faraday-angle and layer-count need an optical cavity, and
        thickness needs couplings the preset does not pin.
    """
    if spec.variable is not SweepVariable.LAYER_COUNT:
        return _sweep(spec, preset, spec.grid())
    layers = _layer_counts(np.rint(np.geomspace(max(spec.lo, 1.0), spec.hi, spec.count)))
    return _sweep(spec, preset, layers)


def faraday_sweep(spec: SweepSpec | None = None) -> SweepResult:
    """Efficiency against the Faraday rotation angle ratio.

    The optical coupling is linear in the rotation angle, so the sweep
    rescales zeta by the ratio theta_F / theta_F_ref over the requested
    range while everything else stays resonance-locked.  The efficiency
    follows a slope-2 power law while the optical cooperativity stays
    small.
    """
    if spec is None:
        spec = SweepSpec("mnf2-easyaxis-20GHz", SweepVariable.FARADAY_ANGLE,
                         lo=1e-2, hi=1.0, count=61)
    return run_sweep(spec, get_preset(spec.preset))


def thickness_sweep_with_cavity(spec: SweepSpec | None = None) -> SweepResult:
    """Efficiency against sample thickness, optical cavity present.

    The pipeline couplings scale with the thickness (g up as sqrt(d),
    zeta down as 1/sqrt(d)), which keeps the product of the two
    cooperativities exactly constant; the efficiency therefore peaks
    where C_om = C_em and falls off on both sides.  Wherever one
    cooperativity dominates, eta = 4 C_om C_em / (1 + C_om + C_em)^2
    goes as d^+2 on the thin side and d^-2 on the thick side, and the
    amplitude |S41| = sqrt(eta) as d^+1 and d^-1.
    """
    if spec is None:
        spec = SweepSpec("mnf2-easyaxis-20GHz", SweepVariable.THICKNESS,
                         lo=1e-6, hi=1e2, count=161)
    return run_sweep(spec, get_preset(spec.preset))


def thickness_sweep_without_cavity(spec: SweepSpec | None = None) -> SweepResult:
    """Efficiency against thickness with itinerant light.

    Both the microwave coupling and the conversion rate grow with
    thickness, so the efficiency increases monotonically.  Rows past the
    interaction-time cap are still evaluated for illustration but are
    flagged invalid; the cap itself is surfaced in the provenance.
    """
    if spec is None:
        spec = SweepSpec("mnf2-nocavity-20GHz", SweepVariable.THICKNESS,
                         lo=1e-6, hi=1.0, count=121)
    return run_sweep(spec, get_preset(spec.preset))


def detuning_sweep(spec: SweepSpec) -> SweepResult:
    """Efficiency against probe detuning from the locked operating point.

    The variable is the detuning in Hz (linear scale, signed).  The
    full width at half maximum of the response is reported in the
    provenance.
    """
    return run_sweep(spec, get_preset(spec.preset))


def _full_width_half_max(x: np.ndarray, y: np.ndarray) -> float | None:
    if len(y) < 3:
        return None
    peak = int(np.argmax(y))
    half = y[peak] / 2.0
    left = right = None
    for i in range(peak, 0, -1):
        if y[i - 1] <= half <= y[i]:
            frac = (half - y[i - 1]) / (y[i] - y[i - 1])
            left = x[i - 1] + frac * (x[i] - x[i - 1])
            break
    for i in range(peak, len(y) - 1):
        if y[i + 1] <= half <= y[i]:
            frac = (y[i] - half) / (y[i] - y[i + 1])
            right = x[i] + frac * (x[i + 1] - x[i])
            break
    if left is None or right is None:
        return None
    return float(right - left)


def heterostructure_projection(
    n_layers: Iterable[int] | None = None,
    per_layer_thickness: float = _PER_LAYER_THICKNESS,
    preset: str = "mnf2-easyaxis-20GHz",
) -> SweepResult:
    """Efficiency of a layered stack against the layer count.

    The preset is assembled as one layer of the per-layer thickness; the
    collective mode then boosts g and zeta
    by sqrt(N), so each cooperativity grows as N.  The efficiency ratio
    is exactly eta_N / eta_1 = N^2 [(1 + s_1)/(1 + s_N)]^2 with
    s = C_om + C_em; while both cooperativities stay small it grows
    as N^2.
    """
    if n_layers is None:
        n_layers = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
    layers = _layer_counts(n_layers)
    spec = SweepSpec(preset, SweepVariable.LAYER_COUNT, lo=float(layers[0]),
                     hi=float(layers[-1]), count=len(layers), scale="linear")
    return _sweep(spec, get_preset(preset), layers, per_layer_thickness)


@dataclass(frozen=True)
class OptimalThickness:
    """Located optimum of the with-cavity thickness curve."""

    thickness: float        # m
    eta: float
    cooperativity_ratio: float  # C_om / C_em at the optimum
    log_eta_second_difference: float


def find_optimal_thickness(
    preset: Preset | str = "mnf2-easyaxis-20GHz",
    lo_mm: float = 1e-6,
    hi_mm: float = 1e2,
    rel_tol: float = 1e-3,
) -> OptimalThickness:
    """The thickness maximizing the with-cavity efficiency, in closed form.

    At fixed cross-section g grows as sqrt(d) and zeta falls as
    1/sqrt(d), so C_om C_em is constant, and at the locked triple
    resonance eta = eta_o eta_e 4 C_om C_em / (1 + C_om + C_em)^2 peaks
    exactly where C_om = C_em:  d* = d sqrt(C_om / C_em), with both
    cooperativities taken at the preset's own thickness d.  The second
    difference of log eta is taken on the step ln(hi/lo)/63.

    Raises
    ------
    ConfigError
        If the preset pins g or zeta, or its system is not the lower mode
        alone, coupled to both cavities, at the triple resonance.
    ValueError
        If d* lies outside [lo_mm, hi_mm], or |C_om/C_em - 1| at d*
        exceeds ``rel_tol``.
    """
    bundle = get_preset(preset) if isinstance(preset, str) else preset
    _require_computed_couplings(bundle, "the thickness optimum")
    assembled = assemble(bundle)
    base, probe = assembled.system, assembled.probe
    if not (base.configuration is Configuration.WITH_OPTICAL_CAVITY
            and base.g_alpha == base.zeta_alpha == 0.0
            and base.g_beta > 0.0 and base.zeta_beta > 0.0
            and base.omega_beta == probe and base.delta_omega_o == -probe):
        raise ConfigError(
            f"preset {bundle.name!r}: the thickness optimum is the cooperativity crossing "
            "only for the lower mode alone at the triple resonance"
        )
    coop = cooperativities(base)
    ratio = math.sqrt(coop.c_om_beta / coop.c_em_beta)
    d_star_m = bundle.geometry.thickness * ratio
    if not lo_mm <= d_star_m * 1e3 <= hi_mm:
        raise ValueError(
            f"efficiency maximum at {d_star_m * 1e3:.6e} mm lies beyond the sweep "
            f"boundary [{lo_mm:g}, {hi_mm:g}] mm; extend the range"
        )

    optimum = cooperativities(geometry_scaling(base, thickness_ratio=ratio))
    matching = optimum.c_om_beta / optimum.c_em_beta
    if abs(matching - 1.0) > rel_tol:
        raise ValueError(f"|C_om/C_em - 1| = {abs(matching - 1.0):.3e} at d* exceeds {rel_tol:g}")

    step = math.exp(math.log(hi_mm / lo_mm) / 63.0)
    ratios = np.array([ratio / step, ratio, ratio * step])
    below, eta, above = scatter(geometry_scaling(base, thickness_ratio=ratios), probe).eta.tolist()
    second_diff = math.log(below) - 2.0 * math.log(eta) + math.log(above)
    return OptimalThickness(
        thickness=d_star_m,
        eta=eta,
        cooperativity_ratio=matching,
        log_eta_second_difference=second_diff,
    )

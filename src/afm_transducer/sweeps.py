"""Declarative sweep engine and the thickness optimizer.

Every sweep is deterministic (identical spec, bit-identical rows), every
point is evaluated through the exact matrix solver, and rows carry the
cooperativities alongside the efficiency so the curves are
self-describing.  Sweep points are mutually independent; they are
evaluated in spec order.  Every sweep runs through :func:`run_sweep`,
which takes an already resolved preset, so overrides hold at each point.
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
from .couplings import heterostructure_scaling, thickness_parameterized_couplings
from .errors import ConfigError
from .presets import Preset, assemble, get_preset
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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


def _with_cavity_system_at_thickness(base: ModeSystem, thickness_m: float) -> ModeSystem:
    c = thickness_parameterized_couplings(thickness_m)
    return replace(base, g_beta=c.g_beta, zeta_beta=c.zeta_beta, g_alpha=0.0, zeta_alpha=0.0)


_CAVITY_TAIL = ("c_em_beta", "c_om_beta", "g_beta_hz", "zeta_beta_hz")
_ITINERANT_TAIL = ("c_em_beta", "eta_m_beta", "g_beta_hz", "xi_beta_hz", "thin_sample_ok")


def _axis(variable: SweepVariable, base: ModeSystem, probe: float, per_layer_thickness: float):
    """What one sweep variable contributes to the engine.

    Returns the value column, ``point`` (grid value to the system and probe
    frequency solved there), the tail columns, ``tail`` (solved system and
    grid value to the cells after ``reflection``) and provenance extras.

    Raises
    ------
    ConfigError
        If the variable cannot act on the configuration of ``base``.
    """
    cavity = base.configuration is Configuration.WITH_OPTICAL_CAVITY

    def cavity_tail(system: ModeSystem, _) -> tuple:
        coop = cooperativities(system)
        return (coop.c_em_beta, coop.c_om_beta, ordinary(system.g_beta), ordinary(system.zeta_beta))

    if variable is SweepVariable.PROBE_DETUNING:
        return ("probe_detuning_hz", lambda det_hz: (base, probe + 2.0 * math.pi * det_hz),
                (), lambda system, _: (), {})
    if variable is SweepVariable.THICKNESS and cavity:
        return ("thickness_mm",
                lambda d_mm: (_with_cavity_system_at_thickness(base, d_mm * 1e-3), probe),
                _CAVITY_TAIL, cavity_tail, {})
    if variable is SweepVariable.THICKNESS:
        cap_m = _THIN_SAMPLE_THRESHOLD * SPEED_OF_LIGHT / base.omega_beta

        def itinerant_point(d_mm: float) -> tuple[ModeSystem, float]:
            c = thickness_parameterized_couplings(d_mm * 1e-3)
            system = replace(base, g_beta=c.g_beta, xi_beta=c.xi_beta, g_alpha=0.0, xi_alpha=0.0)
            return system, probe

        def itinerant_tail(system: ModeSystem, d_mm: float) -> tuple:
            coop = cooperativities(system)
            return (coop.c_em_beta, coop.eta_m_beta, ordinary(system.g_beta),
                    ordinary(system.xi_beta), bool(d_mm * 1e-3 <= cap_m))

        return ("thickness_mm", itinerant_point, _ITINERANT_TAIL, itinerant_tail,
                {"thin_sample_cap_mm": cap_m * 1e3})
    if variable is SweepVariable.FARADAY_ANGLE and cavity:
        def faraday_point(ratio: float) -> tuple[ModeSystem, float]:
            zeta_alpha, zeta_beta = base.zeta_alpha * ratio, base.zeta_beta * ratio
            return replace(base, zeta_alpha=zeta_alpha, zeta_beta=zeta_beta), probe

        return "theta_f_ratio", faraday_point, _CAVITY_TAIL, cavity_tail, {}
    if variable is SweepVariable.LAYER_COUNT and cavity:
        per_layer = thickness_parameterized_couplings(per_layer_thickness)

        def layer_point(n: int) -> tuple[ModeSystem, float]:
            c = heterostructure_scaling(per_layer, n)
            return replace(
                base, g_beta=c.g_beta, zeta_beta=c.zeta_beta, g_alpha=0.0, zeta_alpha=0.0
            ), probe

        return ("n_layers", layer_point, _CAVITY_TAIL, cavity_tail,
                {"per_layer_thickness_mm": per_layer_thickness * 1e3})
    raise ConfigError(
        f"sweep variable {variable.value!r} cannot act on the "
        f"{base.configuration.value} configuration"
    )


def _sweep(
    spec: SweepSpec, preset: Preset, grid, per_layer_thickness: float = _PER_LAYER_THICKNESS
) -> SweepResult:
    """The one point loop behind every sweep: assemble once, solve each grid value."""
    assembled = assemble(preset)
    base = assembled.system
    value_column, point, tail_columns, tail, extra = _axis(
        spec.variable, base, assembled.probe, per_layer_thickness
    )
    grid = np.asarray(grid)
    rows = []
    etas = []
    for x, value in zip(grid, grid.tolist()):
        system, omega = point(x)
        res = scatter(system, omega)
        etas.append(res.eta)
        rows.append(
            (spec.preset, system.configuration.value, value, res.eta, res.reflection)
            + tail(system, x)
        )
    if spec.variable is SweepVariable.PROBE_DETUNING:
        extra["fwhm_hz"] = _full_width_half_max(grid, np.asarray(etas))
    return SweepResult(
        columns=("preset", "configuration", value_column, "eta", "reflection") + tail_columns,
        rows=tuple(rows),
        provenance={
            "preset": spec.preset,
            "configuration": base.configuration.value,
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
    max(lo, 1) to hi and reports them as heterostructure_projection does.

    Raises
    ------
    ConfigError
        If the variable cannot act on the preset's configuration:
        faraday-angle and layer-count need an optical cavity.
    """
    if spec.variable is not SweepVariable.LAYER_COUNT:
        return _sweep(spec, preset, spec.grid())
    layers = _layer_counts(np.rint(np.geomspace(max(spec.lo, 1.0), spec.hi, spec.count)))
    return _sweep(replace(spec, count=len(layers), scale="linear"), preset, layers)


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

    Couplings follow the calibrated thickness laws (g up as sqrt(d),
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

    Per-layer couplings are taken from the calibrated thickness laws at
    the per-layer thickness; the collective mode then boosts g and zeta
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
    """Locate the thickness maximizing the with-cavity efficiency.

    A 64-point coarse log grid brackets the maximum, then golden-section
    search on log thickness refines it to the requested relative
    tolerance.  The constant cooperativity product makes the curve
    unimodal in log thickness, so the bracket is guaranteed.

    Raises
    ------
    ValueError
        If the coarse maximum sits on a range boundary.
    """
    bundle = get_preset(preset) if isinstance(preset, str) else preset
    assembled = assemble(bundle)
    base = assembled.system
    probe = assembled.probe

    def eta_at_log(t: float) -> float:
        system = _with_cavity_system_at_thickness(base, math.exp(t) * 1e-3)
        return scatter(system, probe).eta

    grid = np.log(np.geomspace(lo_mm, hi_mm, 64))
    values = [eta_at_log(t) for t in grid]
    peak = int(np.argmax(values))
    if peak in (0, len(grid) - 1):
        raise ValueError(
            "efficiency maximum sits on the sweep boundary; extend the range"
        )

    a, b = grid[peak - 1], grid[peak + 1]
    tol = math.log1p(rel_tol)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = eta_at_log(c), eta_at_log(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = eta_at_log(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = eta_at_log(d)
    t_star = 0.5 * (a + b)
    d_star_m = math.exp(t_star) * 1e-3

    system = _with_cavity_system_at_thickness(base, d_star_m)
    coop = cooperativities(system)
    step = grid[1] - grid[0]
    second_diff = (
        math.log(eta_at_log(t_star - step))
        - 2.0 * math.log(eta_at_log(t_star))
        + math.log(eta_at_log(t_star + step))
    )
    return OptimalThickness(
        thickness=d_star_m,
        eta=scatter(system, probe).eta,
        cooperativity_ratio=coop.c_om_beta / coop.c_em_beta,
        log_eta_second_difference=second_diff,
    )

"""Run configuration: schema, parsing and preset resolution.

Configs are flat ``key = value`` text files ('#' starts a comment).
Every frequency-valued key ends in ``_hz`` and takes an ordinary
frequency, either a bare number in Hz or a number with a unit suffix
(``mHz``, ``Hz``, ``kHz``, ``MHz``, ``GHz``, ``THz``); conversion to
angular frequencies happens here and only here.  All frequencies and
rates must be non-negative and the magnon linewidths positive; the one
signed key is ``delta_omega_o_hz`` (a detuning).  Inline values override
the preset field by field and the origin of every field is recorded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .constants import angular
from .couplings import SampleGeometry
from .errors import ConfigError
from .presets import Preset, get_preset
from .sweeps import SweepSpec, SweepVariable

__all__ = ["Command", "RunConfig", "load_config", "parse_assignment", "resolve_preset"]

# case-sensitive: 'mHz' (milli) and 'MHz' (mega) must not collide
_FREQ_SUFFIXES = {
    "mHz": 1e-3,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "THz": 1e12,
}


class Command(enum.Enum):
    MODES = "modes"
    COUPLINGS = "couplings"
    EFFICIENCY = "efficiency"
    SWEEP = "sweep"
    VALIDATE = "validate"


def _parse_frequency(text: str, key: str, line: int | None, signed: bool,
                     positive: bool = False) -> float:
    parts = text.split()
    try:
        if len(parts) == 2 and parts[1] in _FREQ_SUFFIXES:
            value = float(parts[0]) * _FREQ_SUFFIXES[parts[1]]
        elif len(parts) == 1:
            value = float(parts[0])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"malformed frequency for {key!r}: {text!r}", line) from None
    if not signed and value < 0:
        raise ConfigError(f"frequency {key!r} must be non-negative, got {text!r}", line)
    if positive and not value > 0:
        raise ConfigError(f"frequency {key!r} must be > 0, got {text!r}", line)
    return value


def _parse_float(text: str, key: str, line: int | None, minimum: float | None = None,
                 strict: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"malformed number for {key!r}: {text!r}", line) from None
    if minimum is not None:
        if strict and value <= minimum:
            raise ConfigError(f"{key!r} must be > {minimum:g}, got {value:g}", line)
        if not strict and value < minimum:
            raise ConfigError(f"{key!r} must be >= {minimum:g}, got {value:g}", line)
    return value


def _parse_int(text: str, key: str, line: int | None, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"malformed integer for {key!r}: {text!r}", line) from None
    if value < minimum:
        raise ConfigError(f"{key!r} must be >= {minimum}, got {value}", line)
    return value


# key -> parser(text, key, line) for every override the schema accepts
_PARSERS = {
    # cavity
    "omega_e_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "kappa_ee_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "kappa_ei_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "kappa_oe_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "kappa_oi_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "delta_omega_o_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=True),
    "n_cav": lambda t, k, l: _parse_float(t, k, l, minimum=0.0),
    "g0_slope_mhz_per_sqrt_ghz": lambda t, k, l: _parse_float(t, k, l, minimum=0.0),
    # magnon modes
    "omega_alpha_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "omega_beta_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    # the cooperativities divide by the magnon linewidths
    "gamma_alpha_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False, positive=True),
    "gamma_beta_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False, positive=True),
    # material
    "omega_exchange_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "omega_easyaxis_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "omega_hardaxis_hz": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "gyro_hz_per_t": lambda t, k, l: _parse_frequency(t, k, l, signed=False),
    "spin_density_per_mm3": lambda t, k, l: _parse_float(t, k, l, minimum=0.0, strict=True),
    "asymmetry_k": lambda t, k, l: _parse_float(t, k, l),
    "kappa_mo_alpha": lambda t, k, l: _parse_float(t, k, l, minimum=0.0),
    "kappa_mo_beta": lambda t, k, l: _parse_float(t, k, l, minimum=0.0),
    # geometry
    "thickness_mm": lambda t, k, l: _parse_float(t, k, l, minimum=0.0, strict=True),
    "cross_section_mm2": lambda t, k, l: _parse_float(t, k, l, minimum=0.0, strict=True),
    "layer_count": lambda t, k, l: _parse_int(t, k, l, minimum=1),
    # static field
    "b0_t": lambda t, k, l: _parse_float(t, k, l, minimum=0.0),
    # sweep block
    "sweep_variable": lambda t, k, l: _parse_sweep_variable(t, l),
    "sweep_lo": lambda t, k, l: _parse_float(t, k, l),
    "sweep_hi": lambda t, k, l: _parse_float(t, k, l),
    "sweep_count": lambda t, k, l: _parse_int(t, k, l, minimum=2),
    "sweep_scale": lambda t, k, l: _parse_choice(t, k, l, ("log", "linear")),
}

_STRUCTURAL_KEYS = ("preset", "command", "output", "format")


def _parse_sweep_variable(text: str, line: int | None) -> SweepVariable:
    try:
        return SweepVariable(text)
    except ValueError:
        options = ", ".join(v.value for v in SweepVariable)
        raise ConfigError(
            f"unknown sweep_variable {text!r}; options: {options}", line
        ) from None


def _parse_choice(text: str, key: str, line: int | None, options: tuple[str, ...]) -> str:
    if text not in options:
        raise ConfigError(f"{key!r} must be one of {options}, got {text!r}", line)
    return text


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed run: command, preset, overrides and output routing."""

    command: Command
    preset_name: str
    overrides: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "csv"
    provenance: dict = field(default_factory=dict)

    def sweep_spec(self) -> SweepSpec | None:
        ov = self.overrides
        if "sweep_variable" not in ov:
            return None
        for needed in ("sweep_lo", "sweep_hi", "sweep_count"):
            if needed not in ov:
                raise ConfigError(f"sweep requires {needed!r}")
        return SweepSpec(
            preset=self.preset_name,
            variable=ov["sweep_variable"],
            lo=ov["sweep_lo"],
            hi=ov["sweep_hi"],
            count=ov["sweep_count"],
            scale=ov.get("sweep_scale", "log"),
        )


def parse_assignment(text: str, line: int | None = None) -> tuple[str, str]:
    """Split one 'key = value' assignment, validating its shape."""
    if "=" not in text:
        raise ConfigError(f"expected 'key = value', got {text!r}", line)
    key, _, value = text.partition("=")
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"expected 'key = value', got {text!r}", line)
    return key, value


def load_config(
    text: str,
    command: Command | None = None,
    extra_sets: list[str] | None = None,
) -> RunConfig:
    """Parse a config document into a :class:`RunConfig`.

    ``command`` given by the caller (the CLI subcommand) takes precedence
    over a ``command`` key in the document.  ``extra_sets`` are
    'key=value' strings applied after the document, recorded with
    '--set' provenance.
    """
    structural: dict[str, str] = {}
    overrides: dict = {}
    provenance: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = parse_assignment(stripped, lineno)
        if key in _STRUCTURAL_KEYS:
            structural[key] = value
            provenance[key] = f"line {lineno}"
        elif key in _PARSERS:
            overrides[key] = _PARSERS[key](value, key, lineno)
            provenance[key] = f"line {lineno}"
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)

    for assignment in extra_sets or []:
        key, value = parse_assignment(assignment)
        if key in _STRUCTURAL_KEYS:
            structural[key] = value
        elif key in _PARSERS:
            overrides[key] = _PARSERS[key](value, key, None)
        else:
            raise ConfigError(f"unknown key {key!r} in --set {assignment!r}")
        provenance[key] = "--set"

    if command is None:
        if "command" not in structural:
            raise ConfigError("missing required key 'command'")
        try:
            command = Command(structural["command"])
        except ValueError:
            options = ", ".join(c.value for c in Command)
            raise ConfigError(
                f"unknown command {structural['command']!r}; options: {options}"
            ) from None

    if "preset" not in structural:
        raise ConfigError("missing required key 'preset'")
    preset_name = structural["preset"]

    out_format = structural.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {out_format!r}")

    return RunConfig(
        command=command,
        preset_name=preset_name,
        overrides=overrides,
        output=structural.get("output"),
        format=out_format,
        provenance=provenance,
    )


def resolve_preset(cfg: RunConfig) -> tuple[Preset, dict]:
    """Apply the config overrides onto the named preset field by field.

    Returns the resolved bundle and a field-origin map ('preset' or the
    override provenance recorded at parse time).
    """
    preset = get_preset(cfg.preset_name)
    ov = dict(cfg.overrides)
    origin = {key: f"preset {cfg.preset_name!r}" for key in _PARSERS}
    for key in ov:
        origin[key] = cfg.provenance.get(key, "override")

    cavity = preset.cavity
    cavity_updates = {}
    for key, attr in (
        ("omega_e_hz", "omega_e"),
        ("kappa_ee_hz", "kappa_ee"),
        ("kappa_ei_hz", "kappa_ei"),
        ("kappa_oe_hz", "kappa_oe"),
        ("kappa_oi_hz", "kappa_oi"),
        ("delta_omega_o_hz", "delta_omega_o"),
    ):
        if key in ov:
            cavity_updates[attr] = angular(ov.pop(key))
    if "n_cav" in ov:
        cavity_updates["n_cav"] = ov.pop("n_cav")
    if "g0_slope_mhz_per_sqrt_ghz" in ov:
        cavity_updates["g0_slope"] = ov.pop("g0_slope_mhz_per_sqrt_ghz") * 1e-3 / math.sqrt(1e9)
    if cavity_updates:
        cavity = replace(cavity, **cavity_updates)

    material = preset.material
    material_updates = {}
    for key, attr in (
        ("omega_exchange_hz", "omega_E"),
        ("omega_easyaxis_hz", "omega_par"),
        ("omega_hardaxis_hz", "omega_perp"),
        ("gyro_hz_per_t", "gyro"),
    ):
        if key in ov:
            material_updates[attr] = angular(ov.pop(key))
    if "spin_density_per_mm3" in ov:
        material_updates["spin_density"] = ov.pop("spin_density_per_mm3") * 1e9
    if "asymmetry_k" in ov:
        material_updates["asymmetry_K"] = ov.pop("asymmetry_k")
    if material_updates:
        material = replace(material, **material_updates)

    geometry = preset.geometry
    geometry_updates = {}
    if "thickness_mm" in ov:
        geometry_updates["thickness"] = ov.pop("thickness_mm") * 1e-3
    if "cross_section_mm2" in ov:
        geometry_updates["cross_section"] = ov.pop("cross_section_mm2") * 1e-6
    if "layer_count" in ov:
        geometry_updates["layer_count"] = ov.pop("layer_count")
    if geometry_updates:
        geometry = SampleGeometry(
            cross_section=geometry_updates.get("cross_section", geometry.cross_section),
            thickness=geometry_updates.get("thickness", geometry.thickness),
            layer_count=geometry_updates.get("layer_count", geometry.layer_count),
        )

    kappa_mo = preset.kappa_mo_override
    if "kappa_mo_alpha" in ov or "kappa_mo_beta" in ov:
        base = kappa_mo if kappa_mo is not None else (0.0, 0.0)
        kappa_mo = (
            ov.pop("kappa_mo_alpha", base[0]),
            ov.pop("kappa_mo_beta", base[1]),
        )

    preset_updates: dict = {
        "material": material,
        "geometry": geometry,
        "cavity": cavity,
        "kappa_mo_override": kappa_mo,
    }
    for key, attr in (
        ("omega_alpha_hz", "omega_alpha"),
        ("omega_beta_hz", "omega_beta"),
        ("gamma_alpha_hz", "gamma_alpha"),
        ("gamma_beta_hz", "gamma_beta"),
    ):
        if key in ov:
            preset_updates[attr] = angular(ov.pop(key))

    # remaining keys (b0_t, sweep_*) are consumed by the command layer
    resolved = replace(preset, **preset_updates)
    return resolved, origin

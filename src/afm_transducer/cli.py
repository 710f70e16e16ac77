"""Command-line surface.

    afm-transducer <command> --config <path> [--set key=value ...]
                   [--output <path>] [--format csv|json]

Commands: ``modes`` (resonance frequencies and mode coefficients),
``couplings`` (the assembled coupling rates), ``efficiency`` (locked
operating point), ``sweep`` (writes one sweep as CSV/JSON) and
``validate`` (runs the invariant suite).  Exit codes: 0 success,
2 configuration error, 3 numerical-domain error, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .closed_forms import cooperativities
from .config import Command, RunConfig, load_config, resolve_preset
from .constants import ordinary
from .errors import ConfigError, SingularMatrixError, SpinFlopError, UnstableHamiltonianError
from .invariants import run_invariant_suite
from .magnon import bogoliubov_uv, kappa_coefficients, resonance_frequencies
from .output import emit
from .presets import assemble
from .scattering import scatter
from .sweeps import SweepVariable, run_sweep

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DOMAIN = 3
_EXIT_INVARIANT = 4

# keys a sweep sets itself at every point; the layer-count sweep fixes the
# per-layer thickness and records it in the provenance
_SWEPT_KEYS = {
    SweepVariable.THICKNESS: ("thickness_mm",),
    SweepVariable.LAYER_COUNT: ("thickness_mm", "layer_count"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afm-transducer",
        description="Microwave-to-optical transduction modeling for antiferromagnets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("modes", "resonance frequencies and mode coefficients"),
        ("couplings", "assembled coupling rates"),
        ("efficiency", "efficiency and reflection at the locked resonance"),
        ("sweep", "run the sweep described by the config"),
        ("validate", "run the invariant suite on the configured parameters"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, help="key = value config document")
        cmd.add_argument("--preset", help="preset name (alternative to --config)")
        cmd.add_argument(
            "--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--output", type=Path, help="write results here instead of stdout")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    command = Command(args.command)
    if args.config is not None:
        text = args.config.read_text(encoding="utf-8")
    elif args.preset is not None:
        text = f"preset = {args.preset}\n"
    else:
        raise ConfigError("either --config or --preset is required")
    cfg = load_config(text, command=command, extra_sets=args.sets)
    if args.format is not None:
        cfg = RunConfig(
            command=cfg.command, preset_name=cfg.preset_name, overrides=cfg.overrides,
            output=cfg.output, format=args.format, provenance=cfg.provenance,
        )
    if args.output is not None:
        cfg = RunConfig(
            command=cfg.command, preset_name=cfg.preset_name, overrides=cfg.overrides,
            output=str(args.output), format=cfg.format, provenance=cfg.provenance,
        )
    return cfg


def _base_provenance(cfg: RunConfig, configuration: str) -> dict:
    return {
        "preset": cfg.preset_name,
        "configuration": configuration,
        "code_version": __version__,
        "command": cfg.command.value,
    }


def _run_modes(cfg: RunConfig) -> tuple[tuple, tuple, dict, int]:
    preset, _ = resolve_preset(cfg)
    b0 = cfg.overrides.get("b0_t", 0.0)
    material = preset.material
    omega_alpha, omega_beta = resonance_frequencies(material, b0)
    u, v = bogoliubov_uv(material)
    kappa_alpha, kappa_beta = kappa_coefficients(material)
    override = preset.kappa_mo_override
    columns = (
        "preset", "b0_t", "omega_alpha_hz", "omega_beta_hz", "u", "v",
        "kappa_alpha", "kappa_beta", "kappa_alpha_effective", "kappa_beta_effective",
    )
    row = (
        cfg.preset_name, float(b0), ordinary(omega_alpha), ordinary(omega_beta),
        u, v, kappa_alpha, kappa_beta,
        override[0] if override else kappa_alpha,
        override[1] if override else kappa_beta,
    )
    return columns, (row,), _base_provenance(cfg, preset.configuration.value), _EXIT_OK


def _run_couplings(cfg: RunConfig) -> tuple[tuple, tuple, dict, int]:
    preset, _ = resolve_preset(cfg)
    assembled = assemble(preset)
    c = assembled.couplings
    columns = (
        "preset", "g_alpha_hz", "g_beta_hz", "g_single_photon_alpha_hz",
        "g_single_photon_beta_hz", "zeta_alpha_hz", "zeta_beta_hz",
        "xi_alpha_hz", "xi_beta_hz", "kappa_alpha", "kappa_beta",
    )
    row = (
        cfg.preset_name,
        ordinary(c.g_alpha), ordinary(c.g_beta),
        ordinary(c.G_alpha), ordinary(c.G_beta),
        ordinary(c.zeta_alpha), ordinary(c.zeta_beta),
        ordinary(c.xi_alpha), ordinary(c.xi_beta),
        assembled.kappa_mo[0], assembled.kappa_mo[1],
    )
    return columns, (row,), _base_provenance(cfg, preset.configuration.value), _EXIT_OK


def _run_efficiency(cfg: RunConfig) -> tuple[tuple, tuple, dict, int]:
    preset, _ = resolve_preset(cfg)
    assembled = assemble(preset)
    system = assembled.system
    result = scatter(system, assembled.probe)
    coop = cooperativities(system)
    columns = (
        "preset", "configuration", "probe_hz", "eta", "reflection",
        "c_em_beta", "c_om_beta", "eta_m_beta", "eta_e", "eta_o",
    )
    row = (
        cfg.preset_name, system.configuration.value, ordinary(assembled.probe),
        result.eta, result.reflection,
        coop.c_em_beta, coop.c_om_beta, coop.eta_m_beta, coop.eta_e, coop.eta_o,
    )
    return columns, (row,), _base_provenance(cfg, system.configuration.value), _EXIT_OK


def _run_sweep(cfg: RunConfig) -> tuple[tuple, tuple, dict, int]:
    spec = cfg.sweep_spec()
    if spec is None:
        raise ConfigError("sweep command requires sweep_variable/sweep_lo/sweep_hi/sweep_count")
    for key in _SWEPT_KEYS.get(spec.variable, ()):
        if key in cfg.overrides:
            raise ConfigError(f"{key!r} is set by the {spec.variable.value!r} sweep itself")
    preset, _ = resolve_preset(cfg)
    result = run_sweep(spec, preset)
    provenance = dict(result.provenance)
    provenance["command"] = cfg.command.value
    return result.columns, result.rows, provenance, _EXIT_OK


def _run_validate(cfg: RunConfig) -> tuple[tuple, tuple, dict, int]:
    preset, _ = resolve_preset(cfg)
    b0 = cfg.overrides.get("b0_t", 0.0)
    checks = run_invariant_suite(preset, b0=b0)
    columns = ("check", "passed", "measured", "tolerance")
    rows = tuple((c.name, c.passed, c.measured, c.tolerance) for c in checks)
    status = _EXIT_OK if all(c.passed for c in checks) else _EXIT_INVARIANT
    provenance = _base_provenance(cfg, preset.configuration.value)
    provenance["checks_passed"] = sum(c.passed for c in checks)
    provenance["checks_total"] = len(checks)
    return columns, rows, provenance, status


_RUNNERS = {
    Command.MODES: _run_modes,
    Command.COUPLINGS: _run_couplings,
    Command.EFFICIENCY: _run_efficiency,
    Command.SWEEP: _run_sweep,
    Command.VALIDATE: _run_validate,
}


def _error_object(exc: Exception, code: int) -> str:
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    line = getattr(exc, "line", None)
    if line is not None:
        payload["line"] = line
    return json.dumps(payload)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        columns, rows, provenance, status = _RUNNERS[cfg.command](cfg)
        payload = emit(columns, rows, provenance, cfg.format)
    except (ConfigError, KeyError, ValueError) as exc:
        code = _EXIT_CONFIG
        if isinstance(exc, (SpinFlopError, SingularMatrixError, UnstableHamiltonianError)):
            code = _EXIT_DOMAIN
        print(_error_object(exc, code), file=sys.stderr)
        return code
    if cfg.output:
        Path(cfg.output).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

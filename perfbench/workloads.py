"""Seeded inputs of the benchmark workloads.

Every operation is a pure function of ``(workload, seed, index)``: the same
seed always yields the same argv, and a run that completes more operations
sees a longer prefix of the same sequence.  Nothing here imports the
package; the program only ever receives the argv (and optimiser arguments)
built here.

The timed workloads hold only operations that the program gets right.  The
inputs that hit the two known defects (see ``checks.py``) are kept in a
separate, fixed-size probe, :func:`make_defect_op`, which the design-scan
run executes untimed after its loop and reports on its own.
"""

from __future__ import annotations

import math
import random

EASY = "mnf2-easyaxis-20GHz"
DEGENERATE = "mnf2-degenerate-250GHz"
NOCAVITY = "mnf2-nocavity-20GHz"
PRESETS = (EASY, DEGENERATE, NOCAVITY)

WHY = {
    "sweep-dense": (
        "4,001-point probe-detuning sweeps through cli.main: time goes to per-point "
        "scattering and the sweeps loop, config/presets run once per sweep"
    ),
    "design-scan": (
        "short faraday/thickness/layer-count sweeps interleaved with "
        "find_optimal_thickness: per-sweep fixed costs, couplings and closed forms "
        "weigh more, and the optimiser is a serial solve chain"
    ),
    "cli-oneshot": (
        "fresh python -m afm_transducer.cli processes (modes, couplings, efficiency, "
        "validate): interpreter start and package import dominate"
    ),
}
WORKLOADS = tuple(WHY)

DENSE_POINTS = 4001
CLI_COMMANDS = ("modes", "couplings", "efficiency", "validate")
# Tolerances the optimiser meets; below about 1e-5 the efficiency is too flat
# at its peak (the optimizer-flat-peak defect), so 1e-6 is probed apart.
REL_TOLS = (1e-3, 1e-4, 1e-5)
DEFECT_REL_TOL = 1e-6

# One design-scan block: every sweep kind twice and one optimiser call per
# tolerance.  Blocks have a fixed composition and a seeded order, so the mix
# of operations is the same on every seed and at every run length.
_SWEEPS = (
    ("faraday-angle", EASY),
    ("thickness", EASY),
    ("thickness", NOCAVITY),
    ("layer-count", EASY),
)
_DESIGN_BLOCK = tuple(sweep + (None,) for sweep in _SWEEPS for _ in range(2)) + tuple(
    ("optimize", EASY, tol) for tol in REL_TOLS)

# Rate overrides that act on each sweep.  n_cav only sets the cavity-enhanced
# zeta, which the thickness and layer-count sweeps replace by the calibrated
# thickness law, so it is drawn for the Faraday sweep alone.
_CAVITY_RATES = ("kappa_ee_hz", "kappa_ei_hz", "kappa_oe_hz", "kappa_oi_hz", "gamma_beta_hz")
_SWEEP_OVERRIDES = {
    ("faraday-angle", EASY): _CAVITY_RATES + ("n_cav",),
    ("thickness", EASY): _CAVITY_RATES,
    ("layer-count", EASY): _CAVITY_RATES,
    ("thickness", NOCAVITY): ("kappa_ee_hz", "kappa_ei_hz", "gamma_beta_hz"),
}

# Overrides for the one-shot commands, by preset configuration.
_CLI_KEYS = {
    "cavity": _CAVITY_RATES + ("n_cav", "thickness_mm", "layer_count", "b0_t"),
    "nocavity": ("kappa_ee_hz", "kappa_ei_hz", "gamma_beta_hz", "thickness_mm", "b0_t"),
}


def _rng(workload: str, seed: int, *key) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random("/".join(map(str, (workload, seed) + key)))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    return format(x, ".9g")


def _off_default(rng: random.Random) -> float:
    """A factor that moves a rate clearly away from its preset value."""
    return rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 3.0)


def _rate_override(rng: random.Random, key: str) -> str:
    if key == "n_cav":
        return f"n_cav={_num(1e6 * _off_default(rng))}"
    # every drawn rate sits at 100 MHz in the EASY and NOCAVITY presets
    return f"{key}={100.0 * _off_default(rng):.6g} MHz"


def _cli_value(rng: random.Random, key: str, preset: str) -> str:
    if key.endswith("_hz"):
        return f"{key}={rng.uniform(30.0, 300.0):.6g} MHz"
    if key == "n_cav":
        return f"n_cav={_num(_log_uniform(rng, 1e5, 1e7))}"
    if key == "thickness_mm":
        lo, hi = (1e-4, 1e-2) if preset == NOCAVITY else (1e-2, 1.0)
        return f"thickness_mm={_num(_log_uniform(rng, lo, hi))}"
    if key == "layer_count":
        return f"layer_count={rng.randint(1, 50)}"
    if key == "b0_t":
        return f"b0_t={_num(rng.uniform(0.0, 5.0))}"
    raise ValueError(f"no generator for override {key!r}")


def _sweep_op(preset: str, sweep_sets: list[str], overrides: list[str]) -> dict:
    argv = ["sweep", "--preset", preset]
    for assignment in sweep_sets + overrides:
        argv += ["--set", assignment]
    return {
        "kind": "cli", "command": "sweep", "preset": preset, "argv": argv,
        "sweep_sets": sweep_sets, "overrides": overrides, "to_file": True,
    }


def _dense_op(seed: int, index: int) -> dict:
    rng = _rng("sweep-dense", seed, index)
    half_width = rng.uniform(0.2e9, 3e9)
    sweep_sets = [
        "sweep_variable=probe-detuning",
        f"sweep_lo={_num(-half_width)}",
        f"sweep_hi={_num(half_width)}",
        f"sweep_count={DENSE_POINTS}",
        "sweep_scale=linear",
    ]
    return _sweep_op(PRESETS[index % len(PRESETS)], sweep_sets, [])


def _design_op(seed: int, index: int) -> dict:
    block, slot = divmod(index, len(_DESIGN_BLOCK))
    order = list(range(len(_DESIGN_BLOCK)))
    _rng("design-scan", seed, "block", block).shuffle(order)
    variable, preset, rel_tol = _DESIGN_BLOCK[order[slot]]
    rng = _rng("design-scan", seed, index)
    if variable == "optimize":
        return _optimize_op(rng, preset, rel_tol)
    return _design_sweep_op(rng, variable, preset, override=False)


def _optimize_op(rng: random.Random, preset: str, rel_tol: float) -> dict:
    return {
        "kind": "optimize", "preset": preset,
        "lo_mm": _log_uniform(rng, 1e-6, 1e-4),
        "hi_mm": _log_uniform(rng, 1e-2, 1e2),
        "rel_tol": rel_tol,
    }


def _design_sweep_op(rng: random.Random, variable: str, preset: str, override: bool) -> dict:
    if variable == "faraday-angle":
        lo, hi = _log_uniform(rng, 1e-3, 1e-1), _log_uniform(rng, 0.3, 3.0)
    elif variable == "layer-count":
        lo, hi = float(rng.randint(1, 10)), float(rng.randint(200, 5000))
    elif preset == NOCAVITY:
        lo, hi = _log_uniform(rng, 1e-6, 1e-4), _log_uniform(rng, 1e-2, 1.0)
    else:
        lo, hi = _log_uniform(rng, 1e-6, 1e-3), _log_uniform(rng, 1e-1, 1e2)
    sweep_sets = [
        f"sweep_variable={variable}",
        f"sweep_lo={_num(lo)}",
        f"sweep_hi={_num(hi)}",
        f"sweep_count={rng.randint(20, 200)}",
        "sweep_scale=log",
    ]
    overrides = []
    if override:
        key = rng.choice(_SWEEP_OVERRIDES[(variable, preset)])
        overrides.append(_rate_override(rng, key))
    return _sweep_op(preset, sweep_sets, overrides)


# The known-defect probe: every sweep kind with a rate override, and the
# optimiser at DEFECT_REL_TOL, DEFECT_ROUNDS times each.
DEFECT_ROUNDS = 3
_DEFECT_ROUND = _SWEEPS + (("optimize", EASY),)
DEFECT_OPS = DEFECT_ROUNDS * len(_DEFECT_ROUND)


def make_defect_op(seed: int, index: int) -> dict:
    """The ``index``-th operation of the known-defect probe, ``index < DEFECT_OPS``."""
    variable, preset = _DEFECT_ROUND[index % len(_DEFECT_ROUND)]
    rng = _rng("known-defects", seed, index)
    if variable == "optimize":
        return _optimize_op(rng, preset, DEFECT_REL_TOL)
    return _design_sweep_op(rng, variable, preset, override=True)


def _oneshot_op(seed: int, index: int) -> dict:
    command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    preset = PRESETS[(index // len(CLI_COMMANDS)) % len(PRESETS)]
    rng = _rng("cli-oneshot", seed, index)
    keys = _CLI_KEYS["nocavity" if preset == NOCAVITY else "cavity"]
    overrides = [_cli_value(rng, key, preset) for key in rng.sample(keys, rng.randint(1, 2))]
    argv = [command, "--preset", preset]
    for assignment in overrides:
        argv += ["--set", assignment]
    return {
        "kind": "cli", "command": command, "preset": preset, "argv": argv,
        "sweep_sets": [], "overrides": overrides, "to_file": False,
    }


_MAKERS = {"sweep-dense": _dense_op, "design-scan": _design_op, "cli-oneshot": _oneshot_op}


def make_op(workload: str, seed: int, index: int) -> dict:
    """The ``index``-th operation of a workload, as plain JSON-able data."""
    return _MAKERS[workload](seed, index)


# Outputs of the first operations, enough for one full cycle of each
# workload, are hashed so that byte-identical results can be compared.
DIGEST_OPS = {"sweep-dense": 3, "design-scan": len(_DESIGN_BLOCK), "cli-oneshot": 12}

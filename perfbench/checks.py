"""Output checks against the closed-form oracle, run outside the timed part.

Each checker returns a list of problems (empty when the output is right).
:func:`classify` turns the problems of one operation into a verdict:
``ok``, one of the two known defects recorded at the seed, or
``unexplained``.  The timed workloads avoid the two defects; design-scan's
known-defect probe (``workloads.make_defect_op``) runs their inputs apart
and reports their share, so that they stay visible until they are fixed.

* ``sweep-drops-override``: ``sweep`` ignores non-``sweep_*`` overrides.
  Attributed only when the rows fail against the config resolved with the
  override and pass against the same config without it.
* ``optimizer-flat-peak``: ``find_optimal_thickness`` misses
  ``|C_om/C_em - 1| <= 2 rel_tol`` for ``rel_tol`` below 1e-5, where the
  efficiency is too flat at its peak to locate it that finely.  Attributed
  only for ``rel_tol <= FLAT_PEAK_TOL``.
"""

from __future__ import annotations

import math

from afm_transducer import (
    Configuration,
    assemble,
    cooperativities,
    eta_with_cavity_full,
    eta_without_cavity_full,
)
from afm_transducer.config import Command, load_config, resolve_preset

REL_TOL = 1e-9
FLAT_PEAK_TOL = 1e-6
TWO_PI = 2.0 * math.pi


def parse_csv(data: bytes) -> tuple[list[str], list[dict]]:
    """Header and rows of a CSV payload; '#' lines are provenance."""
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    if not lines:
        return [], []
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return columns, rows


def _rel(actual: float, expected: float) -> float:
    if actual == expected:
        return 0.0
    return abs(actual - expected) / max(abs(expected), 1e-300)


def _assembled(preset: str, command: str, sets: list[str]):
    cfg = load_config(f"preset = {preset}\n", command=Command(command), extra_sets=sets)
    resolved, _ = resolve_preset(cfg)
    return assemble(resolved)


def _passive(rows: list[dict]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        for key in ("eta", "reflection"):
            if key in row and not 0.0 <= float(row[key]) <= 1.0:
                problems.append(f"row {i}: {key} = {row[key]} outside [0, 1]")
    return problems


def check_detuning(op: dict, data: bytes, expected_rows: int) -> list[str]:
    """Rows against eta_*_full on the assembled preset at probe + 2 pi det."""
    _, rows = parse_csv(data)
    problems = _passive(rows)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    assembled = _assembled(op["preset"], "sweep", op["sweep_sets"] + op["overrides"])
    system = assembled.system
    closed_form = (eta_with_cavity_full
                   if system.configuration is Configuration.WITH_OPTICAL_CAVITY
                   else eta_without_cavity_full)
    for i, row in enumerate(rows):
        omega = assembled.probe + TWO_PI * float(row["probe_detuning_hz"])
        eta, expected = float(row["eta"]), closed_form(system, omega)
        if _rel(eta, expected) > REL_TOL:
            problems.append(f"row {i}: eta {eta!r} vs closed form {expected!r}")
    return problems


def check_design_sweep(op: dict, data: bytes, sets: list[str]) -> list[str]:
    """Rows against the cooperativity reduction and the resolved rates.

    The efficiency must equal the reduction of the row's own
    cooperativities with eta_e and eta_o of the resolved config, and those
    cooperativities must follow from the row's couplings and the resolved
    decay rates.  Faraday rows also carry the resolved base couplings.
    """
    _, rows = parse_csv(data)
    problems = _passive(rows)
    if not rows:
        problems.append("no rows")
    assembled = _assembled(op["preset"], "sweep", sets)
    base = assembled.system
    coop = cooperativities(base)
    with_cavity = base.configuration is Configuration.WITH_OPTICAL_CAVITY
    kappa_o = base.kappa_oe + base.kappa_oi
    for i, row in enumerate(rows):
        c_em = float(row["c_em_beta"])
        g = TWO_PI * float(row["g_beta_hz"])
        expected = {"c_em_beta": 4.0 * g * g / (base.kappa_e * base.gamma_beta)}
        if with_cavity:
            c_om = float(row["c_om_beta"])
            reduction = coop.eta_o * coop.eta_e * 4.0 * c_om * c_em / (1.0 + c_om + c_em) ** 2
            zeta = TWO_PI * float(row["zeta_beta_hz"])
            expected["c_om_beta"] = 4.0 * zeta * zeta / (kappa_o * base.gamma_beta)
        else:
            eta_m = float(row["eta_m_beta"])
            reduction = coop.eta_e * eta_m * 4.0 * c_em / (1.0 + c_em) ** 2
            expected["eta_m_beta"] = TWO_PI * float(row["xi_beta_hz"]) / base.gamma_beta
        if "theta_f_ratio" in row:
            ratio = float(row["theta_f_ratio"])
            expected["g_beta_hz"] = base.g_beta / TWO_PI
            expected["zeta_beta_hz"] = ratio * base.zeta_beta / TWO_PI
        eta = float(row["eta"])
        if _rel(eta, reduction) > REL_TOL:
            problems.append(f"row {i}: eta {eta!r} vs cooperativity reduction {reduction!r}")
        for key, value in expected.items():
            if _rel(float(row[key]), value) > REL_TOL:
                problems.append(f"row {i}: {key} {row[key]} vs resolved config {value!r}")
    return problems


def check_optimizer(op: dict, result: dict) -> list[str]:
    problems = []
    miss = abs(result["cooperativity_ratio"] - 1.0)
    if miss > 2.0 * op["rel_tol"]:
        problems.append(
            f"|C_om/C_em - 1| = {miss:.3e} > 2 rel_tol = {2.0 * op['rel_tol']:.0e}")
    if not 0.0 <= result["eta"] <= 1.0:
        problems.append(f"eta {result['eta']!r} outside [0, 1]")
    thickness_mm = result["thickness_m"] * 1e3
    if not op["lo_mm"] <= thickness_mm <= op["hi_mm"]:
        problems.append(f"optimum {thickness_mm!r} mm outside the bracket")
    return problems


def check_oneshot(op: dict, data: bytes) -> list[str]:
    """Passivity and the closed forms for one CLI command that exited with 0."""
    _, rows = parse_csv(data)
    if not rows:
        return ["no rows"]
    problems = _passive(rows)
    command = op["command"]
    if command == "modes":
        u, v = float(rows[0]["u"]), float(rows[0]["v"])
        if abs(u * u - v * v - 1.0) > REL_TOL:
            problems.append(f"U^2 - V^2 = {u * u - v * v!r}, expected 1")
    elif command == "couplings":
        for key, value in rows[0].items():
            if key != "preset" and not (math.isfinite(float(value)) and float(value) >= 0):
                problems.append(f"{key} = {value}")
    elif command == "efficiency":
        assembled = _assembled(op["preset"], command, op["overrides"])
        system = assembled.system
        closed_form = (eta_with_cavity_full
                       if system.configuration is Configuration.WITH_OPTICAL_CAVITY
                       else eta_without_cavity_full)
        expected = closed_form(system, assembled.probe)
        if _rel(float(rows[0]["eta"]), expected) > REL_TOL:
            problems.append(f"eta {rows[0]['eta']} vs closed form {expected!r}")
    elif command == "validate":
        failed = [row["check"] for row in rows if row["passed"] != "true"]
        if failed:
            problems.append(f"invariants failed: {failed}")
    return problems


def classify(op: dict, problems: list[str], data: bytes | None = None) -> str:
    """Verdict for one operation's problems (see the module docstring)."""
    if not problems:
        return "ok"
    if op["kind"] == "optimize":
        flat = op["rel_tol"] <= FLAT_PEAK_TOL and all(p.startswith("|C_om") for p in problems)
        return "optimizer-flat-peak" if flat else "unexplained"
    if op["command"] == "sweep" and op["overrides"] and data is not None:
        try:
            without = check_design_sweep(op, data, op["sweep_sets"])
        except (KeyError, ValueError):
            return "unexplained"
        return "sweep-drops-override" if not without else "unexplained"
    return "unexplained"


def verify(workload: str, op: dict, returncode: int | None, data: bytes | None,
           result: dict | None, dense_points: int) -> tuple[str, list[str], int]:
    """Verdict, problems and emitted row count of one completed operation."""
    try:
        if op["kind"] == "optimize":
            problems, rows = check_optimizer(op, result), 1
        elif returncode != 0:
            return "unexplained", [f"exit code {returncode}, expected 0"], 0
        else:
            rows = len(parse_csv(data)[1])
            if workload == "cli-oneshot":
                problems = check_oneshot(op, data)
            elif workload == "sweep-dense":
                problems = check_detuning(op, data, dense_points)
            else:
                problems = check_design_sweep(op, data, op["sweep_sets"] + op["overrides"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return "unexplained", [f"check raised {type(exc).__name__}: {exc}"], 0
    return classify(op, problems, data), problems, rows

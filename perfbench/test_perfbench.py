"""Self-tests of the benchmark: seeded inputs, checkers and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from afm_transducer import cli, find_optimal_thickness, sweeps  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _emit(argv: list[str], tmp_path: Path) -> bytes:
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 0
    return out.read_bytes()


def _corrupt_eta(data: bytes, row: int, factor: float) -> bytes:
    lines = data.decode().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    cells = lines[header + 1 + row].split(",")
    col = columns.index("eta")
    cells[col] = repr(float(cells[col]) * factor)
    lines[header + 1 + row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = [make_op(workload, 7, i) for i in range(40)]
    assert first == [make_op(workload, 7, i) for i in range(40)]
    assert first != [make_op(workload, 8, i) for i in range(40)]


def test_design_blocks_have_fixed_composition():
    block = len(workloads._DESIGN_BLOCK)
    for start in range(0, 5 * block, block):
        ops = [make_op("design-scan", 3, i) for i in range(start, start + block)]
        assert not any(op.get("overrides") for op in ops)
        assert sorted(op["rel_tol"] for op in ops if op["kind"] == "optimize") == sorted(
            workloads.REL_TOLS)


def test_defect_probe_carries_the_defect_inputs():
    ops = [workloads.make_defect_op(3, i) for i in range(workloads.DEFECT_OPS)]
    assert ops == [workloads.make_defect_op(3, i) for i in range(workloads.DEFECT_OPS)]
    sweeps_ = [op for op in ops if op["kind"] == "cli"]
    optimize = [op for op in ops if op["kind"] == "optimize"]
    assert sweeps_ and all(len(op["overrides"]) == 1 for op in sweeps_)
    assert optimize and all(op["rel_tol"] <= checks.FLAT_PEAK_TOL for op in optimize)


def test_detuning_checker_flags_perturbed_eta(tmp_path):
    op = make_op("sweep-dense", 1, 0)
    sets = [s if not s.startswith("sweep_count") else "sweep_count=41" for s in op["sweep_sets"]]
    op = dict(op, sweep_sets=sets)
    data = _emit(["sweep", "--preset", op["preset"]]
                 + [a for s in sets for a in ("--set", s)], tmp_path)
    assert checks.check_detuning(op, data, 41) == []
    problems = checks.check_detuning(op, _corrupt_eta(data, 20, 1.0 + 1e-7), 41)
    assert problems and "row 20" in problems[0]
    assert checks.classify(op, problems, data) == "unexplained"


def test_design_checker_flags_dropped_override(tmp_path):
    sweep_sets = ["sweep_variable=thickness", "sweep_lo=1e-5", "sweep_hi=1",
                  "sweep_count=30", "sweep_scale=log"]
    plain = {"kind": "cli", "command": "sweep", "preset": workloads.EASY,
             "sweep_sets": sweep_sets, "overrides": []}
    data = _emit(["sweep", "--preset", workloads.EASY]
                 + [a for s in sweep_sets for a in ("--set", s)], tmp_path)
    assert checks.check_design_sweep(plain, data, sweep_sets) == []
    # rows computed without the override, checked as if it had been requested
    for override in ("kappa_oi_hz=250 MHz", "gamma_beta_hz=40 MHz"):
        op = dict(plain, overrides=[override])
        problems = checks.check_design_sweep(op, data, sweep_sets + [override])
        assert problems
        assert checks.classify(op, problems, data) == "sweep-drops-override"
    problems = checks.check_design_sweep(plain, _corrupt_eta(data, 3, 1.001), sweep_sets)
    assert checks.classify(plain, problems, data) == "unexplained"


def test_faraday_checker_flags_dropped_n_cav(tmp_path):
    sweep_sets = ["sweep_variable=faraday-angle", "sweep_lo=0.01", "sweep_hi=1",
                  "sweep_count=20", "sweep_scale=log"]
    plain = {"kind": "cli", "command": "sweep", "preset": workloads.EASY,
             "sweep_sets": sweep_sets, "overrides": []}
    data = _emit(["sweep", "--preset", workloads.EASY]
                 + [a for s in sweep_sets for a in ("--set", s)], tmp_path)
    assert checks.check_design_sweep(plain, data, sweep_sets) == []
    assert checks.check_design_sweep(plain, data, sweep_sets + ["n_cav=3e6"])


def test_optimizer_checker_flags_missed_tolerance():
    op = {"kind": "optimize", "preset": workloads.EASY, "lo_mm": 1e-5, "hi_mm": 1.0,
          "rel_tol": 1e-3}
    found = find_optimal_thickness(op["preset"], lo_mm=1e-5, hi_mm=1.0, rel_tol=1e-3)
    result = {"thickness_m": found.thickness, "eta": float(found.eta),
              "cooperativity_ratio": float(found.cooperativity_ratio)}
    assert checks.check_optimizer(op, result) == []
    missed = dict(result, cooperativity_ratio=1.0 + 3e-3)
    problems = checks.check_optimizer(op, missed)
    assert problems and checks.classify(op, problems) == "unexplained"
    fine = dict(op, rel_tol=1e-6)
    problems = checks.check_optimizer(fine, dict(result, cooperativity_ratio=1.0 + 3e-6))
    assert checks.classify(fine, problems) == "optimizer-flat-peak"


def test_oneshot_checker(tmp_path):
    op = make_op("cli-oneshot", 1, 2)
    assert op["command"] == "efficiency"
    data = _emit(op["argv"], tmp_path)
    assert checks.verify("cli-oneshot", op, 0, data, None, 0) == ("ok", [], 1)
    assert checks.check_oneshot(op, _corrupt_eta(data, 0, 1.0 + 1e-6))
    assert checks.verify("cli-oneshot", op, 3, data, None, 0)[0] == "unexplained"
    validate = make_op("cli-oneshot", 1, 3)
    data = _emit(validate["argv"], tmp_path)
    assert checks.check_oneshot(validate, data) == []
    assert checks.check_oneshot(validate, data.replace(b",true,", b",false,", 1))


def test_tracer_installs_and_restores():
    original = sweeps.scatter
    before = tracing.count_wrapped()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.count_wrapped() > before == 0
        assert sweeps.scatter is not original
        tracer.disable()
        assert sweeps.scatter is original and tracing.count_wrapped() == 0
        tracer.enable()
        sweeps.faraday_sweep(sweeps.SweepSpec(
            preset=workloads.EASY, variable=sweeps.SweepVariable.FARADAY_ANGLE,
            lo=0.1, hi=1.0, count=5))
    finally:
        tracer.uninstall()
    assert sweeps.scatter is original and tracing.count_wrapped() == 0
    dump = {"names": tracer.names, "raised": [], "warned": [], "name_id": tracer.name_id,
            "parent": tracer.parent, "start": tracer.start, "end": tracer.end,
            "weight": tracer.weight}
    layers = tracing.layer_metrics([dump])
    assert layers["scattering.points"] == 5
    assert layers["presets.assemble_calls"] == 1
    assert layers["closed_forms.calls"] == 5
    assert layers["magnon.calls"] == 0 and layers["invariants.self_ms"] == 0
    top = [i for i, p in enumerate(tracer.parent) if p < 0]
    total_ms = sum(tracer.end[i] - tracer.start[i] for i in top) / 1e6
    self_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert self_ms + layers["scattering.solve_ms"] + layers["scattering.cond_ms"] == (
        pytest.approx(total_ms, rel=1e-9))


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_wraps_only_when_traced(tmp_path, trace):
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "run", "--workload", "design-scan",
         "--seed", "1", "--seconds", "0.3", "--trace", str(trace),
         "--rundir", str(tmp_path)],
        env=_env(), check=True, timeout=120)
    report = json.loads((tmp_path / "worker.json").read_text())
    assert (report["wrapped_bindings"] > 0) == bool(trace)
    assert any("untraced_ns" in r for r in report["ops"]) == bool(trace)
    assert report["ops"] and all(r["verdict"] == "ok" for r in report["ops"])
    probe = report["known_defects"]
    assert len(probe) == workloads.DEFECT_OPS
    assert all(r["verdict"] != "unexplained" for r in probe)
    assert any(r["verdict"] == "sweep-drops-override" for r in probe)


def test_driver_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(), capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == b""

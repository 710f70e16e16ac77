"""Benchmark worker process; started by ``run.py``, never by hand.

Modes:

* ``setup``: cold start.  Imports ``afm_transducer.cli``, runs one
  ``efficiency`` command (first config resolution and first solve) and
  prints ``ready <import_ns>``.
* ``run``: the timed loop of an in-process workload, through ``cli.main``
  and ``find_optimal_thickness``; with ``--trace 1`` the layer functions
  are wrapped during the loop, and every few operations one is repeated
  unwrapped to price the tracing overhead.  With ``--segments n`` the loop
  prints ``pause`` n - 1 times and waits for ``go`` on stdin, so that the
  driver can spread its cold starts over the run.  After the loop,
  design-scan runs the known-defect probe untimed and unwrapped.  Output
  checks run last.  Writes ``worker.json`` into the run directory.
* ``check``: checks the outputs the driver collected from CLI subprocesses.
* ``cli``: traced CLI entry; installs the wrappers, calls ``cli.main`` with
  the remaining arguments, writes the spans and exits with its status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import DEFECT_OPS, DENSE_POINTS, DIGEST_OPS, make_defect_op, make_op

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    import afm_transducer
    import afm_transducer.cli

    if SRC.resolve() not in Path(afm_transducer.__file__).resolve().parents:
        raise SystemExit(f"afm_transducer imported from {afm_transducer.__file__}, not {SRC}")
    return afm_transducer, afm_transducer.cli


def _optimizer_result(found) -> dict:
    return {
        "thickness_m": float(found.thickness),
        "eta": float(found.eta),
        "cooperativity_ratio": float(found.cooperativity_ratio),
        "log_eta_second_difference": float(found.log_eta_second_difference),
    }


def _pause() -> None:
    """Hand control to the driver (which runs a cold start) and wait for it."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("driver went away")


def _execute(package, cli, op: dict, path: Path) -> dict:
    """Run one operation; only the call itself sits between the clock reads."""
    clock = time.perf_counter_ns
    returncode = found = error = None
    if op["kind"] == "optimize":
        t0 = clock()
        try:
            found = package.find_optimal_thickness(
                op["preset"], lo_mm=op["lo_mm"], hi_mm=op["hi_mm"], rel_tol=op["rel_tol"])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
    else:
        argv = op["argv"] + ["--output", str(path)]
        t0 = clock()
        try:
            returncode = cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
    return {
        "latency_ns": t1 - t0, "returncode": returncode,
        "result": _optimizer_result(found) if found is not None else None,
        "error": error,
    }


def timed_loop(package, cli, workload: str, seed: int, outdir: Path, seconds: float,
               segments: int = 1, tracer=None) -> list[dict]:
    """Run operations back to back for ``seconds`` of loop time.

    The loop pauses at each of the ``segments - 1`` segment boundaries (see
    :func:`_pause`).  With a ``tracer``, every ``tracing.PAIR_EVERY``-th
    operation is repeated right away with the wrappers off, and that
    latency is stored as ``untraced_ns``.  Neither pauses nor repeats count
    against ``seconds``.
    """
    import tracing

    outdir.mkdir(parents=True, exist_ok=True)
    clock = time.perf_counter_ns
    records = []
    budget = int(seconds * 1e9)
    elapsed, segment = 0, 1
    while elapsed < budget:
        if elapsed >= budget * segment // segments:
            _pause()
            segment += 1
        loop_t0 = clock()
        index = len(records)
        op = make_op(workload, seed, index)
        record = {"index": index, **_execute(package, cli, op, outdir / f"op{index:06d}.csv")}
        records.append(record)
        elapsed += clock() - loop_t0
        if tracer is not None and index % tracing.PAIR_EVERY == 0:
            tracer.disable()
            repeat = outdir / f"untraced{index:06d}.csv"
            record["untraced_ns"] = _execute(package, cli, op, repeat)["latency_ns"]
            repeat.unlink(missing_ok=True)
            tracer.enable()
    return records


def run_defect_probe(package, cli, seed: int, outdir: Path) -> list[dict]:
    """Run every operation of the known-defect probe once, untimed."""
    outdir.mkdir(parents=True, exist_ok=True)
    return [{"index": index, **_execute(package, cli, make_defect_op(seed, index),
                                        outdir / f"op{index:06d}.csv")}
            for index in range(DEFECT_OPS)]


def verify_records(workload: str, seed: int, outdir: Path, records: list[dict],
                   make=make_op, digest_ops: int | None = None) -> dict:
    """Check every record's output, hash the first outputs, delete the files."""
    import checks

    digest = hashlib.sha256()
    if digest_ops is None:
        digest_ops = DIGEST_OPS[workload]
    digest_ops = min(digest_ops, len(records))
    for record in records:
        op = make(workload, seed, record["index"])
        path = outdir / f"op{record['index']:06d}.csv"
        data = path.read_bytes() if path.exists() else None
        if record["error"] is not None:
            verdict, problems, rows = "unexplained", [record["error"]], 0
        elif op["kind"] != "optimize" and data is None:
            verdict, problems, rows = "unexplained", ["no output"], 0
        else:
            verdict, problems, rows = checks.verify(
                workload, op, record["returncode"], data, record["result"], DENSE_POINTS)
        if record["index"] < digest_ops:
            digest.update(data if data is not None else
                          json.dumps(record["result"], sort_keys=True).encode())
        record.update(verdict=verdict, problems=problems[:3], rows=rows)
        if path.exists():
            path.unlink()
    return {"digest": digest.hexdigest(), "digest_ops": digest_ops}


def environment() -> dict:
    import platform

    import numpy

    blas = getattr(numpy, "__config__", None)
    try:
        blas_version = blas.CONFIG["Build Dependencies"]["blas"]["version"]
        blas_name = blas.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas_name, blas_version = "unknown", "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas_name} {blas_version}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _setup(args) -> int:
    t0 = time.perf_counter_ns()
    _, cli = _import_cli()
    import_ns = time.perf_counter_ns() - t0
    status = cli.main(["efficiency", "--preset", args.preset, "--output", str(args.output)])
    print(f"ready {import_ns}", flush=True)
    return status


def _run(args) -> int:
    import tracing

    package, cli = _import_cli()
    rundir = Path(args.rundir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    report = {"wrapped_bindings": tracing.count_wrapped()}
    try:
        records = timed_loop(package, cli, args.workload, args.seed, rundir / "ops",
                             args.seconds, args.segments, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(rundir / "spans-worker")
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update(verify_records(args.workload, args.seed, rundir / "ops", records))
    report["ops"] = records
    if args.workload == "design-scan":
        defects = run_defect_probe(package, cli, args.seed, rundir / "defects")
        verify_records(args.workload, args.seed, rundir / "defects", defects,
                       make=lambda _, seed, index: make_defect_op(seed, index), digest_ops=0)
        report["known_defects"] = defects
    report["environment"] = environment()
    (rundir / "worker.json").write_text(json.dumps(report))
    return 0


def _check(args) -> int:
    _import_cli()
    rundir = Path(args.rundir)
    records = json.loads((rundir / "manifest.json").read_text())
    report = verify_records(args.workload, args.seed, rundir / "ops", records)
    report["ops"] = records
    report["environment"] = environment()
    (rundir / "check.json").write_text(json.dumps(report))
    return 0


def _traced_cli(args) -> int:
    import tracing

    _, cli = _import_cli()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status = cli.main(args.argv)
    finally:
        tracer.uninstall()
        tracer.dump(Path(args.spans))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--preset", required=True)
    setup.add_argument("--output", required=True)
    for name in ("run", "check"):
        mode = sub.add_parser(name)
        mode.add_argument("--workload", required=True)
        mode.add_argument("--seed", type=int, required=True)
        mode.add_argument("--rundir", required=True)
        mode.add_argument("--seconds", type=float, default=0.0)
        mode.add_argument("--trace", type=int, choices=(0, 1), default=0)
        mode.add_argument("--segments", type=int, default=1)
    traced = sub.add_parser("cli")
    traced.add_argument("--spans", required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"setup": _setup, "run": _run, "check": _check, "cli": _traced_cli}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark driver for afm_transducer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is loaded from its
``src/`` directory.  Workloads (see ``workloads.WHY`` for why each exists):

* ``sweep-dense``: 4,001-point probe-detuning sweeps through ``cli.main``;
* ``design-scan``: short Faraday/thickness/layer-count sweeps through
  ``cli.main`` interleaved with ``find_optimal_thickness`` calls;
* ``cli-oneshot``: ``python -m afm_transducer.cli`` subprocesses running
  ``modes``, ``couplings``, ``efficiency`` and ``validate``.

Load shape: this one driver process, closed loop, one client, no threads.
In-process workloads run in one worker subprocess; ``cli-oneshot`` runs one
CLI subprocess at a time.  Every worker runs with ``OPENBLAS_NUM_THREADS=1``.
Only the benchmark's own processes are measured, and nothing outside them
is tuned.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
``setup_s`` (median of several cold starts of the workload's worker, spread
over the run at the timed loop's segment boundaries),
``ops_per_s``, ``points_per_s`` (rows emitted per second), ``op_p50_ms``,
``op_tail_ms`` (the highest order statistic with ten samples above it)
and ``peak_rss_mb``.  With ``--trace 1`` it carries the per-layer figures
of a traced run and the tracing overhead.  The lines before it are a
readable report: every metric with its unit, fail_ratio with its
breakdown, the environment and the output digest.

The timed workloads hold only inputs the program gets right, so
``failed`` counts regressions.  The two known defects (see ``checks.py``)
are exercised by design-scan's known-defect probe, a fixed set of
operations run untimed after the loop; its share of failures is reported
beside fail_ratio and is not counted in ``attempted`` or ``failed``.
A failure of the probe that is not one of those defects makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import EASY, WHY, WORKLOADS, make_op  # noqa: E402

COLD_STARTS = 11
DEADLINE_S = 170.0
LOAD_SHAPE = ("one driver process, closed loop, one client, no threads; "
              "in-process workloads in one worker process, cli-oneshot one subprocess at a time")
SCOPE = ("only the benchmark's own processes were measured; nothing outside them "
         "(machine, cgroup, kernel settings) was tuned or measured")


class BenchError(RuntimeError):
    pass


class Driver:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, rundir: Path):
        self.workload, self.seed, self.seconds, self.rundir = workload, seed, seconds, rundir
        self.trace = trace
        self.oneshot = workload == "cli-oneshot"
        self.probes: list[tuple[float, float | None]] = []
        self.interpreter: list[float] = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.python = sys.executable
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.env = env

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark ran past its deadline")
        return left

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        # Output is always piped: with a timeout and no pipes, Popen.wait polls
        # with sleeps of up to 50 ms, which would quantise the timings.
        return subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=self._remaining(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def _worker(self, *args: str) -> list[str]:
        return [self.python, str(BENCH / "worker.py"), *args]

    def cold_start(self) -> tuple[float, float]:
        """Seconds from spawn to the first solve done, and the import in ms."""
        cmd = self._worker("setup", "--preset", EASY,
                           "--output", str(self.rundir / "setup.csv"))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        line = []
        try:
            if select.select([proc.stdout], [], [], self._remaining())[0]:
                line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line[:1] != [b"ready"]:
            raise BenchError(f"cold start failed with exit code {proc.returncode}")
        return elapsed, int(line[1]) / 1e6

    def cli_cold_start(self) -> float:
        """Seconds for one fresh ``python -m afm_transducer.cli efficiency``."""
        t0 = time.perf_counter()
        proc = self._run([self.python, "-m", "afm_transducer.cli", "efficiency",
                          "--preset", EASY])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"CLI cold start failed with exit code {proc.returncode}")
        return elapsed

    def probe(self) -> None:
        """One counted cold start: the CLI itself for cli-oneshot, else a worker.

        Traced runs always start a worker, which also reports its import time,
        and time one bare interpreter start beside it.
        """
        if self.oneshot and not self.trace:
            self.probes.append((self.cli_cold_start(), None))
        else:
            self.probes.append(self.cold_start())
        if self.trace:
            self.interpreter.append(self.interpreter_start())

    def interpreter_start(self) -> float:
        t0 = time.perf_counter()
        proc = self._run([self.python, "-c", "pass"])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"interpreter start failed with exit code {proc.returncode}")
        return elapsed

    def run_in_process(self) -> dict:
        """Run the worker's timed loop, taking a cold start at each of its pauses."""
        proc = subprocess.Popen(self._worker(
            "run", "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--trace", str(int(self.trace)),
            "--segments", str(COLD_STARTS), "--rundir", str(self.rundir)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            while select.select([proc.stdout], [], [], self._remaining())[0]:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == b"pause":
                    self.probe()
                    proc.stdin.write(b"go\n")
                    proc.stdin.flush()
            proc.stdin.close()
            proc.wait(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        report = json.loads((self.rundir / "worker.json").read_text())
        if self.trace:
            report["spans"] = [self.rundir / "spans-worker"]
        return report

    def _cli(self, op: dict, path: Path, traced: bool) -> tuple[int, int]:
        """One CLI subprocess writing its stdout to ``path``: (latency ns, exit code)."""
        if traced:
            cmd = self._worker("cli", "--spans", str(path.with_suffix("")), "--", *op["argv"])
        else:
            cmd = [self.python, "-m", "afm_transducer.cli", *op["argv"]]
        t0 = time.perf_counter_ns()
        proc = self._run(cmd)
        t1 = time.perf_counter_ns()
        path.write_bytes(proc.stdout)
        return t1 - t0, proc.returncode

    def _oneshot_loop(self, outdir: Path) -> list[dict]:
        """CLI subprocesses one at a time, with a cold start at each segment boundary.

        Traced, every ``tracing.PAIR_EVERY``-th command is repeated untraced
        right after it; pauses and repeats do not count against the run time.
        """
        outdir.mkdir(parents=True, exist_ok=True)
        clock = time.perf_counter_ns
        records = []
        budget = int(self.seconds * 1e9)
        elapsed, segment = 0, 1
        while elapsed < budget:
            if elapsed >= budget * segment // COLD_STARTS:
                self.probe()
                segment += 1
            loop_t0 = clock()
            index = len(records)
            op = make_op("cli-oneshot", self.seed, index)
            latency, returncode = self._cli(op, outdir / f"op{index:06d}.csv", self.trace)
            records.append({"index": index, "latency_ns": latency,
                            "returncode": returncode, "result": None, "error": None})
            elapsed += clock() - loop_t0
            if self.trace and index % tracing.PAIR_EVERY == 0:
                repeat = outdir / f"untraced{index:06d}.csv"
                records[-1]["untraced_ns"] = self._cli(op, repeat, traced=False)[0]
                repeat.unlink()
        return records

    def run_oneshot(self) -> dict:
        outdir = self.rundir / "ops"
        records = self._oneshot_loop(outdir)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        (self.rundir / "manifest.json").write_text(json.dumps(records))
        proc = self._run(self._worker(
            "check", "--workload", self.workload, "--seed", str(self.seed),
            "--rundir", str(self.rundir)))
        if proc.returncode != 0:
            raise BenchError(f"checker failed with exit code {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        report = json.loads((self.rundir / "check.json").read_text())
        report["peak_rss_kb"] = peak_rss_kb
        if self.trace:
            report["spans"] = [outdir / f"op{r['index']:06d}" for r in records]
        return report


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(report: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = report["ops"]
    latencies_ms = [r["latency_ns"] / 1e6 for r in ops]
    timed_s = sum(latencies_ms) / 1e3
    failed = sum(r["verdict"] != "ok" for r in ops)
    tail_ms, tail_pct = tail(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / timed_s, "1/s"),
        "points_per_s": (sum(r["rows"] for r in ops) / timed_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    detail = {
        "fail_ratio": failed / len(ops),
        "op_tail": {"percentile": round(tail_pct, 2), "samples": len(ops),
                    "beyond": 10 if len(ops) > 10 else 0},
        "setup_cold_starts_s": setup,
    }
    return metrics, detail


def per_layer(report: dict, interpreter: list[float], imports_ms: list[float]) -> dict:
    ops = report["ops"]
    layers = tracing.layer_metrics([tracing.load(p) for p in report["spans"]])
    paired = [r for r in ops if "untraced_ns" in r]
    traced = sum(r["latency_ns"] for r in paired)
    untraced = sum(r["untraced_ns"] for r in paired)
    metrics = {
        "cli.interpreter_ms": (statistics.median(interpreter) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports_ms), "ms"),
    }
    for name in tracing.PER_LAYER_NAMES:
        unit = "ms" if name.endswith("_ms") else ("B" if name == "output.bytes" else "count")
        metrics[name] = (layers[name], unit)
    metrics["presets.assembles_per_op"] = (layers["presets.assemble_calls"] / len(ops), "count/op")
    calls = layers["optimizer_calls"]
    metrics["sweeps.optimizer_evals"] = (
        layers["optimizer_points"] / calls if calls else 0.0, "count/call")
    metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    metrics["trace.ops"] = (len(ops), "count")
    return metrics


def print_report(workload: str, seed: int, seconds: float, trace: bool,
                 metrics: dict, detail: dict, report: dict) -> None:
    ops = report["ops"]
    breakdown = {}
    for r in ops:
        breakdown[r["verdict"]] = breakdown.get(r["verdict"], 0) + 1
    first_problems = {}
    for r in ops:
        if r["verdict"] != "ok" and r["verdict"] not in first_problems:
            first_problems[r["verdict"]] = r["problems"][:1]
    defects = report.get("known_defects")
    if defects is not None:
        verdicts = {}
        for r in defects:
            verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
        detail = {**detail, "known_defect_probe": {
            "ops": len(defects),
            "fail_ratio": sum(r["verdict"] != "ok" for r in defects) / len(defects),
            "verdicts": verdicts,
        }}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"why: {WHY[workload]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if "fail_ratio" in detail:
        print(f"  {'fail_ratio':<30} {detail['fail_ratio']:>16.6g} ratio")
    print("detail: " + json.dumps({
        **detail,
        "verdicts": breakdown,
        "first_problem_per_verdict": first_problems,
        "digest_sha256": report["digest"],
        "digest_ops": report["digest_ops"],
        "environment": report["environment"],
        "load_shape": LOAD_SHAPE,
        "scope": SCOPE,
    }, indent=1))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload, print its report and return the result object."""
    rundir = ROOT / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        driver = Driver(workload, seed, seconds, trace, rundir)
        # one uncounted cold start compiles the bytecode caches
        driver.cli_cold_start() if driver.oneshot else driver.cold_start()
        # the timed loop takes COLD_STARTS - 1 cold starts at its segment boundaries
        report = driver.run_oneshot() if driver.oneshot else driver.run_in_process()
        while len(driver.probes) < COLD_STARTS:
            driver.probe()
        if trace:
            metrics = per_layer(report, driver.interpreter, [ms for _, ms in driver.probes])
            detail = {}
        else:
            metrics, detail = end_to_end(report, [s for s, _ in driver.probes])
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError,
            ZeroDivisionError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = report["ops"]
    failed = sum(r["verdict"] != "ok" for r in ops)
    # the probe may fail only by the known defects (see checks.py)
    unexplained = [r for r in report.get("known_defects", []) if r["verdict"] == "unexplained"]
    print_report(workload, seed, seconds, trace, metrics, detail, report)
    return {
        "correct": bool(ops) and not failed and not unexplained and report["digest_ops"] > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="afm_transducer benchmark driver")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afm_transducer" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'afm_transducer'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # every workload in turn; the last line then names metrics <workload>/<metric>
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if results[workload] is None:
            return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

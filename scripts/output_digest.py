#!/usr/bin/env python3
"""Print one sha256 over everything the program writes on a fixed grid of runs.

Usage:
    PYTHONPATH=src python scripts/output_digest.py [--runs]

The grid runs ``afm_transducer.cli.main`` in-process 576 times: three
presets, six override sets and both formats, each through ``modes``,
``couplings``, ``efficiency``, ``validate`` and a sweep of each of the
four sweep variables at 3, 401 and 4,001 points.  It then renders the
five default sweeps of ``scripts/reproduce_sweeps.py`` as CSV and runs
``find_optimal_thickness``.  Each run adds its label, exit code, stdout
bytes, stderr bytes and warning texts to the digest, so two checkouts
that print the same digest write the same bytes, exit with the same
codes and warn with the same words on every run.  ``--runs`` also prints
one short digest per run, to find the run where two checkouts differ.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import warnings

from afm_transducer.cli import main as cli_main
from afm_transducer.output import render_csv
from afm_transducer.sweeps import (
    SweepSpec,
    SweepVariable,
    detuning_sweep,
    faraday_sweep,
    find_optimal_thickness,
    heterostructure_projection,
    thickness_sweep_with_cavity,
    thickness_sweep_without_cavity,
)

PRESETS = ("mnf2-easyaxis-20GHz", "mnf2-degenerate-250GHz", "mnf2-nocavity-20GHz")
_RATES = ("kappa_ee_hz", "kappa_ei_hz", "kappa_oe_hz", "kappa_oi_hz",
          "gamma_alpha_hz", "gamma_beta_hz")
OVERRIDE_SETS = (
    (),
    ("gamma_beta_hz=37 MHz",),
    ("kappa_ee_hz=250 MHz", "kappa_ei_hz=40 MHz", "gamma_alpha_hz=75 MHz"),
    ("n_cav=3e6", "delta_omega_o_hz=-20.001 GHz", "g0_slope_mhz_per_sqrt_ghz=0.2"),
    ("thickness_mm=0.002", "layer_count=3", "b0_t=0.5"),
    # nearly lossless: the resonant detuning point warns as ill-conditioned
    tuple(f"{key}=1 mHz" for key in _RATES),
)
ONE_SHOT = ("modes", "couplings", "efficiency", "validate")
SWEEPS = (
    ("probe-detuning", -2e9, 2e9, "linear"),
    ("faraday-angle", 1e-2, 1.0, "log"),
    ("thickness", 1e-6, 1.0, "log"),
    ("layer-count", 1.0, 5000.0, "log"),
)
COUNTS = (3, 401, 4001)


def grid():
    """Yield the argv of every CLI run, in a fixed order."""
    for preset in PRESETS:
        for sets in OVERRIDE_SETS:
            for fmt in ("csv", "json"):
                common = ["--preset", preset, "--format", fmt]
                for assignment in sets:
                    common += ["--set", assignment]
                for command in ONE_SHOT:
                    yield [command, *common]
                for variable, lo, hi, scale in SWEEPS:
                    for count in COUNTS:
                        yield ["sweep", *common, "--set", f"sweep_variable={variable}",
                               "--set", f"sweep_lo={lo!r}", "--set", f"sweep_hi={hi!r}",
                               "--set", f"sweep_count={count}", "--set", f"sweep_scale={scale}"]


def capture(run):
    """Exit code, stdout bytes, stderr bytes and warning texts of one call."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run()
        stdout.flush()
    texts = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue().encode("utf-8"), texts


def library_runs():
    """The default sweeps as CSV, then the optimum, as (label, run) pairs."""
    detuning = SweepSpec(preset="mnf2-easyaxis-20GHz", variable=SweepVariable.PROBE_DETUNING,
                         lo=-2e9, hi=2e9, count=401, scale="linear")
    sweeps = (
        ("faraday_sweep", faraday_sweep),
        ("thickness_sweep_with_cavity", thickness_sweep_with_cavity),
        ("thickness_sweep_without_cavity", thickness_sweep_without_cavity),
        ("heterostructure_projection", heterostructure_projection),
        ("detuning_sweep", lambda: detuning_sweep(detuning)),
    )
    for label, sweep in sweeps:
        def run(sweep=sweep):
            result = sweep()
            sys.stdout.buffer.write(render_csv(result.columns, result.rows, result.provenance))
            return 0
        yield label, run

    def optimum():
        print(repr(find_optimal_thickness()))
        return 0
    yield "find_optimal_thickness", optimum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", action="store_true", help="print a digest per run too")
    args = parser.parse_args()
    runs = [(" ".join(argv), lambda argv=argv: cli_main(argv)) for argv in grid()]
    runs += list(library_runs())
    total = hashlib.sha256()
    for label, run in runs:
        code, out, err, texts = capture(run)
        one = hashlib.sha256()
        for part in (label.encode(), str(code).encode(), out, err, "\n".join(texts).encode()):
            one.update(len(part).to_bytes(8, "little"))
            one.update(part)
        total.update(one.digest())
        if args.runs:
            print(f"{one.hexdigest()[:16]}  exit {code}  {label}")
    print(f"{total.hexdigest()}  {len(runs)} runs")


if __name__ == "__main__":
    main()

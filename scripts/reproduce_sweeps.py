#!/usr/bin/env python3
"""Run the five headline sweeps and write their CSV artifacts.

Usage:
    python scripts/reproduce_sweeps.py [--outdir results]

Produces:
    faraday_angle.csv          efficiency vs Faraday-angle ratio
    thickness_with_cavity.csv  efficiency vs thickness, optical cavity
    thickness_no_cavity.csv    efficiency vs thickness, itinerant light
    heterostructure.csv        efficiency vs layer count
    detuning_response.csv      probe response around the locked point
"""

import argparse
from pathlib import Path

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


def write(result, path: Path) -> None:
    path.write_bytes(render_csv(result.columns, result.rows, result.provenance))
    print(f"wrote {path}  ({len(result)} rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    write(faraday_sweep(), args.outdir / "faraday_angle.csv")
    write(thickness_sweep_with_cavity(), args.outdir / "thickness_with_cavity.csv")
    write(thickness_sweep_without_cavity(), args.outdir / "thickness_no_cavity.csv")
    write(heterostructure_projection(), args.outdir / "heterostructure.csv")
    write(
        detuning_sweep(
            SweepSpec(
                preset="mnf2-easyaxis-20GHz",
                variable=SweepVariable.PROBE_DETUNING,
                lo=-2e9, hi=2e9, count=401, scale="linear",
            )
        ),
        args.outdir / "detuning_response.csv",
    )

    best = find_optimal_thickness()
    print(
        f"optimal thickness: {best.thickness * 1e3:.4e} mm, "
        f"eta = {best.eta:.4e}, C_om/C_em = {best.cooperativity_ratio:.4f}"
    )


if __name__ == "__main__":
    main()

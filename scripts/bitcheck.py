#!/usr/bin/env python3
"""Dump every output a speed-only change must leave bit for bit unchanged.

For the four headline cases at both resolutions: the trajectory and
scenario hashes, c*, a hash of every StepDiag field with their totals, and
a hash of the stored enthalpies; the same hashes of the solve-2d benchmark
scenario; and the `artifact_hashes` of `stefanlab run` on the benchmark's
cli-run INI.  Floats are written with repr and keys sorted, so equal
files mean equal bits.  Run it in two checkouts and compare the files:

    python scripts/bitcheck.py /tmp/before.json   # in the first checkout
    python scripts/bitcheck.py /tmp/after.json    # in the second one
    diff /tmp/before.json /tmp/after.json

`--size tiny` cuts every run to a few steps (c* then needs a longer horizon
than it has and is left out); it takes a few seconds.
"""
import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import CLI_INI  # noqa: E402
from stefanlab import cli, presets, studies  # noqa: E402
from stefanlab.solver import run_simulation  # noqa: E402

CASES = ("1d-p2", "1d-p3", "2d-p2", "2d-p3")
TINY_STEPS = 6
# StepDiag fields totalled over a run (flags count the steps that set them)
COUNTS = ("iterations", "linear_iterations", "backtracks", "used_fallback",
          "energy_decreased")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def trajectory_record(traj) -> dict:
    diags = [dataclasses.astuple(d) for d in traj.diagnostics]
    totals = {name: sum(getattr(d, name) for d in traj.diagnostics) for name in COUNTS}
    return {
        "trajectory_hash": traj.trajectory_hash(),
        "scenario_hash": traj.scenario.scenario_hash(),
        "enthalpy_hash": _sha(e.tobytes() for e in traj.enthalpies),
        "diag_hash": _sha([json.dumps([repr(v) for v in row]).encode() for row in diags]),
        "diag_totals": {"steps": len(diags), **totals,
                        "worst_residual": max((d.residual for d in traj.diagnostics),
                                              default=0.0)},
    }


def headline_records(name: str, size: str) -> dict:
    """Both resolutions of one headline case; c* only at full size."""
    if size == "tiny":
        out = {}
        for label, refine in (("coarse", False), ("fine", True)):
            sc = studies.headline_case(name, refine)
            sc = dataclasses.replace(sc, t_end=TINY_STEPS * sc.dt.value)
            out[label] = trajectory_record(run_simulation(sc))
        return out
    # run_headline_case keeps no trajectory: record each one it solves.
    trajs, real = [], studies.run_simulation

    def keep(scenario):
        trajs.append(real(scenario))
        return trajs[-1]

    studies.run_simulation = keep
    try:
        res = studies.run_headline_case(name)
    finally:
        studies.run_simulation = real
    return {label: {**trajectory_record(traj), "c_star": res[f"c_star_{label}"]}
            for label, traj in zip(("coarse", "fine"), trajs)}


def solve_2d_record(size: str) -> dict:
    nodes, t_end = (57, 0.05) if size == "full" else (17, TINY_STEPS * 2.5e-4)
    return trajectory_record(run_simulation(
        presets.twophase_2d(p=3.0, nodes=nodes, dt=2.5e-4, t_end=t_end)))


def cli_run_record(size: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "cli-run.ini"
        ini.write_text(CLI_INI.format(seed=1, extra="" if size == "full" else "t_end = 0.02\n"))
        code = cli.main(["run", str(ini), "--output", str(Path(tmp) / "out")])
        summary = json.loads((Path(tmp) / "out" / "summary.json").read_text())
    return {"exit_code": code, "trajectory_hash": summary["trajectory_hash"],
            "artifact_hashes": summary["artifact_hashes"]}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    record = {
        "size": args.size,
        "headline": {name: headline_records(name, args.size) for name in CASES},
        "solve-2d": solve_2d_record(args.size),
        "cli-run": cli_run_record(args.size),
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Dump every output a speed-only change must leave bit for bit unchanged.

For the four headline cases at both resolutions: the trajectory and
scenario hashes, c*, a hash of every StepDiag field with their totals, and
a hash of the stored enthalpies; the same hashes of the solve-2d benchmark
scenario; the `artifact_hashes` and the `summary.json` check entries of
`stefanlab run` on the benchmark's cli-run INI; and those of `stefanlab
run` with every check on the `bump-1d-p3` preset, where the weak Harnack
and decay checks measure a constant (the cli-run INI runs neither); and
those of a short 2D `stefanlab run` (`stefan-2d-p2-twophase`), whose
resolved config and snapshot index are the only 2D ones in the dump; and
those of a short `stefanlab run` with every check on
`stefan-1d-p3-twophase`, where the weak Harnack and decay checks cannot
measure and give no verdict, each with its note; and the trajectory hashes
and StepDiag totals of the first 40 steps of `stefan-1d-p2-onephase`, the
one preset with Dirichlet pins and line-search halvings, whose
`backtracks` total pins the rule that a rejected full step ends a polish.
Floats are written with repr and keys sorted, so equal files mean equal
bits.  Run it in two checkouts and compare the files:

    python scripts/bitcheck.py /tmp/before.json   # in the first checkout
    python scripts/bitcheck.py /tmp/after.json --against /tmp/before.json

With `--against OLD.json` the script, after writing its dump, exits 1 and
prints every key path at which the dump differs from OLD.json, one a line
in sorted key order, and exits 0 when the two files are byte-identical.

`--size tiny` cuts every run but the every-check, 2D, no-verdict and
Dirichlet ones, which take under a second, to a few steps (c* then needs a
longer horizon than it has and is left out); it takes a few seconds.
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
EVERY_CHECK_INI = f"""\
[scenario]
preset = bump-1d-p3

[modulus]
r0 = 0.2
center = 0.5

[checks]
run = {", ".join(studies.CHECKS)}
"""
TWO_D_INI = """\
[scenario]
preset = stefan-2d-p2-twophase
t_end = 0.05

[checks]
run = conservation, weakform, modulus
"""
DIRICHLET_STEPS = 40
NO_VERDICT_INI = f"""\
[scenario]
preset = stefan-1d-p3-twophase
t_end = 0.02

[checks]
run = {", ".join(studies.CHECKS)}
"""


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
        for label, level in (("coarse", 0), ("fine", 1)):
            sc = studies.headline_case(name, level)
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


def dirichlet_record() -> dict:
    sc = presets.make_preset("stefan-1d-p2-onephase")
    return trajectory_record(run_simulation(
        dataclasses.replace(sc, t_end=DIRICHLET_STEPS * sc.dt.value)))


def cli_run_record(ini_text: str) -> dict:
    """`stefanlab run` on the config `ini_text`: exit code, hashes and the
    `summary.json` entry of every check, which no artifact hash covers."""
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(ini_text)
        code = cli.main(["run", str(ini), "--output", str(Path(tmp) / "out")])
        summary = json.loads((Path(tmp) / "out" / "summary.json").read_text())
    return {"exit_code": code, "trajectory_hash": summary["trajectory_hash"],
            "artifact_hashes": summary["artifact_hashes"], "checks": summary["checks"]}


def _dump(record) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def differences(old, new, path: str = "") -> list[str]:
    """The key path (`["a"]["b"][0]`) of every place, in sorted key order,
    where the dumps of `old` and `new` differ: a key or list item in one only,
    or a differing leaf."""
    if _dump(old) == _dump(new):
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        found = []
        for key in sorted(old.keys() | new.keys()):
            at = f"{path}[{json.dumps(key)}]"
            found += differences(old[key], new[key], at) if key in old and key in new else [at]
        return found
    if isinstance(old, list) and isinstance(new, list):
        found = [f for i, (a, b) in enumerate(zip(old, new))
                 for f in differences(a, b, f"{path}[{i}]")]
        return found + [f"{path}[{i}]" for i in range(min(len(old), len(new)),
                                                     max(len(old), len(new)))]
    return [path or "(the whole dump)"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--against", metavar="OLD.json",
                    help="an earlier dump: exit 1 and print every differing key path "
                         "unless the new dump is byte-identical to it")
    args = ap.parse_args(argv)
    record = {
        "size": args.size,
        "headline": {name: headline_records(name, args.size) for name in CASES},
        "solve-2d": solve_2d_record(args.size),
        "cli-run": cli_run_record(
            CLI_INI.format(seed=1, extra="" if args.size == "full" else "t_end = 0.02\n")),
        "every-check": cli_run_record(EVERY_CHECK_INI),
        "two-d": cli_run_record(TWO_D_INI),
        "no-verdict": cli_run_record(NO_VERDICT_INI),
        "dirichlet": dirichlet_record(),
    }
    text = _dump(record)
    Path(args.out).write_text(text)
    if args.against is None:
        return 0
    old_text = Path(args.against).read_text()
    if old_text == text:
        print(f"identical to {args.against}")
        return 0
    paths = differences(json.loads(old_text), record) or ["its formatting"]
    print(f"differs from {args.against} at:", *paths, sep="\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())

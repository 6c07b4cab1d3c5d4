"""The three benchmark workloads and the correctness gates on their outputs.

Each workload drives stefanlab only through its public entry points
(``studies``, ``presets``, ``solver.run_simulation``, ``cli.main``):

* ``solve-1d``: ``studies.run_headline_case("1d-p2")``, the 1D p=2 two-phase
  headline at 81 and 161 nodes (1,440 + 2,880 steps).  Thousands of tiny
  steps, so per-call overhead in the step and the table lookups dominates.
* ``solve-2d``: ``solver.run_simulation`` on the refined 2D p=3 headline grid
  and step (57x57 nodes, dt=2.5e-4) with the horizon cut to 0.05 (200 steps).
  The sparse Newton solve dominates.
* ``cli-run``: ``cli.main(["run", ...])`` on a generated INI with six checks
  and a snapshot per stored step, the only workload where checks and
  artifact writing carry real weight.

``setup`` returns a ``Workload``: ``op`` runs one operation and ``check``
returns the gates it broke plus the values it measured on the way.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stefanlab import cli, presets, solver, studies

SIZES = ("full", "tiny")

CONSERVATION_TOL = 1e-10
MAX_PRINCIPLE_RTOL = 1e-10
C_STAR_RATIO = (0.5, 2.0)

CLI_INI = """\
[scenario]
preset = stefan-1d-p3-twophase
{extra}
[modulus]
r0 = 0.4
center = 0.5

[checks]
run = conservation, weakform, caccioppoli, truncation, classifier, modulus
seed = {seed}
"""


@dataclass
class Workload:
    op: Callable[[], object]
    # Gate failures of one operation's result, and values measured on it.
    check: Callable[[object], tuple[list[str], dict[str, float]]]
    seed_used: bool


def setup(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Build the inputs of workload ``name``; ``size="tiny"`` is for smoke tests."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if name == "solve-1d":
        return _solve_1d(size)
    if name == "solve-2d":
        return _solve_2d(size)
    if name == "cli-run":
        return _cli_run(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def field_gates(label: str, temps, totals) -> tuple[list[str], float]:
    """Enthalpy conservation and the discrete max principle on one run."""
    totals = np.asarray(totals, dtype=float)
    defect = float(np.max(np.abs(totals - totals[0])) / (1.0 + abs(totals[0])))
    failures = []
    if not defect <= CONSERVATION_TOL:
        failures.append(f"{label}: enthalpy drift {defect:.3e} > {CONSERVATION_TOL:g}")
    lo, hi = float(np.min(temps[0])), float(np.max(temps[0]))
    slack = MAX_PRINCIPLE_RTOL * max(1.0, abs(lo), abs(hi))
    low = min(float(np.min(u)) for u in temps)
    high = max(float(np.max(u)) for u in temps)
    if not (low >= lo - slack and high <= hi + slack):
        failures.append(f"{label}: u left [{lo:.17g}, {hi:.17g}] "
                        f"(min {low:.17g}, max {high:.17g})")
    return failures, defect


def trajectory_gates(label: str, traj) -> tuple[list[str], float]:
    return field_gates(label, traj.temps, solver.enthalpy_totals(traj))


class FirstSeen:
    """Remembers the first operation's outputs; later ones must match them."""

    def __init__(self):
        self._first: dict[str, object] = {}

    def compare(self, key: str, value) -> list[str]:
        first = self._first.setdefault(key, value)
        return [] if value == first else [f"{key} differs from the first operation"]


# ---------------------------------------------------------------------------
# solve-1d
# ---------------------------------------------------------------------------

def _solve_1d(size: str) -> Workload:
    # The tiny size runs the shorter 1d-p3 headline through the same entry point.
    case = "1d-p2" if size == "full" else "1d-p3"
    first = FirstSeen()

    def op():
        # run_headline_case keeps no trajectory; pass its solver entry point
        # through a function that stores what it returns, for the gates.
        trajs = []
        real = studies.run_simulation

        def keep(scenario):
            traj = real(scenario)
            trajs.append(traj)
            return traj

        studies.run_simulation = keep
        try:
            result = studies.run_headline_case(case)
        finally:
            studies.run_simulation = real
        return result, trajs

    def check(out):
        result, trajs = out
        failures = []
        ratio = result["stability_ratio"]
        lo, hi = C_STAR_RATIO
        if not (math.isfinite(ratio) and lo <= ratio <= hi):
            failures.append(f"c* refinement ratio {ratio!r} outside [{lo:g}, {hi:g}]")
        if len(trajs) != 2:
            failures.append(f"expected 2 solves, saw {len(trajs)}")
        defects = []
        for label, traj in zip(("coarse", "fine"), trajs):
            fails, defect = trajectory_gates(label, traj)
            failures += fails
            defects.append(defect)
        failures += first.compare("trajectory_hash", [t.trajectory_hash() for t in trajs])
        failures += first.compare("c_star", (result["c_star_coarse"], result["c_star_fine"]))
        return failures, {"conservation_defect": max(defects, default=0.0)}

    return Workload(op, check, seed_used=False)


# ---------------------------------------------------------------------------
# solve-2d
# ---------------------------------------------------------------------------

def _solve_2d(size: str) -> Workload:
    if size == "full":
        scenario = presets.twophase_2d(p=3.0, nodes=57, dt=2.5e-4, t_end=0.05)
    else:
        scenario = presets.twophase_2d(p=3.0, nodes=17, dt=2.5e-4, t_end=0.005)
    first = FirstSeen()

    def op():
        return solver.run_simulation(scenario)

    def check(traj):
        failures, defect = trajectory_gates("2d", traj)
        failures += first.compare("trajectory_hash", traj.trajectory_hash())
        return failures, {"conservation_defect": defect}

    return Workload(op, check, seed_used=False)


# ---------------------------------------------------------------------------
# cli-run
# ---------------------------------------------------------------------------

def _cli_run(seed: int, size: str, workdir: Path) -> Workload:
    """Every operation reruns one config into the same output directory.

    Rerunning a config rewrites its files in place, which is how a user
    repeats a run.  A fresh directory per operation would make the write
    time depend on how many files the filesystem freed recently: on ext4,
    creating files soon after deleting thousands of others costs several
    times more.  A marker written before each run lets the gate reject any
    artifact the run did not rewrite.
    """
    ini = workdir / "cli-run.ini"
    ini.write_text(CLI_INI.format(seed=seed, extra="" if size == "full" else "t_end = 0.02\n"))
    outdir = workdir / "out"
    marker = workdir / "op-start"
    first = FirstSeen()
    resolved = {}

    def op():
        marker.touch()
        return cli.main(["run", str(ini), "--output", str(outdir)])

    def check(code):
        if code != 0:
            return [f"stefanlab run exited {code}"], {}
        started = marker.stat().st_mtime_ns
        summary_path = outdir / "summary.json"
        summary = json.loads(summary_path.read_text())
        failures = []
        if summary.get("all_pass") is not True:
            failed = sorted(k for k, v in summary["checks"].items() if not v.get("pass"))
            failures.append(f"all_pass is not true (failed checks: {failed})")
        hashes = summary["artifact_hashes"]
        paths = [outdir / rel for rel in sorted(hashes)]
        for path, rel in zip(paths, sorted(hashes)):
            if hashlib.sha256(path.read_bytes()).hexdigest() != hashes[rel]:
                failures.append(f"{rel} does not match its hash in summary.json")
        stale = [p.name for p in paths + [summary_path] if p.stat().st_mtime_ns < started]
        if stale:
            failures.append(f"{len(stale)} artifacts not rewritten by this run, e.g. {stale[0]}")
        failures += first.compare("artifact_hashes", hashes)
        failures += first.compare("trajectory_hash", summary["trajectory_hash"])

        # Conservation and the max principle, recomputed from the snapshots.
        if "scenario" not in resolved:
            resolved["scenario"] = cli.parse_config(ini).scenario
        sc = resolved["scenario"]
        snaps = sorted(p for p in paths if p.suffix == ".bin" and p.parent.name == "snapshots")
        temps = [np.fromfile(p, dtype="<f8").reshape(sc.grid.shape) for p in snaps]
        vol = sc.grid.volume_weights()
        totals = [float(np.sum(sc.graph.enthalpy_of_temperature(u) * vol)) for u in temps]
        written = paths + [summary_path]
        values = {"artifact_files": len(written),
                  "artifact_bytes": sum(p.stat().st_size for p in written)}
        if len(temps) < 2:
            failures.append(f"expected a snapshot per stored step, found {len(temps)}")
        else:
            fails, values["conservation_defect"] = field_gates("snapshots", temps, totals)
            failures += fails
        return failures, values

    return Workload(op, check, seed_used=True)

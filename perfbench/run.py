#!/usr/bin/env python3
"""stefanlab benchmark: one workload, timed in fresh worker processes.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
A fresh worker process runs operations one at a time (a closed loop, BLAS
held to one thread) for ``--seconds`` and checks every output.  Before the
first operation and after each one it times a fresh process from its start
until its workload is ready; set-up time is the median of these samples.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every operation passed its gates.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "stefanlab"
WORKLOADS = ("solve-1d", "solve-2d", "cli-run")
SIZES = ("full", "tiny")
DEADLINE_S = 170.0
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_worker(args) -> dict:
    """Run the measured worker and return its report.

    The worker and the set-up probes it starts share one process group, so
    on the deadline, or on any way out of here, all of them are stopped.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    env = {**os.environ, **BLAS_ONE_THREAD}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the time limit") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def source_provenance() -> dict:
    files = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": {p.name: len(p.read_text().splitlines()) for p in files},
    }


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``kind`` metrics ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarize(args, report: dict, units: dict) -> dict:
    ops = report["ops"]
    setup_samples = report["setup_samples"]
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    failed = sum(bool(op["failures"]) for op in ops)
    for k, op in enumerate(ops):
        for failure in op["failures"]:
            print(f"FAIL op {k}: {failure}")
    print("provenance " + json.dumps({
        **report["provenance"], **source_provenance(), "workload": args.workload,
        "seed": args.seed, "seed_used": report["seed_used"], "size": args.size,
    }, sort_keys=True))
    print(f"{args.workload}: {len(ops)} operations, {failed} failed "
          f"(ops_failed {failed / len(ops):.3f}); wall_s median over {len(untraced)} "
          f"untraced operations; setup_s median over {len(setup_samples)} fresh processes")
    print("operation seconds: " + " ".join(
        f"{op['seconds']:.3f}{'(traced)' if op['traced'] else ''}" for op in ops))
    if setup_samples:
        print("set-up seconds: " + " ".join(f"{s:.3f}" for s in setup_samples))
    if args.trace:
        values = report["layers"]
        for line in trace_notes(values, statistics.median(untraced)):
            print(line)
    else:
        values = {"wall_s": statistics.median(untraced),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": report["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def trace_notes(layers: dict, wall_s: float) -> list[str]:
    """Every span's totals, and the splits each workload was chosen for."""
    spans = sorted((name[:-len(".self_s")] for name in layers if name.endswith(".self_s")),
                   key=lambda n: -layers[f"{n}.self_s"])
    lines = [f"span {n:24s} calls {layers[f'{n}.calls']:8.0f}  total {layers[f'{n}.s']:9.4f} s"
             f"  self {layers[f'{n}.self_s']:9.4f} s" for n in spans if layers[f"{n}.calls"]]
    checks = sum(layers[f"{n}.s"] for n in spans if n.startswith("verify."))
    share = {
        "energy+gradient": layers["solver.energy.s"] + layers["solver.gradient.s"],
        "linear solve": layers["linalg.solve.s"],
        "verify+snapshots": checks + layers["cli.snapshots.s"],
    }
    lines.append("share of untraced wall_s: " + ", ".join(
        f"{k} {v / wall_s:.3f}" for k, v in share.items()))
    lines.append(f"tracing overhead {layers['trace.overhead_s']:.3f} s on an untraced "
                 f"{wall_s:.3f} s operation")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no stefanlab sources under {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")

    try:
        report = run_worker(args)
    except (BenchError, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = summarize(args, report, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

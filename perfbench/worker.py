"""One benchmark process: set up a workload, then time its operations.

``run.py`` starts this file in a fresh interpreter for the measured run, so
import cost and peak memory belong to one workload.  The process prints
``ready`` on standard output once the workload is built; with ``--probe`` it
exits there.  Otherwise it runs operations in a closed loop and prints one
JSON report as its last line.  Without tracing, it also starts a ``--probe``
copy of itself before the first operation and after each one, and times each
copy from its start until ``ready``: these are the set-up samples, spread
over the whole run like the operations.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SETUP_OP, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench"
PROBE_TIMEOUT_S = 60.0


def time_setup(args) -> float:
    """Seconds from starting a ``--probe`` worker until its workload is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        if line.strip() != b"ready":
            proc.kill()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe did not become ready (exit {proc.returncode})")
    return elapsed


def measure(workload, seconds: float, tracer=None, between=None) -> list[dict]:
    """Run operations one at a time until the next one would overrun ``seconds``.

    With a tracer, odd-numbered operations run traced and even-numbered ones
    untraced, and at least one of each runs.  Gates are checked outside the
    timed region, with the tracer removed.  ``between``, when given, is
    called after each check; the check and ``between`` count toward
    ``seconds`` but not toward the operation's time.
    """
    records: list[dict] = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        cycle = time.perf_counter()
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.op = k
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.op()
            error = None
        except Exception as err:  # a raising operation is a failed one
            error = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                failures, values = workload.check(result)
            except Exception as err:  # an unreadable output fails its gates
                failures, values = [f"check raised {type(err).__name__}: {err}"], {}
            del result
        else:
            failures, values = [error], {}
        records.append({"seconds": elapsed, "traced": traced,
                        "failures": failures, "values": values})
        if between is not None:
            between()
        need_both = tracer is not None and len(records) < 2
        longest = max(longest, time.perf_counter() - cycle)
        if not need_both and time.perf_counter() - began + longest > seconds:
            return records


def layer_report(tracer, records: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the median over traced operations of each value.

    Every span name gets ``.calls``, ``.s`` and ``.self_s``; the solver
    statistics come from the ``StepDiag`` of each traced step.  A value the
    check of a failed operation did not produce counts as 0.
    """
    setup = tracer.layer_metrics(SETUP_OP)
    per_op = []
    for k, rec in enumerate(records):
        if not rec["traced"]:
            continue
        m = tracer.layer_metrics(k)
        steps = tracer.step_records(k)
        iters = sum(d.iterations for _, d in steps)
        unknowns, nnz = max(((math.prod(shape), _nnz(shape)) for shape, _ in steps),
                            default=(0, 0))
        trials = m.pop("linesearch.trials")
        values = rec["values"]
        m.update({
            "graphs.build.s": setup["graphs.build.s"] + m["graphs.build.s"],
            "linalg.solve.s": m["linalg.solve_banded.s"] + m["linalg.spsolve.s"],
            "solver.newton.iters": iters,
            "solver.newton.iters_per_step": iters / len(steps) if steps else 0.0,
            "solver.linesearch.accept_ratio": iters / trials if trials > 0 else 0.0,
            "solver.newton.fallbacks": sum(bool(d.used_fallback) for _, d in steps),
            "solver.newton.energy_increases": sum(not d.energy_decreased for _, d in steps),
            "solver.linsolve.unknowns": unknowns,
            "solver.linsolve.nnz": nnz,
            "solver.conservation_defect": values.get("conservation_defect", 0.0),
            "cli.artifacts.files": values.get("artifact_files", 0),
            "cli.artifacts.bytes": values.get("artifact_bytes", 0),
        })
        per_op.append(m)
    report = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    untraced = [r["seconds"] for r in records if not r["traced"]]
    traced = [r["seconds"] for r in records if r["traced"]]
    report["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return report


def _nnz(shape) -> int:
    """Nonzeros of the Newton matrix: the diagonal plus two per face."""
    n = math.prod(shape)
    return n + 2 * sum(n // s * (s - 1) for s in shape)


def provenance() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--probe", action="store_true",
                        help="exit once the workload is ready (a set-up sample)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tracer = Tracer() if args.trace and not args.probe else None
    # Kept between runs: cli-run rewrites its output directory in place.
    workdir = WORK_ROOT / f"{args.workload}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()  # graph construction during set-up is a span too
    try:
        workload = workloads.setup(args.workload, args.seed, args.size, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("ready", flush=True)
    if args.probe:
        return 0
    # Keep standard output for the report; anything the package prints goes
    # to standard error.
    out, sys.stdout = sys.stdout, sys.stderr
    setup_samples: list[float] = []

    def probe():
        setup_samples.append(time_setup(args))

    between = probe if tracer is None else None
    try:
        if between is not None:
            between()
        records = measure(workload, args.seconds, tracer, between)
    finally:
        sys.stdout = out
    report = {
        "workload": args.workload,
        "seed_used": workload.seed_used,
        "ops": records,
        "setup_samples": setup_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        report["layers"] = layer_report(tracer, records)
        tracer.write_csv(WORK_ROOT / f"trace-{args.workload}.csv")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write a BENCH_<n>.json.

    python scripts/bench.py BENCH_26.json --parent PARENT_DIR --change .

Pair k (k = 0 .. PAIRS - 1) runs, for each workload W that BENCHMARK.json
lists,

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

once in each checkout with N = SEED + k and S the file's `run_seconds`, the
parent first in even pairs and the change first in odd ones.  From each
run's standard output it keeps the `provenance` line, the `operation
seconds:` and `set-up seconds:` samples and the final JSON line; a run that
times out or prints no JSON result is kept as a failed run, with its exit
code and the end of its standard error.  Per workload the file holds every
run and, per end-to-end metric, each side's samples (one per run with a
result), median and quartiles, and the winner of each pair; per side the
operations failed and attempted and the runs failed; and per checkout the
sha256 of its `scripts/bitcheck.py --size tiny` dump.  The file is
rewritten after every pair, so an interrupted session keeps the pairs it
finished.  It changes no file in either checkout (perfbench keeps its
scratch files in the ignored `.perfbench/`).
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
SEED = 1
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def parse_run(stdout: str) -> dict:
    """The provenance, untraced operation seconds, set-up seconds and final
    JSON result of one `perfbench/run.py` run's standard output; the result
    is None when the last line is not a JSON object (perfbench prints its
    errors to standard error and no result)."""
    run = {"provenance": None, "operation_s": [], "setup_s": [], "result": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("provenance "):
            run["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("operation seconds:"):
            run["operation_s"] = [float(s) for s in line.split(":", 1)[1].split()
                                  if not s.endswith("(traced)")]
        elif line.startswith("set-up seconds:"):
            run["setup_s"] = [float(s) for s in line.split(":", 1)[1].split()]
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def quartiles(samples: list[float]) -> dict:
    if not samples:
        return {"median": None, "q1": None, "q3": None}
    if len(samples) == 1:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's samples and their quartiles, and
    each pair's winner ("tie" on equal values, None when a side has no
    result); per side the operations failed and attempted and the runs
    without a result.  `pairs` holds {"parent": run, "change": run}."""
    results = {side: [p[side]["result"] for p in pairs] for side in SIDES}
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] if r else None for r in results[side]]
                  for side in SIDES}
        winners = []
        for old, new in zip(values["parent"], values["change"]):
            if old is None or new is None:
                winners.append(None)
                continue
            gain = (old - new) if direction == "lower" else (new - old)
            winners.append("change" if gain > 0 else "parent" if gain < 0 else "tie")
        units = {r["metrics"][name]["unit"] for side in SIDES for r in results[side] if r}
        metrics[name] = {"unit": units.pop() if units else None, "better": direction,
                         "winners": winners}
        for side in SIDES:
            samples = [v for v in values[side] if v is not None]
            metrics[name][side] = {"samples": samples, **quartiles(samples)}
    totals = {side: {"failed": sum(r["failed"] for r in results[side] if r),
                     "attempted": sum(r["attempted"] for r in results[side] if r),
                     "runs_failed": sum(r is None for r in results[side])}
              for side in SIDES}
    return {"metrics": metrics, **totals}


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Its own session, so that a timeout also stops the worker processes
    # perfbench starts, not only perfbench itself.
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        run = parse_run("")
        run.update(exit_code=None, error=f"timed out after {RUN_TIMEOUT_S} s")
        return run
    run = parse_run(stdout)
    run["exit_code"] = proc.returncode
    if run["result"] is None:
        run["error"] = stderr.strip()[-2000:]
    return run


def bitcheck_sha256(checkout: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "bits.json"
        subprocess.run([sys.executable, "scripts/bitcheck.py", str(dump), "--size", "tiny"],
                       cwd=checkout, check=True, capture_output=True, timeout=RUN_TIMEOUT_S)
        return hashlib.sha256(dump.read_bytes()).hexdigest()


def host() -> dict:
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), None)
    return {"machine": platform.machine(), "cpu": cpu, "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    bitcheck = {side: bitcheck_sha256(checkout) for side, checkout in checkouts.items()}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(PAIRS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"pair": k, "seed": SEED + k, "first": order[0]}
            for side in order:
                run = pair[side] = perfbench(checkouts[side], workload, SEED + k, seconds)
                wall = (f"wall_s {run['result']['metrics']['wall_s']['value']:.3f}"
                        if run["result"] else f"failed: {run['error']}")
                print(f"pair {k} {workload} {side}: {wall}", flush=True)
            runs[workload].append(pair)

        sides = {}
        for side in SIDES:
            prov = next((p[side]["provenance"] for w in workloads for p in runs[w]
                         if p[side]["provenance"]), {})
            sides[side] = {"git_commit": prov.get("git_commit"),
                           "src_sha256": prov.get("src_sha256"),
                           "src_lines": sum((prov.get("src_lines") or {}).values()),
                           "bitcheck_tiny_sha256": bitcheck[side]}
        record = {
            "command": "perfbench/run.py --workload W --seed N --seconds S --trace 0",
            "pairs": k + 1, "seconds": seconds, "seed": SEED,
            "host": host(), "sides": sides,
            "workloads": {w: {**summarize(runs[w], better), "runs": runs[w]} for w in workloads},
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: tiny end-to-end runs, the correctness
gates, and that untraced operations run the package unwrapped."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    res = _run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    for key in ("wall_s", "setup_s"):
        if not trace:
            assert result["metrics"][key]["value"] > 0


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run_bench("--workload", "solve-2d", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


def _one_op(workload, op):
    return measure(dataclasses.replace(workload, op=op), seconds=0)[0]


def test_corrupted_trajectory_fails_its_gates(tmp_path):
    wl = workloads.setup("solve-2d", 0, "tiny", tmp_path)
    assert _one_op(wl, wl.op)["failures"] == []

    def drifted():
        traj = wl.op()
        traj.enthalpies[-1] = traj.enthalpies[-1] + 1e-6
        return traj

    def overshoot():
        traj = wl.op()
        traj.temps[-1] = traj.temps[-1].copy()
        traj.temps[-1].flat[0] = 10.0
        return traj

    failures = _one_op(wl, drifted)["failures"]
    assert any("enthalpy drift" in f for f in failures)
    failures = _one_op(wl, overshoot)["failures"]
    assert any("u left" in f for f in failures)
    assert any("trajectory_hash differs" in f for f in failures)


def test_corrupted_artifact_fails_its_gates(tmp_path):
    wl = workloads.setup("cli-run", 3, "tiny", tmp_path)
    assert _one_op(wl, wl.op)["failures"] == []
    snap = tmp_path / "out" / "snapshots" / "step_000001.bin"

    def flipped():
        code = wl.op()
        data = bytearray(snap.read_bytes())
        data[0] ^= 1
        snap.write_bytes(bytes(data))
        return code

    failures = _one_op(wl, flipped)["failures"]
    assert any("does not match its hash" in f for f in failures)

    def not_rewritten():
        code = wl.op()
        os.utime(snap, ns=(0, 0))
        return code

    failures = _one_op(wl, not_rewritten)["failures"]
    assert any("not rewritten by this run" in f for f in failures)


def test_raising_operation_counts_as_failed(tmp_path):
    wl = workloads.setup("solve-2d", 0, "tiny", tmp_path)

    def broken():
        raise RuntimeError("boom")

    assert _one_op(wl, broken)["failures"] == ["RuntimeError: boom"]


def test_untraced_operations_run_unwrapped(tmp_path):
    wl = workloads.setup("solve-2d", 0, "tiny", tmp_path)
    sites = [site for _, target in tracing.SITES for site in tracing.lookup_sites(target)]
    originals = [getattr(owner, attr) for owner, attr in sites]
    unwrapped = []

    def observed():
        unwrapped.append(all(getattr(owner, attr) is orig
                             for (owner, attr), orig in zip(sites, originals)))
        return wl.op()

    measure(dataclasses.replace(wl, op=observed), seconds=0)
    tracer = tracing.Tracer()
    records = measure(dataclasses.replace(wl, op=observed), seconds=0, tracer=tracer)
    assert [r["traced"] for r in records] == [False, True]
    assert unwrapped == [True, True, False]
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(sites, originals))
    assert tracer.layer_metrics(1)["solver.step.calls"] == 20
    assert tracer.layer_metrics(0)["spans"] == 0


def test_between_runs_after_each_checked_operation(tmp_path):
    wl = workloads.setup("solve-2d", 0, "tiny", tmp_path)
    events = []

    def op():
        events.append("op")
        return wl.op()

    def check(out):
        events.append("check")
        return wl.check(out)

    records = measure(dataclasses.replace(wl, op=op, check=check), seconds=0,
                      between=lambda: events.append("between"))
    assert len(records) == 1
    assert events == ["op", "check", "between"]

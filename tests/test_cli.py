"""CLI tests: config parsing and validation, end-to-end runs with
byte-identical re-execution, error exit codes, sweeps and preset listing."""

import configparser
import hashlib
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stefanlab import cli, presets, solver, studies
from stefanlab.graphs import BetaMap
from stefanlab.solver import run_simulation


BASE_CONFIG = """\
[scenario]
preset = stefan-1d-p2-twophase
nodes = 41
t_end = 0.02

[modulus]
r0 = 0.2
center = 0.5

[checks]
run = conservation, weakform, caccioppoli, truncation, modulus

[output]
directory = {outdir}
"""


# A small explicit 1D scenario; cases append keys to it.
_EXPLICIT = "[scenario]\ndim = 1\nnodes = 11\np = 3.0\nt_end = 0.002\ndt = 1e-3\n"
# Every check of `stefanlab run`.
_ALL_CHECKS = "[checks]\nrun = " + ", ".join(studies.CHECKS) + "\n"
# Configs inside every key's own domain that cannot run: a fixed dt of
# about 2e321 steps to t_end, initial data whose E(u) overflows, Dirichlet
# values whose E(u) overflows, initial data whose face energy |du/h|^p
# overflows, and an intrinsic dt of about 6e8 steps.
_TINY_DT = "[scenario]\ndim = 1\nnodes = 9\np = 2\nt_end = 0.01\ndt = 5e-324\n"
_HUGE_U = ("[scenario]\ndim = 1\nnodes = 9\np = 2\nt_end = 0.01\ndt = 0.002\n"
           "initial = constant\ninitial_params = value=1e300\n" + _ALL_CHECKS)
_HUGE_PIN = ("[scenario]\ndim = 1\nnodes = 9\np = 2\nt_end = 0.01\ndt = 0.002\n"
             "boundary = dirichlet:left=1e300,right=0\n" + _ALL_CHECKS)
_STEEP_U = ("[scenario]\ndim = 1\nnodes = 9\np = 8\nt_end = 0.01\ndt = 0.002\n"
            "initial = bump\ninitial_params = amplitude=1e60\n" + _ALL_CHECKS)
_TINY_SAFETY = ("[scenario]\ndim = 1\nnodes = 9\np = 2\nt_end = 0.01\n"
                "dt = intrinsic:safety=1e-9\n" + _ALL_CHECKS)


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _tree_hash(root: Path) -> str:
    """Hash of every output file except timings.json, whose wall times
    differ between reruns."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "timings.json":
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestValidate:
    def test_valid_config(self, tmp_path):
        path = _write(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
        assert cli.main(["validate", str(path)]) == 0

    def test_missing_required_field_named(self, tmp_path, capsys):
        path = _write(tmp_path, "[scenario]\nnodes = 41\nt_end = 0.01\ndt = 1e-3\n")
        assert cli.main(["validate", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["field"] == "scenario.p"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, "[scenario]\npreset = constant\nwibble = 1\n")
        assert cli.main(["validate", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["field"] == "scenario.wibble"

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path, "[scenario]\npreset = constant\n\n[bogus]\nx = 1\n")
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_preset_alone_is_the_preset(self, tmp_path, name):
        sc = cli.parse_config(_write(tmp_path, f"[scenario]\npreset = {name}\n")).scenario
        base = presets.make_preset(name)
        assert sc.canonical_dict() == base.canonical_dict()
        assert sc.label == base.label

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_preset_keys_replace_the_preset_values(self, tmp_path, name):
        # A key means the same with or without a preset: every preset takes
        # mollify_eps, an intrinsic dt and a node count.
        path = _write(tmp_path, f"[scenario]\npreset = {name}\nnodes = 21\nmollify_eps = 0.07\n"
                                "latent_heat = 0.6\nt_end = 0.01\ndt = intrinsic:safety=0.3\n"
                                "store_every = 2\nlabel = mine\n")
        assert cli.main(["validate", str(path)]) == 0
        sc, base = cli.parse_config(path).scenario, presets.make_preset(name)
        assert sc.grid == solver.Grid(base.grid.dim, 21, base.grid.extent)
        assert (sc.graph.a, sc.graph.beta) == (base.graph.a, base.graph.beta)
        assert (sc.graph.eps, sc.graph.latent_heat) == (0.07, 0.6)
        assert sc.dt == solver.DtPolicy(kind="intrinsic", safety=0.3)
        assert (sc.t_end, sc.store_every, sc.label) == (0.01, 2, "mine")
        assert (sc.p, sc.field, sc.initial, sc.boundary) == (
            base.p, base.field, base.initial, base.boundary)

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    def test_preset_takes_the_other_dim(self, tmp_path, name):
        # The preset's node count and extent hold on every axis; a 1D
        # preset's Dirichlet values hold on axis 0 and 0 on axis 1.
        base = presets.make_preset(name)
        dim = 3 - base.grid.dim
        path = _write(tmp_path, f"[scenario]\npreset = {name}\ndim = {dim}\n")
        assert cli.main(["validate", str(path)]) == 0
        sc = cli.parse_config(path).scenario
        assert sc.grid == solver.Grid(dim, base.grid.nodes, base.grid.extent)
        assert sc.field.weights == (1.0,) * dim
        if base.boundary.kind == "dirichlet":
            assert sc.boundary.values == (*base.boundary.values, (0.0, 0.0))[:dim]

    @pytest.mark.parametrize("key, text, value", [
        ("scenario.nodes", "41.0", 41), ("scenario.nodes", "1e1", 10),
        ("scenario.store_every", "2.0", 2), ("scenario.dim", "1.0", 1),
        ("checks.seed", "5.0", 5), ("output.snapshot_stride", "2.0", 2),
        ("modulus.ladder_depth", "3.0", 3)],
        ids=["nodes", "nodes-exponent", "store_every", "dim", "seed", "snapshot_stride",
             "ladder_depth"])
    def test_integer_keys_take_integral_floats(self, tmp_path, key, text, value):
        section, name = key.split(".")
        header = "" if section == "scenario" else f"[{section}]\n"
        path = _write(tmp_path, f"[scenario]\npreset = constant\n{header}{name} = {text}\n")
        assert cli.main(["validate", str(path)]) == 0
        assert cli.parse_config(path).values[section][name] == value

    def test_unknown_check_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "[scenario]\npreset = constant\n\n[checks]\nrun = sorcery\n")
        assert cli.main(["validate", str(path)]) == 2

    def test_explicit_scenario_keys(self, tmp_path):
        text = """\
[scenario]
dim = 1
nodes = 31
p = 3.0
latent_heat = 0.8
jump_location = 0.7
mollify_eps = 0.05
beta = tanh:0.4,0.5
field = anisotropic:1.0
initial = bump
initial_params = base=0.2, amplitude=0.5, width=0.3
boundary = zero-flux
t_end = 0.01
dt = 1e-3
"""
        path = _write(tmp_path, text)
        assert cli.main(["validate", str(path)]) == 0


class TestRun:
    def test_constant_preset_all_pass(self, tmp_path):
        text = """\
[scenario]
preset = constant

[checks]
run = conservation, truncation

[output]
directory = {out}
""".format(out=tmp_path / "out")
        path = _write(tmp_path, text)
        assert cli.main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["all_pass"]
        assert set(summary["checks"]) == {"conservation", "truncation"}
        for entry in summary["checks"].values():
            assert entry["pass"]
            assert entry["label"]

    def test_full_pipeline_and_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = _write(tmp_path, BASE_CONFIG.format(outdir=out1))
        assert cli.main(["run", str(path), "--output", str(out1)]) == 0
        # The resolved config, its preset expanded, reruns the run file for file.
        resolved = out1 / "resolved_config.ini"
        assert "\npreset = " not in resolved.read_text()
        assert cli.main(["run", str(resolved), "--output", str(out2)]) == 0
        assert _tree_hash(out1) == _tree_hash(out2)
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["all_pass"]
        # Each check record carries the run's identity.
        records = [json.loads(line) for line in (out1 / "checks.jsonl").read_text().splitlines()]
        assert [r["name"] for r in records] == ["caccioppoli", "truncation-supersolution"]
        for record in records:
            assert record["scenario_hash"] == summary["scenario_hash"]
            assert record["resolution"] == f"nodes=41,steps={summary['solver']['steps']}"
        # With every second step stored, the stamp still counts time steps.
        out3 = tmp_path / "c"
        every2 = _write(tmp_path, BASE_CONFIG.format(outdir=out3).replace(
            "t_end = 0.02\n", "t_end = 0.02\nstore_every = 2\n"), "every2.ini")
        assert cli.main(["run", str(every2)]) in (0, 1)
        steps = json.loads((out3 / "summary.json").read_text())["solver"]["steps"]
        assert steps == summary["solver"]["steps"] == 80
        for line in (out3 / "checks.jsonl").read_text().splitlines():
            assert json.loads(line)["resolution"] == "nodes=41,steps=80"
        assert (out1 / "ledger.json").exists()
        assert (out1 / "oscillation.csv").exists()
        assert summary["artifact_hashes"]
        # recorded hashes match the files on disk, and every file but the
        # summary and the timings is recorded
        files = {p.relative_to(out1).as_posix() for p in out1.rglob("*") if p.is_file()}
        assert set(summary["artifact_hashes"]) == files - {"summary.json", "timings.json"}
        for rel, digest in summary["artifact_hashes"].items():
            data = (out1 / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_timings_are_written_but_not_hashed(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, BASE_CONFIG.format(outdir=out))
        summaries = []
        for _ in range(2):
            assert cli.main(["run", str(path), "--output", str(out)]) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"solve_s", "snapshots_s", "checks_s", "total_s"}
        assert set(timings["checks_s"]) == set(json.loads(summaries[0])["checks"])
        assert all(t >= 0.0 for t in [*timings["checks_s"].values(), timings["solve_s"]])
        assert "timings.json" not in json.loads(summaries[0])["artifact_hashes"]

    def test_snapshot_index(self, tmp_path):
        path = _write(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
        traj = run_simulation(cli.parse_config(path).scenario)
        last = len(traj.times) - 1
        assert last % 3, "stride 3 must miss the last step for it to be added"
        for stride in (0, 3):
            out = tmp_path / f"stride{stride}"
            text = BASE_CONFIG.format(outdir=out) + f"snapshot_stride = {stride}\n"
            assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
            index = json.loads((out / "snapshots" / "index.json").read_text())
            kept = sorted({*range(0, last + 1, max(stride, 1)), last})
            assert index["indices"] == kept
            bins = sorted((out / "snapshots").glob("*.bin"))
            assert [p.name for p in bins] == [f"step_{m:06d}.bin" for m in kept]
            assert index["dtype"] == "<f8" and index["order"] == "row-major"
            assert index["shape"] == [41]
            assert index["scenario_hash"] == traj.scenario.scenario_hash()
            assert index["times"] == [traj.times[m] for m in kept]
            for p, m in zip(bins, index["indices"]):
                data = np.fromfile(p, dtype="<f8").reshape(index["shape"])
                assert data.tobytes() == np.ascontiguousarray(traj.temps[m]).tobytes()
            hashes = json.loads((out / "summary.json").read_text())["artifact_hashes"]
            assert "snapshots/index.json" in hashes
            assert not any(rel.endswith(".json") and "/step_" in rel for rel in hashes)

    def test_rerun_over_longer_files_rewrites_them_exactly(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        path = _write(tmp_path, BASE_CONFIG.format(outdir=out))
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        for p in out.rglob("*"):
            if p.is_file():
                p.write_bytes(b"junk" * (p.stat().st_size + 16))
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        assert cli.main(["run", str(path), "--output", str(fresh)]) == 0
        assert _tree_hash(out) == _tree_hash(fresh)
        for p in out.rglob("*"):
            if p.is_file():
                assert b"junk" not in p.read_bytes(), p
                if p.name != "timings.json":
                    assert p.stat().st_size == (fresh / p.relative_to(out)).stat().st_size
        json.loads((out / "timings.json").read_text())
        hashes = json.loads((out / "summary.json").read_text())["artifact_hashes"]
        for rel, digest in hashes.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_rerun_removes_stale_snapshot_files(self, tmp_path):
        out = tmp_path / "out"
        snapdir = out / "snapshots"
        unrelated = {"notes.txt", "step_1.bin", "step_000001.bin.bak"}
        for stride in (1, 4):
            text = BASE_CONFIG.format(outdir=out) + f"snapshot_stride = {stride}\n"
            path = _write(tmp_path, text)
            if stride == 4:
                # a sidecar of the older layout, and files that are not snapshots
                (snapdir / "step_000001.json").write_text("{}")
                for name in unrelated:
                    (snapdir / name).write_text("keep")
            assert cli.main(["run", str(path), "--output", str(out)]) == 0
        index = json.loads((snapdir / "index.json").read_text())
        assert index["indices"] == list(range(0, index["indices"][-1] + 1, 4))
        expected = {f"step_{m:06d}.bin" for m in index["indices"]} | {"index.json"}
        assert {p.name for p in snapdir.iterdir()} == expected | unrelated
        hashes = json.loads((out / "summary.json").read_text())["artifact_hashes"]
        assert {rel for rel in hashes if rel.startswith("snapshots/")} == {
            f"snapshots/{name}" for name in expected}

    def test_rerun_leaves_only_its_own_outcome_record(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        text = BASE_CONFIG.format(outdir=out)
        good = _write(tmp_path, text, "good.ini")
        # run with a step tolerance no step meets: a solver failure
        bad = _write(tmp_path, text, "bad.ini")
        broken = _write(tmp_path, text.replace("t_end", "wibble = x\nt_end"), "broken.ini")
        # files stefanlab does not name, which no run removes
        unrelated = {"notes.txt", "snapshots/notes.txt"}
        step_rtol = solver._STEP_RTOL

        def run(path):
            monkeypatch.setattr(solver, "_STEP_RTOL", 1e-300 if path == bad else step_rtol)
            return cli.main(["run", str(path), "--output", str(out)])

        # a failed run leaves its outcome record and what it wrote itself
        # (exit 3: the resolved config) and removes the earlier run's files
        for path, code, record, own in ((good, 0, "summary.json", None),
                                        (bad, 3, "error.json", {"resolved_config.ini"}),
                                        (good, 0, "summary.json", None),
                                        (broken, 2, "error.json", set())):
            assert run(path) == code
            assert {"summary.json", "error.json"} & {p.name for p in out.iterdir()} == {record}
            if record == "error.json":
                assert json.loads((out / record).read_text())["code"] == code
                files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
                assert files == {"error.json"} | own | unrelated
            else:
                # the one name list covers every file a full run writes
                # besides its outcome record and snapshot steps
                hashes = json.loads((out / "summary.json").read_text())["artifact_hashes"]
                assert ({n for n in hashes if not cli._STEP_FILE.fullmatch(Path(n).name)}
                        | {"timings.json", "summary.json", "error.json"}) == set(cli._ARTIFACTS)
                for name in unrelated:
                    (out / name).write_text("keep")
        (out / "snapshots" / "notes.txt").unlink()
        assert run(bad) == 3
        assert {p.name for p in out.iterdir()} == {"error.json", "resolved_config.ini",
                                                   "notes.txt"}

    def test_config_error_without_output_keeps_the_files_in_out(self, tmp_path, monkeypatch):
        # With no --output a config error writes its record into the
        # directory the config names: another run's directory is untouched.
        monkeypatch.chdir(tmp_path)
        good = _write(tmp_path, BASE_CONFIG.format(outdir="out"), "good.ini")
        broken = _write(tmp_path, BASE_CONFIG.format(outdir="elsewhere").replace(
            "t_end", "step_rtol = x\nt_end"), "broken.ini")
        assert cli.main(["run", str(good)]) == 0
        out = tmp_path / "out"

        def contents():
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for p in out.rglob("*") if p.is_file()}

        before = contents()
        assert cli.main(["run", str(broken)]) == 2
        assert contents() == before
        assert [p.name for p in (tmp_path / "elsewhere").iterdir()] == ["error.json"]
        record = json.loads((tmp_path / "elsewhere" / "error.json").read_text())
        assert (record["code"], record["field"]) == (2, "scenario.step_rtol")

    def test_unreadable_config_error_goes_to_the_default_run_directory(self, tmp_path,
                                                                       monkeypatch):
        # An INI that cannot be read names no directory: the record goes to
        # the default one, under the output root.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / "root"))
        broken = _write(tmp_path, "[scenario\n", "broken.ini")
        assert cli.main(["run", str(broken)]) == 2
        assert json.loads((tmp_path / "root" / "out" / "run" / "error.json").read_text())[
            "code"] == 2
        assert not (tmp_path / "out").exists()

    def test_rerun_without_modulus_removes_its_files(self, tmp_path):
        out = tmp_path / "out"
        for checks in ("conservation, modulus", "conservation"):
            text = BASE_CONFIG.format(outdir=out).replace(
                "conservation, weakform, caccioppoli, truncation, modulus", checks)
            assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            for name in ("oscillation.csv", "fit.json"):
                assert (out / name).exists() == ("modulus" in summary["checks"])
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert set(summary["artifact_hashes"]) == files - {"summary.json", "timings.json"}

    def test_short_modulus_ladder_is_no_verdict(self, tmp_path):
        # The constant preset's horizon shrinks r0 to about 0.1, so the second
        # rung's ball holds one node: no ladder to measure, and no failed run.
        text = "[scenario]\npreset = constant\n[checks]\nrun = modulus\n"
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        entry = json.loads((out / "summary.json").read_text())["checks"]["modulus"]
        assert entry["gate"] is False and entry["degenerate"] is True and "pass" not in entry
        assert "rung 1" in entry["note"] and "holds 1 nodes" in entry["note"]
        assert not (out / "fit.json").exists() and not (out / "oscillation.csv").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_2d_preset_resolves_one_node_count(self, tmp_path, dim):
        text = f"[scenario]\npreset = stefan-2d-p2-twophase\ndim = {dim}\nt_end = 0.01\n"
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        resolved = configparser.ConfigParser()
        resolved.read(out / "resolved_config.ini")
        assert (resolved["scenario"]["dim"], resolved["scenario"]["nodes"]) == (str(dim), "29")
        index = json.loads((out / "snapshots" / "index.json").read_text())
        assert index["shape"] == [29] * dim
        assert index["grid"] == {"extents": [1.0] * dim, "nodes": [29] * dim}
        again = cli.parse_config(out / "resolved_config.ini").scenario
        assert again.scenario_hash() == index["scenario_hash"]

    def test_diagnostics_carry_no_verdict(self, tmp_path):
        # Dirichlet data move the enthalpy total, so conservation is no gate
        # here; with steps left unstored neither is weakform; classifier
        # never is.
        text = ("[scenario]\npreset = stefan-1d-p2-onephase\nnodes = 41\nt_end = 0.01\n"
                "store_every = 2\n[checks]\nrun = conservation, weakform, classifier\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["checks"].values():
            assert entry["gate"] is False and "pass" not in entry
        assert summary["checks"]["conservation"]["defect"] > 1e-10
        assert summary["all_pass"] is True

    @pytest.mark.parametrize("scenario, check", [
        ("preset = stefan-1d-p3-twophase\nt_end = 0.02\n", "decay"),
        ("dim = 1\nnodes = 11\np = 3.0\nt_end = 0.02\ndt = 1e-3\njump_location = 1.5\n"
         "initial_params = value=0.0\n", "weak-harnack"),
    ], ids=["decay-twophase", "weak-harnack-zero"])
    def test_vacuous_checks_carry_no_verdict(self, tmp_path, scenario, check):
        # On the two-phase preset the truncated w has no positive infimum on
        # the decay ball; on the zero state the weak Harnack average is zero.
        # Neither estimate then bounds anything, so neither is a verdict.
        text = f"[scenario]\n{scenario}[checks]\nrun = {check}, conservation\n"
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["checks"][check]
        assert entry["gate"] is False and "pass" not in entry and entry["degenerate"] is True
        assert summary["checks"]["conservation"]["pass"] and summary["all_pass"]

    def test_check_outside_its_hypotheses_is_a_failed_verdict(self, tmp_path):
        text = "[scenario]\npreset = constant\n[checks]\nrun = weak-harnack, conservation\n"
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["checks"]["weak-harnack"]
        assert entry == {"pass": False, "label": studies.CHECKS["weak-harnack"].label,
                         "error": "ValueError: waiting-time estimate needs p > 2"}
        assert summary["checks"]["conservation"]["pass"] and not summary["all_pass"]

    def test_weakform_bump_on_the_dirichlet_nodes_is_a_failed_verdict(self, tmp_path):
        # A bump of width 0.8 r0 = 0.56 about 0.5 reaches both pinned ends.
        text = ("[scenario]\npreset = stefan-1d-p2-onephase\nnodes = 41\nt_end = 0.01\n"
                "[modulus]\nr0 = 0.7\n[checks]\nrun = weakform\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["weakform"] == {
            "pass": False, "label": studies.CHECKS["weakform"].label,
            "error": "ValueError: test function must vanish at the Dirichlet nodes"}
        assert summary["all_pass"] is False

    @pytest.mark.parametrize("preset", ["stefan-1d-p3-twophase", "stefan-2d-p2-twophase"])
    def test_solver_check_passes_on_a_headline_preset(self, tmp_path, preset):
        text = f"[scenario]\npreset = {preset}\nnodes = 21\nt_end = 0.01\n[checks]\nrun = solver\n"
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        block = summary["solver"]
        assert block["steps"] > 0
        assert summary["checks"]["solver"] == {
            "pass": True, "label": studies.CHECKS["solver"].label,
            **{k: block[k] for k in ("fallbacks", "energy_increases", "worst_residual_ratio")}}

    @pytest.mark.parametrize("fault, field, value", [
        ({"used_fallback": True}, "fallbacks", 1),
        ({"energy_decreased": False}, "energy_increases", 1),
        ({"residual": 2.0, "tolerance": 1.0}, "worst_residual_ratio", 2.0),
    ], ids=["fallback", "energy-increase", "residual"])
    def test_degraded_step_fails_the_solver_check(self, tmp_path, monkeypatch, fault, field,
                                                  value):
        def degraded(scenario):
            traj = run_simulation(scenario)
            traj.diagnostics[1] = replace(traj.diagnostics[1], **fault)
            return traj
        monkeypatch.setattr(cli, "run_simulation", degraded)
        text = ("[scenario]\npreset = stefan-1d-p2-twophase\nnodes = 21\nt_end = 0.01\n"
                "[checks]\nrun = conservation, solver\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(_write(tmp_path, text)), "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["checks"]["solver"]
        assert entry["pass"] is False and entry[field] == value == summary["solver"][field]
        assert summary["checks"]["conservation"]["pass"] and not summary["all_pass"]

    def test_programming_error_in_a_check_propagates(self, tmp_path, monkeypatch):
        def broken(traj, site):
            raise TypeError("not a verdict")
        monkeypatch.setitem(studies.CHECKS, "conservation", studies.Check("broken", broken))
        path = _write(tmp_path, "[scenario]\npreset = constant\n")
        with pytest.raises(TypeError, match="not a verdict"):
            cli.run(path, str(tmp_path / "out"))

    def test_config_error_exit_and_record(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nnodes = 41\n")
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert "scenario" in record["field"]

    def test_graph_the_table_cannot_hold_exit_two(self, tmp_path, capsys):
        # in the domain of its key, but the band a +- eps has no E table
        path = _write(tmp_path, _EXPLICIT + "jump_location = 1e300\n")
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["code"], record["field"]) == (2, "scenario.mollify_eps")
        assert "Traceback" not in capsys.readouterr().err

    def test_beta_the_table_cannot_hold_is_named_without_warnings(self, tmp_path, capsys):
        # tanh beta of slope 1e308 squeezes the band into subnormal temperatures
        path = _write(tmp_path, _EXPLICIT + "beta = tanh:1e308 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "scenario.beta"
        assert "uniform knots cannot hold" in record["message"]

    def test_weakform_without_a_time_interval_is_a_diagnostic(self, tmp_path):
        # t_end = 0 stores one time and takes no step
        path = _write(tmp_path, _EXPLICIT.replace("t_end = 0.002", "t_end = 0")
                      + "[checks]\nrun = weakform\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        entry = json.loads((out / "summary.json").read_text())["checks"]["weakform"]
        assert entry["gate"] is False and "pass" not in entry

    @pytest.mark.parametrize("extent", ["1e300", "1e-300"])
    def test_extent_out_of_range_exit_two(self, tmp_path, extent):
        # the decay ball's squared radius overflows at extent = 1e300
        path = _write(tmp_path, _EXPLICIT + f"extent = {extent}\n[checks]\nrun = decay\n")
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["code"], record["field"]) == (2, "scenario.extent")

    @pytest.mark.parametrize("config, field", [
        # t_end/dt is about 2e321 steps: the run would never end
        (_TINY_DT, "scenario.dt"),
        # E(u) = u^2/2 + ... overflows at every node
        (_HUGE_U, "scenario.initial_params"),
        # E(u) overflows at the pinned node only
        (_HUGE_PIN, "scenario.boundary"),
        # E(u) is finite but |du/h|^8 overflows
        (_STEEP_U, "scenario.initial_params"),
        # the first intrinsic step is the shortest: 1.6e-11, 6.4e8 steps
        (_TINY_SAFETY, "scenario.dt"),
    ], ids=["tiny-dt", "huge-u", "huge-pin", "steep-u", "tiny-safety"])
    def test_unrunnable_values_exit_two_without_warnings(self, tmp_path, config, field):
        path = _write(tmp_path, config)
        out = tmp_path / "err"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", str(path)]) == 2
            assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["code"], record["field"]) == (2, field)

    def test_step_cap_admits_its_bound(self, tmp_path):
        path = _write(tmp_path, _EXPLICIT.replace("t_end = 0.002", f"t_end = {solver.MAX_STEPS}")
                      .replace("dt = 1e-3", "dt = 1"))
        assert cli.main(["validate", str(path)]) == 0
        path.write_text(path.read_text().replace("dt = 1\n", "dt = 0.999999\n"))
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("value", ["0", "x"])
    def test_bad_store_every_exit_two(self, tmp_path, value):
        text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
            "t_end = 0.02\n", f"t_end = 0.02\nstore_every = {value}\n")
        path = _write(tmp_path, text)
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "scenario.store_every"

    def test_bad_step_rtol_on_preset_exit_two(self, tmp_path):
        text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
            "t_end = 0.02\n", "t_end = 0.02\nstep_rtol = x\n")
        path = _write(tmp_path, text)
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "scenario.step_rtol"

    @pytest.mark.parametrize("spec", ["anisotropic:1.0,2.0", "anisotropic:-1.0",
                                      "anisotropic:x", "isotropic"])
    def test_bad_field_exit_two(self, tmp_path, capsys, spec):
        text = (f"[scenario]\ndim = 1\nnodes = 21\np = 3.0\nfield = {spec}\n"
                "t_end = 0.004\ndt = 1e-3\n")
        path = _write(tmp_path, text)
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "scenario.field"
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "scenario.field"

    @pytest.mark.parametrize("text, field", [
        ("p = 3.0\n", "config"),
        ("[scenario]\npreset = constant\n[scenario]\nnodes = 21\n", "scenario"),
        ("[scenario]\npreset = constant\nnodes = 21\nnodes = 31\n", "scenario.nodes"),
        ("[scenario]\npreset = constant\nlabel = 50%\n", "scenario.label"),
        ("[scenario]\npreset = constant\nnodes = x\n", "scenario.nodes"),
        ("[scenario]\npreset = constant\n[modulus]\nr0 = abc\n", "modulus.r0"),
        ("[scenario]\npreset = constant\n[modulus]\ncenter = a\n", "modulus.center"),
        ("[scenario]\npreset = constant\n[modulus]\nl_prefactor = x\n",
         "modulus.l_prefactor"),
        ("[scenario]\npreset = constant\n[modulus]\nalpha_if_p_eq_n = x\n",
         "modulus.alpha_if_p_eq_n"),
        ("[scenario]\npreset = constant\n[modulus]\nladder_depth = 2.5\n",
         "modulus.ladder_depth"),
        ("[scenario]\npreset = constant\n[constants]\nc0 = x\n", "constants.c0"),
        ("[scenario]\npreset = constant\n[checks]\nseed = x\n", "checks.seed"),
        ("[scenario]\npreset = constant\n[output]\nsnapshot_stride = x\n",
         "output.snapshot_stride"),
        # Unknown keys: the modulus ladder is dyadic, and no formula or check
        # reads varsigma or nu_star.
        ("[scenario]\npreset = constant\n[modulus]\nladder = dyadic2\n", "modulus.ladder"),
        ("[scenario]\npreset = constant\n[constants]\nvarsigma = 0.25\n", "constants.varsigma"),
        ("[scenario]\npreset = constant\n[constants]\nnu_star = 0.5\n", "constants.nu_star"),
        ("[scenario]\npreset = constant\nnodes = inf\n", "scenario.nodes"),
        ("[scenario]\ndim = 100000000000\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n",
         "scenario.dim"),
        ("[scenario]\nbeta = piecewise:1\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n",
         "scenario.beta"),
        (b"[scenario]\npreset = constant\nlabel = \xe9\n", "config"),
        # Values outside a key's domain used to crash `run` or compute NaN.
        ("[scenario]\npreset = constant\n[modulus]\nr0 = -1\n", "modulus.r0"),
        ("[scenario]\npreset = constant\n[constants]\nc0 = -1\n", "constants.c0"),
        ("[scenario]\npreset = constant\n[constants]\nc0 = nan\n", "constants.c0"),
        ("[scenario]\npreset = constant\n[constants]\ntheta = 2\n", "constants"),
        # one theta: the ledger read only min(theta1, theta2)
        ("[scenario]\npreset = constant\n[constants]\ntheta1 = 0.1\n", "constants.theta1"),
        ("[scenario]\npreset = constant\n[constants]\ntheta2 = 0.1\n", "constants.theta2"),
        ("[scenario]\npreset = constant\n[checks]\nseed = -1\n", "checks.seed"),
        (_EXPLICIT + "extent = nan\n", "scenario.extent"),
        (_EXPLICIT + "extent = inf\n", "scenario.extent"),
        (_EXPLICIT + "boundary = dirichlet:left=nan,right=0\n", "scenario.boundary"),
        # Explicit-scenario errors used to be reported as `scenario`.
        (_EXPLICIT + "extent = 0\n", "scenario.extent"),
        (_EXPLICIT + "latent_heat = 2\n", "scenario.latent_heat"),
        (_EXPLICIT + "jump_location = nan\n", "scenario.jump_location"),
        (_EXPLICIT + "mollify_eps = 0\n", "scenario.mollify_eps"),
        (_EXPLICIT.replace("nodes = 11", "nodes = 2"), "scenario.nodes"),
        (_EXPLICIT.replace("nodes = 11", "nodes = 11, 11, 11"), "scenario.nodes"),
        (_EXPLICIT + "beta = tanh:0.4,0\n", "scenario.beta"),
        (_EXPLICIT + "boundary = dirichlet:left=1 2,right=0\n", "scenario.boundary"),
        (_EXPLICIT + "boundary = dirichlet:top=1\n", "scenario.boundary"),
        # initial_params are checked against the builder and the grid.
        (_EXPLICIT + "initial = ramp\ninitial_params = axis=5\n", "scenario.initial_params"),
        (_EXPLICIT + "initial = ramp\ninitial_params = lo=nan\n", "scenario.initial_params"),
        (_EXPLICIT + "initial = bump\ninitial_params = width=0\n", "scenario.initial_params"),
        (_EXPLICIT + "initial = ramp\ninitial_params = foo=1\n", "scenario.initial_params"),
        # Values the builders used to truncate, wrap around or zip away.
        (_EXPLICIT.replace("nodes = 11", "nodes = 21.9"), "scenario.nodes"),
        (_EXPLICIT + "initial = ramp\ninitial_params = axis=0.5\n", "scenario.initial_params"),
        (_EXPLICIT + "initial = ramp\ninitial_params = axis=-1\n", "scenario.initial_params"),
        (_EXPLICIT + "initial = bump\ninitial_params = center=0.2 0.9 0.5\n",
         "scenario.initial_params"),
        (_EXPLICIT + "initial = fourier\ninitial_params = amps=0.1 0.2 0.3, freqs=1\n",
         "scenario.initial_params"),
        # One count serves every axis: a list is an error, next to a preset too.
        ("[scenario]\npreset = constant\nnodes = 41, 31\n", "scenario.nodes"),
        ("[scenario]\npreset = stefan-2d-p2-twophase\nnodes = 29, 29\n", "scenario.nodes"),
        ("[scenario]\npreset = constant\n[sweep]\naxis = bogus\nvalues = 1\n", "sweep.axis"),
        # Text that only begins like an intrinsic dt, and a pair with a third field.
        (_EXPLICIT.replace("dt = 1e-3", "dt = intrinsically"), "scenario.dt"),
        (_EXPLICIT + "beta = piecewise:-1/-0.5/99,0/0,1/2\n", "scenario.beta"),
    ], ids=["no-section", "duplicate-section", "duplicate-key", "interpolation",
            "nodes", "r0", "center", "l_prefactor", "alpha", "ladder_depth", "c0",
            "seed", "snapshot_stride", "ladder", "varsigma", "nu_star", "nodes-inf", "dim", "beta-pair",
            "not-utf8", "r0-negative", "c0-negative", "c0-nan", "theta-range", "theta1", "theta2",
            "seed-negative", "extent-nan", "extent-inf", "dirichlet-nan", "extent-zero",
            "latent-heat", "jump-nan", "eps-zero", "nodes-too-few", "nodes-count",
            "beta-tau", "dirichlet-list", "dirichlet-end", "ramp-axis", "ramp-lo-nan",
            "bump-width-zero", "ramp-unknown-param", "nodes-fraction", "ramp-axis-fraction",
            "ramp-axis-negative", "bump-center-count", "fourier-lengths", "preset-nodes-list",
            "preset-2d-nodes-list",
            "sweep-axis", "dt-intrinsic-prefix", "beta-three-fields"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, text, field):
        if isinstance(text, bytes):
            path = tmp_path / "config.ini"
            path.write_bytes(text)
        else:
            path = _write(tmp_path, text)
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == field
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == field

    @pytest.mark.parametrize("preset, center", [
        ("stefan-1d-p3-twophase", "0.5, 0.5"),
        ("stefan-1d-p3-twophase", "0.5, 0.5, 0.5"),
        ("stefan-2d-p2-twophase", "0.5"),
    ], ids=["1d-two", "1d-three", "2d-one"])
    def test_center_coordinate_count_exit_two(self, tmp_path, capsys, preset, center):
        # A centre with the wrong number of coordinates was silently
        # truncated to the grid's axes; it is a config error.
        path = _write(tmp_path, f"[scenario]\npreset = {preset}\n\n[modulus]\n"
                                f"center = {center}\n\n[checks]\nrun = conservation, caccioppoli\n")
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "modulus.center"
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "modulus.center"

    @pytest.mark.parametrize("preset, center", [
        ("stefan-1d-p3-twophase", "5"),
        ("stefan-2d-p2-twophase", "0.5, 1.5"),
        ("stefan-1d-p3-twophase", "-0.1"),
    ], ids=["1d-beyond", "2d-beyond", "negative"])
    def test_center_outside_the_domain_exit_two(self, tmp_path, capsys, preset, center):
        # A centre outside the grid left the checks with empty balls; it is
        # a config error.
        path = _write(tmp_path, f"[scenario]\npreset = {preset}\n\n[modulus]\n"
                                f"center = {center}\n\n[checks]\nrun = decay\n")
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "modulus.center"
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["field"] == "modulus.center"

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("scenario", [
        "preset = constant\n",
        "dim = 1\nnodes = 21\np = 3.0\nt_end = 0.004\ndt = 1e-3\n",
    ], ids=["preset", "explicit"])
    def test_step_rtol_not_positive_finite_exit_two(self, tmp_path, capsys, value, scenario):
        # The step tolerance is a solver constant, not a key: every value of
        # step_rtol, these included, is an unknown key.
        path = _write(tmp_path, f"[scenario]\n{scenario}step_rtol = {value}\n")
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "scenario.step_rtol"
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "scenario.step_rtol"
        assert "unknown key" in record["message"]

    @pytest.mark.parametrize("line", [
        "p = nan", "p = inf", "t_end = nan", "t_end = inf", "dt = nan", "dt = inf",
        "dt = 0", "dt = -1", "dt = intrinsic:safety=nan", "dt = intrinsic:safety=0",
        "preset = constant\nt_end = nan", "preset = constant\ndt = 0"])
    def test_scenario_value_out_of_domain_exit_two(self, tmp_path, capsys, line):
        # Without the check, NaN values ran to exit 0 with every check
        # passing, t_end = inf never ended, and dt <= 0 failed as a solver
        # error (exit 3).
        key = line.split("\n")[-1].split(" = ")[0]
        if line.startswith("preset"):
            text = f"[scenario]\n{line}\n"
        else:
            keys = {"dim": "1", "nodes": "11", "p": "3.0", "t_end": "0.004", "dt": "1e-3",
                    key: line.split(" = ", 1)[1]}
            text = "[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        path = _write(tmp_path, text + "[checks]\nrun = conservation\n")
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == f"scenario.{key}"
        out = tmp_path / "err"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == f"scenario.{key}"

    @pytest.mark.parametrize("name", [*sorted(solver.INITIAL_DATA), "foo"])
    def test_initial_data_names_from_the_solver_table(self, tmp_path, capsys, name):
        path = _write(tmp_path, "[scenario]\ndim = 1\nnodes = 11\np = 3.0\nt_end = 0.002\n"
                                f"dt = 1e-3\ninitial = {name}\n[checks]\nrun = conservation\n")
        out = tmp_path / "out"
        if name in solver.INITIAL_DATA:
            assert cli.main(["run", str(path), "--output", str(out)]) == 0
            return
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "scenario.initial"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 2
        assert record["field"] == "scenario.initial"

    @pytest.mark.parametrize("line, expected", [
        ("p = 3.0", lambda sc: replace(sc, p=3.0)),
        ("field = anisotropic:5.0", lambda sc: replace(sc, field=solver.VectorField((5.0,)))),
        ("beta = tanh:0.4,0.5", lambda sc: replace(sc, graph=replace(
            sc.graph, beta=BetaMap(kind="tanh", mu=0.4, tau=0.5)))),
        ("boundary = dirichlet:left=1,right=0", lambda sc: replace(
            sc, boundary=solver.Boundary(kind="dirichlet", values=((1.0, 0.0),)))),
        # the preset's initial_params are for two-phase-sine
        ("initial = bump\ninitial_params = base=0.2", lambda sc: replace(
            sc, initial=solver.InitialData.of("bump", base=0.2))),
        ("initial_params = amplitude=0.3", lambda sc: replace(
            sc, initial=solver.InitialData.of("two-phase-sine", amplitude=0.3))),
        # the preset's unit weights on both axes
        ("dim = 2", lambda sc: replace(sc, grid=solver.Grid(2, 41), field=None)),
        ("extent = 2.0", lambda sc: replace(sc, grid=solver.Grid(1, 41, 2.0))),
        ("jump_location = 0.3", lambda sc: replace(sc, graph=replace(sc.graph, a=0.3)))],
        ids=["p", "field", "beta", "boundary", "initial", "initial_params", "dim", "extent",
             "jump_location"])
    def test_preset_applies_every_key(self, tmp_path, line, expected):
        # A preset's values are the defaults of every scenario key; the
        # centre is the domain centre on every axis.
        base = BASE_CONFIG.format(outdir=tmp_path / "out").replace("center = 0.5\n", "")
        preset = cli.parse_config(_write(tmp_path, base, "preset.ini")).scenario
        path = _write(tmp_path, base.replace("t_end = 0.02\n", f"t_end = 0.02\n{line}\n"))
        assert cli.main(["validate", str(path)]) == 0
        sc, want = cli.parse_config(path).scenario, expected(preset)
        assert sc.scenario_hash() == want.scenario_hash() != preset.scenario_hash()
        assert sc.label == preset.label

    def test_solver_summary_matches_diagnostics(self, tmp_path):
        text = """\
[scenario]
dim = 2
nodes = 13
p = 3.0
initial = two-phase-sine
initial_params = amplitude=0.5, periods=1.0, tilt=0.1
t_end = 0.004
dt = 1e-3

[checks]
run = conservation
"""
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        block = json.loads((out / "summary.json").read_text())["solver"]
        diags = run_simulation(cli.parse_config(path).scenario).diagnostics
        assert block == {
            "steps": 4,
            "newton_iterations": sum(d.iterations for d in diags),
            "newton_iterations_max": max(d.iterations for d in diags),
            "linear_iterations": sum(d.linear_iterations for d in diags),
            "backtracks": sum(d.backtracks for d in diags),
            "fallbacks": 0,
            "energy_increases": 0,
            "worst_residual_ratio": max(d.residual / d.tolerance for d in diags),
        }
        assert block["linear_iterations"] > 0
        assert 0.0 < block["worst_residual_ratio"] <= 1.0

    def test_solver_failure_exit_three(self, tmp_path, monkeypatch):
        # no step meets this tolerance
        monkeypatch.setattr(solver, "_STEP_RTOL", 1e-300)
        text = """\
[scenario]
preset = stefan-1d-p2-twophase
nodes = 31
t_end = 0.004

[checks]
run = conservation

[output]
directory = {out}
""".format(out=tmp_path / "out")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["code"] == 3
        assert record["time"] is not None

    def test_modulus_ladder_takes_m_from_the_run_ledger(self, tmp_path):
        # [constants] c0, c1 set the cylinder depth M in the ledger the run
        # writes, and the measurement parameters take M from that ledger.
        path = _write(tmp_path, "[scenario]\npreset = stefan-1d-p3-twophase\n"
                                "[constants]\nc0 = 3\nc1 = 8\n")
        cfg = cli.parse_config(path)
        assert cfg.ledger.M == 2.5
        assert cfg.params.M == cfg.ledger.M

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, BASE_CONFIG.format(outdir="rel/out"))
        for root in (tmp_path / "root", Path("root")):
            monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(root))
            cfg = cli.parse_config(path)
            assert cfg.output_dir == root / "rel" / "out"
            # The resolved config records the directory as written: parsed
            # again under the same root, it names the same directory.
            resolved = _write(tmp_path, cli._resolved_config_text(cfg), "resolved.ini")
            assert cli.parse_config(resolved).output_dir == cfg.output_dir

    def test_resolved_config_records_ladder_depth(self, tmp_path):
        path = _write(tmp_path, "[scenario]\npreset = constant\n"
                                "[modulus]\nladder_depth = 3\n[checks]\nrun = conservation\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        resolved = configparser.ConfigParser()
        resolved.read(out / "resolved_config.ini")
        assert resolved["modulus"]["ladder_depth"] == "3"
        for key, text in resolved["modulus"].items():
            cli.KEYS["modulus"][key].parse(text)


# Values for the INI fuzz test: numbers, words, empty and comma lists, and
# for the keys that have a syntax of their own, near-miss spellings of it.
_NUMBERS = st.one_of(st.integers(-1000, 1000).map(str),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr),
                     st.sampled_from(["1e400", "-0", "0x10", "1_000", "2.", ".5"]))
_WORDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_LISTS = st.lists(st.one_of(_NUMBERS, _WORDS), max_size=4).map(", ".join)
_SPECS = {
    "preset": st.sampled_from(sorted(presets.PRESETS)),
    "beta": st.one_of(st.just("identity"),
                      st.builds("tanh:{}".format, _LISTS),
                      st.builds("piecewise:{}".format, _LISTS),
                      st.builds("piecewise:{}/{},{}/{}".format, _NUMBERS, _NUMBERS,
                                _NUMBERS, _NUMBERS)),
    "field": st.one_of(st.just("p-laplacian"), st.builds("anisotropic:{}".format, _LISTS)),
    "boundary": st.one_of(st.just("zero-flux"),
                          st.builds("dirichlet:left={},right={}".format, _NUMBERS, _NUMBERS),
                          st.builds("dirichlet:{}".format, _LISTS)),
    "dt": st.one_of(st.just("intrinsic"), st.builds("intrinsic:safety={}".format, _NUMBERS)),
    "initial": st.sampled_from(["constant", "bump", "two-phase-sine", "ramp", "fourier"]),
    "initial_params": st.builds("{}={}, {}={}".format, _WORDS, _NUMBERS, _WORDS, _LISTS),
    "run": st.lists(st.sampled_from(sorted(studies.CHECKS)), max_size=3).map(", ".join),
}
_KEYS = sorted((section, key) for section, keys in cli.KEYS.items() for key in keys)


@st.composite
def ini_configs(draw):
    chosen = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=10))
    sections: dict[str, list[str]] = {}
    for section, key in chosen:
        kinds = [_NUMBERS, _WORDS, st.just(""), _LISTS]
        if key in _SPECS:
            kinds.append(_SPECS[key])
        value = draw(st.one_of(*kinds))
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "".join(line + "\n" for line in lines) + "\n"
                   for section, lines in sections.items())


class TestConfigFuzz:
    @given(text=ini_configs())
    @example(text="[scenario]\ndim = 100000000000\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n")
    @example(text="[scenario]\npreset = constant\nnodes = inf\n")
    @example(text="[scenario]\nbeta = piecewise:1\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n")
    @example(text="[scenario]\npreset = constant\nlabel = 5%% off\n")
    # graph values the key domains admit but the E table cannot be built from
    @example(text="[scenario]\njump_location = 1e300\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n")
    @example(text="[scenario]\nmollify_eps = 5e-324\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n")
    @example(text="[scenario]\nbeta = tanh:1e308 1\nnodes = 5\np = 2\nt_end = 1\ndt = 1\n")
    @settings(max_examples=100, deadline=None)
    def test_validate_exits_zero_or_two(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "config.ini"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["validate", str(path)])
        assert code in (0, 2)
        if code == 0:
            # On an accepted config, the work `run` does before the solve
            # raises nothing: the initial field, the ledger, the measurement
            # parameters taken from it and the resolved config, which reads
            # back as the same scenario.
            cfg = cli.parse_config(path)
            sc = cfg.scenario
            assert np.isfinite(solver.build_initial(sc.grid, sc.initial)).all()
            assert cfg.ledger.Lambda == sc.certified_lambda()
            assert cfg.params.M == cfg.ledger.M
            path.write_text(cli._resolved_config_text(cfg), encoding="utf-8")
            again = cli.parse_config(path).scenario
            assert again.scenario_hash() == sc.scenario_hash()
            assert again.label == sc.label


# Edge values of the `cli.KEYS` domains a 1D run reads, at the fewest nodes
# and a few more; t_end and dt keep every accepted run to a few steps.
_PIN_VALUES = ["0", "1", "-1", "1e300", "-1e300"]
_RUN_EDGES = {
    "nodes": st.sampled_from(["3", "9"]),
    "t_end": st.sampled_from(["0", "5e-324", "1e-300", "0.004"]),
    "dt": st.sampled_from(["5e-324", "1e-300", "0.002", "1e300",
                           "intrinsic:safety=1e-9", "intrinsic:safety=0.5"]),
    "extent": st.sampled_from(["1e-100", "1e-3", "1.0", "1e100"]),
    "p": st.sampled_from(["2", "8"]),
    "initial": st.sampled_from([
        "initial = constant\ninitial_params = value=1e300",
        "initial = constant\ninitial_params = value=1e76",
        "initial = constant\ninitial_params = value=-1e150",
        "initial = bump\ninitial_params = amplitude=1e300",
        "initial = bump\ninitial_params = amplitude=1e60",
        "initial = bump\ninitial_params = amplitude=1e30",
        "initial = bump\ninitial_params = amplitude=1",
        "initial = two-phase-sine\ninitial_params = amplitude=1e100, level=-1e100",
        "initial = ramp\ninitial_params = lo=-1e-300, hi=1e-300",
    ]),
    "boundary": st.one_of(st.just("zero-flux"), st.builds(
        "dirichlet:left={},right={}".format, st.sampled_from(_PIN_VALUES),
        st.sampled_from(_PIN_VALUES))),
}


# The same for a 2D run at 3 or 5 nodes per axis, with the keys only it reads:
# per-axis Dirichlet values, anisotropic weights, and beta at the edges of
# its tanh and piecewise domains (the last table's slopes overflow).
_RUN_EDGES_2D = {
    "nodes": st.sampled_from(["3", "5"]),
    "t_end": st.sampled_from(["0", "1e-300", "0.004"]),
    "dt": st.sampled_from(["1e-300", "0.002", "intrinsic:safety=0.5"]),
    "extent": st.sampled_from(["1e-3", "1.0", "1e100"]),
    "p": st.sampled_from(["2", "3", "8"]),
    "initial": st.sampled_from([
        "initial = constant\ninitial_params = value=1e76",
        "initial = bump\ninitial_params = amplitude=1e30",
        "initial = bump\ninitial_params = amplitude=1",
        "initial = two-phase-sine\ninitial_params = amplitude=1e100, level=-1e100",
        "initial = ramp\ninitial_params = lo=-1e-300, hi=1e-300",
    ]),
    "boundary": st.one_of(st.just("zero-flux"), st.builds(
        "dirichlet:lo0={},hi0={},lo1={},hi1={}".format,
        *[st.sampled_from(_PIN_VALUES)] * 4)),
    "field": st.sampled_from(["p-laplacian", "anisotropic:1,1e-6", "anisotropic:1e6,1",
                              "anisotropic:0.5,2"]),
    "beta": st.sampled_from(["identity", "tanh:0.5,0.1", "tanh:-0.89,1e-6", "tanh:1e6,1e6",
                             "piecewise:-1/-0.5,0/0,1/2",
                             "piecewise:-1e300/-1,0/0,1e-300/1e300"]),
}


class TestRunFuzz:
    """`stefanlab run` end to end with every check on tiny 1D and 2D configs
    at the edges of the key domains: each run ends with its record, no
    exception escapes, no warning is printed, and a config that cannot run
    exits 2 before it computes."""

    @staticmethod
    def _run_ends_with_its_record(tmp, scenario: str):
        path = _write(tmp, scenario + _ALL_CHECKS)
        out = tmp / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                sc = cli.parse_config(path).scenario
            except cli.ConfigError:
                sc = None
            # Runs of more than 100 steps (a small intrinsic dt) are out of
            # this test's time; the first intrinsic step is the shortest.
            assume(sc is None or sc.t_end <= 100 * sc.dt.step(sc.grid, sc.p, sc._initial_state,
                                                              math.inf))
            code = cli.main(["run", str(path), "--output", str(out)])
        assert code in (0, 1, 2, 3)
        if code < 2:
            assert json.loads((out / "summary.json").read_text())["all_pass"] is (code == 0)
        else:
            assert json.loads((out / "error.json").read_text())["code"] == code
        assert [str(w.message) for w in caught] == []

    @given(**_RUN_EDGES)
    @example(nodes="9", t_end="0.01", dt="5e-324", extent="1.0", p="2", initial="",
             boundary="zero-flux")
    @example(nodes="9", t_end="0.01", dt="0.002", extent="1.0", p="2",
             initial="initial = constant\ninitial_params = value=1e300", boundary="zero-flux")
    @example(nodes="9", t_end="0.01", dt="0.002", extent="1.0", p="2", initial="",
             boundary="dirichlet:left=1e300,right=0")
    @example(nodes="9", t_end="0.01", dt="0.002", extent="1.0", p="8",
             initial="initial = bump\ninitial_params = amplitude=1e60", boundary="zero-flux")
    @example(nodes="9", t_end="0.01", dt="intrinsic:safety=1e-9", extent="1.0", p="2", initial="",
             boundary="zero-flux")
    @example(nodes="9", t_end="5e-324", dt="0.002", extent="1.0", p="2", initial="",
             boundary="dirichlet:left=1,right=-1")
    @example(nodes="9", t_end="0.01", dt="0.002", extent="1.0", p="2",
             initial="initial = constant\ninitial_params = value=1e76", boundary="zero-flux")
    @example(nodes="9", t_end="1e-300", dt="1e-300", extent="1e-3", p="2",
             initial="initial = bump\ninitial_params = amplitude=1e60", boundary="zero-flux")
    # a trial step overflows on the way to an unconverged step (exit 3)
    @example(nodes="9", t_end="0.01", dt="0.002", extent="1e-3", p="8",
             initial="initial = bump\ninitial_params = amplitude=1e30", boundary="zero-flux")
    @settings(max_examples=30, deadline=None)
    def test_run_ends_with_its_record(self, tmp_path_factory, nodes, t_end, dt, extent, p,
                                      initial, boundary):
        self._run_ends_with_its_record(
            tmp_path_factory.mktemp("run-fuzz"),
            f"[scenario]\ndim = 1\nnodes = {nodes}\np = {p}\nt_end = {t_end}\ndt = {dt}\n"
            f"extent = {extent}\nboundary = {boundary}\n{initial}\n")

    @given(**_RUN_EDGES_2D)
    # a trial step's dot product overflows on the way to exit 3
    @example(nodes="5", t_end="0.004", dt="0.002", extent="1.0", p="8",
             initial="initial = bump\ninitial_params = amplitude=1e30",
             boundary="dirichlet:lo0=-1,hi0=-1,lo1=1,hi1=-1", field="anisotropic:1,1e-6",
             beta="piecewise:-1/-0.5,0/0,1/2")
    # a beta table whose slopes overflow is refused (exit 2) without a warning
    @example(nodes="5", t_end="0.004", dt="0.002", extent="1.0", p="2",
             initial="initial = bump\ninitial_params = amplitude=1", boundary="zero-flux",
             field="p-laplacian", beta="piecewise:-1e300/-1,0/0,1e-300/1e300")
    @settings(max_examples=20, deadline=None)
    def test_2d_run_ends_with_its_record(self, tmp_path_factory, nodes, t_end, dt, extent, p,
                                         initial, boundary, field, beta):
        self._run_ends_with_its_record(
            tmp_path_factory.mktemp("run-fuzz-2d"),
            f"[scenario]\ndim = 2\nnodes = {nodes}\np = {p}\nt_end = {t_end}\ndt = {dt}\n"
            f"extent = {extent}\nboundary = {boundary}\nfield = {field}\nbeta = {beta}\n"
            f"{initial}\n")

    @pytest.mark.parametrize("scenario, expected", [
        # t_end = 5e-324: the cutoff's time ramp rounds to 0, and 1/dt of the
        # one step overflows
        ("t_end = 5e-324\ndt = 0.002\nboundary = dirichlet:left=1,right=-1\n", 0),
        # temperatures far beyond the jump band, where the tables' zero high
        # powers overflow
        ("t_end = 0.01\ndt = 0.002\ninitial = constant\ninitial_params = value=1e76\n", 0),
        # a tiny normal step, over which the rate of phi^p overflows; the
        # estimate's own terms overflow too, an honest failed verdict
        ("t_end = 1e-300\ndt = 1e-300\nextent = 1e-3\ninitial = bump\n"
         "initial_params = amplitude=1e60\n", 1),
    ], ids=["subnormal-horizon", "far-field", "tiny-step"])
    def test_energy_check_warns_nothing(self, tmp_path, scenario, expected):
        path = _write(tmp_path, "[scenario]\ndim = 1\nnodes = 9\np = 2\n" + scenario
                                + "[checks]\nrun = caccioppoli\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", str(path), "--output", str(tmp_path / "out")])
        assert [str(w.message) for w in caught] == []
        assert code == expected


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [f"{section}.{key}" for section, keys in cli.KEYS.items()
               for key in sorted(keys) if f"`{section}.{key}`" not in readme]
    assert not missing


def test_readme_documents_every_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Available checks:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(studies.CHECKS)


class TestSweep:
    def test_eps_sweep_aggregates(self, tmp_path):
        text = """\
[scenario]
preset = stefan-1d-p2-twophase
nodes = 41
t_end = 0.01

[checks]
run = conservation, weakform

[output]
directory = {out}

[sweep]
axis = eps
values = 0.1, 0.05
""".format(out=tmp_path / "out")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--output", str(out)]) == 0
        agg = (out / "aggregated.csv").read_text().strip().split("\n")
        assert len(agg) == 3  # header + two runs
        header = agg[0].split(",")
        assert {"conservation.pass", "weakform.pass", "weakform.margin"} <= set(header)
        for row, sub in zip(agg[1:], ("run_000_eps-0.1", "run_001_eps-0.05")):
            cells = dict(zip(header, row.split(",")))
            assert cells["weakform.pass"] == "True" and float(cells["weakform.margin"]) > 0
            # each run's solver health, as its summary.json records it
            solver_block = json.loads((out / sub / "summary.json").read_text())["solver"]
            assert {f"solver.{key}": repr(value) for key, value in solver_block.items()} == {
                key: cell for key, cell in cells.items() if key.startswith("solver.")}
            assert int(cells["solver.steps"]) > 0 and cells["solver.fallbacks"] == "0"

    def test_empty_axis_behaves_like_run(self, tmp_path):
        text = """\
[scenario]
preset = constant

[checks]
run = conservation

[output]
directory = {out}
""".format(out=tmp_path / "out")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--output", str(out)]) == 0
        assert (out / "run_000_single" / "summary.json").exists()
        agg = (out / "aggregated.csv").read_text().strip().split("\n")
        assert len(agg) == 2

    def test_pass_columns_only_for_gated_checks(self, tmp_path):
        text = ("[scenario]\npreset = constant\nstore_every = 2\n"
                "[checks]\nrun = conservation, weakform\n[sweep]\naxis = eps\nvalues = 0.1\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        header = (out / "aggregated.csv").read_text().split("\n")[0].split(",")
        assert "conservation.pass" in header and "weakform.pass" not in header

    def test_p_sweep_over_preset_aggregates(self, tmp_path):
        text = BASE_CONFIG.format(outdir=tmp_path / "out") + "\n[sweep]\naxis = p\nvalues = 2, 3\n"
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--output", str(out)]) == 0
        header, *rows = (out / "aggregated.csv").read_text().strip().split("\n")
        assert [dict(zip(header.split(","), row.split(",")))["run"] for row in rows] == [
            "'p-2'", "'p-3'"]
        for sub, p in (("run_000_p-2", 2.0), ("run_001_p-3", 3.0)):
            resolved = configparser.ConfigParser()
            resolved.read(out / sub / "resolved_config.ini")
            assert float(resolved["scenario"]["p"]) == p
            assert json.loads((out / sub / "summary.json").read_text())["all_pass"]


    def test_resolution_sweep_over_2d_preset_aggregates(self, tmp_path):
        text = ("[scenario]\npreset = stefan-2d-p2-twophase\nt_end = 0.005\n"
                "[sweep]\naxis = resolution\nvalues = 9, 17\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(_write(tmp_path, text)), "--output", str(out)]) == 0
        header, *rows = (out / "aggregated.csv").read_text().strip().split("\n")
        assert [dict(zip(header.split(","), row.split(",")))["run"] for row in rows] == [
            "'resolution-9'", "'resolution-17'"]
        for sub, n in (("run_000_resolution-9", 9), ("run_001_resolution-17", 17)):
            index = json.loads((out / sub / "snapshots" / "index.json").read_text())
            assert index["shape"] == [n, n]

    def test_failed_run_contributes_no_verdicts(self, tmp_path):
        # two nodes per axis are too few: the sub-run exits 2
        text = (BASE_CONFIG.format(outdir=tmp_path / "out")
                + "\n[sweep]\naxis = resolution\nvalues = 2\n")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        sub = out / "run_000_resolution-2"
        # an earlier run's outcome, left where the failing run writes
        sub.mkdir(parents=True)
        (sub / "summary.json").write_text(
            json.dumps({"checks": {"modulus": {"pass": True, "c_star": 1.0}}}))
        assert cli.main(["sweep", str(path), "--output", str(out)]) == 2
        assert json.loads((sub / "error.json").read_text())["field"] == "scenario.nodes"
        header, row = (out / "aggregated.csv").read_text().strip().split("\n")
        assert header == "exit,run"
        assert row == "2,'resolution-2'"
        assert not (sub / "summary.json").exists()

    def test_verdicts_only_from_runs_that_checked(self, tmp_path, monkeypatch):
        # a failing run that leaves the directory as it found it
        monkeypatch.setattr(cli, "run", lambda config, out_override: 3)
        text = BASE_CONFIG.format(outdir=tmp_path / "out") + "\n[sweep]\naxis = eps\nvalues = 0.1\n"
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        (out / "run_000_eps-0.1").mkdir(parents=True)
        (out / "run_000_eps-0.1" / "summary.json").write_text(
            json.dumps({"checks": {"modulus": {"pass": True, "c_star": 1.0}}}))
        assert cli.main(["sweep", str(path), "--output", str(out)]) == 3
        assert (out / "aggregated.csv").read_text() == "exit,run\n3,'eps-0.1'\n"


class TestPresetsVerb:
    def test_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        text = capsys.readouterr().out
        assert "stefan-1d-p2-twophase" in text
        assert "constant" in text

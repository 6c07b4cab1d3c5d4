"""scripts/bitcheck.py: the dump of every output that a speed-only change
must leave bit for bit unchanged."""
import configparser
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", SCRIPT)
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def _requested_checks(ini_text: str) -> set[str]:
    config = configparser.ConfigParser()
    config.read_string(ini_text)
    return {name.strip() for name in config["checks"]["run"].split(",")}


def test_tiny_dump(tmp_path):
    out = tmp_path / "bits.json"
    run = subprocess.run([sys.executable, str(SCRIPT), str(out), "--size", "tiny"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(out.read_text())
    assert set(record["headline"]) == {"1d-p2", "1d-p3", "2d-p2", "2d-p3"}
    runs = [record["solve-2d"], record["dirichlet"]]
    assert record["dirichlet"]["diag_totals"]["steps"] == bitcheck.DIRICHLET_STEPS
    for case in record["headline"].values():
        assert set(case) == {"coarse", "fine"}
        runs += case.values()
    for res in runs:
        assert res["diag_totals"]["steps"] > 0
        assert re.fullmatch(r"[0-9a-f]{16}", res["scenario_hash"])
    for run, ini in (("cli-run", bitcheck.CLI_INI.format(seed=1, extra="")),
                     ("every-check", bitcheck.EVERY_CHECK_INI),
                     ("two-d", bitcheck.TWO_D_INI),
                     ("no-verdict", bitcheck.NO_VERDICT_INI)):
        assert record[run]["exit_code"] == 0 and record[run]["artifact_hashes"]
        # the verdict entries, which no artifact hash covers
        assert set(record[run]["checks"]) == _requested_checks(ini)
    # the 2D run's resolved config and snapshot index are in the dump, and
    # its modulus check measures a c*
    assert {"resolved_config.ini", "snapshots/index.json"} <= set(
        record["two-d"]["artifact_hashes"])
    assert record["two-d"]["checks"]["modulus"]["pass"] is True
    # the no-verdict run's weak Harnack and decay checks cannot measure, and
    # say why
    notes = {name: entry.get("note") for name, entry in record["no-verdict"]["checks"].items()
             if entry.get("degenerate") and "pass" not in entry}
    assert notes == {"weak-harnack": "supersolution must be nonnegative",
                     "decay": "no positive starting level"}


def test_against_an_earlier_dump(tmp_path):
    def bitcheck(out, against):
        return subprocess.run([sys.executable, str(SCRIPT), str(out), "--size", "tiny",
                               "--against", str(against)],
                              capture_output=True, text=True, timeout=300)

    old = tmp_path / "old.json"
    subprocess.run([sys.executable, str(SCRIPT), str(old), "--size", "tiny"], check=True,
                   capture_output=True, timeout=300)
    same = bitcheck(tmp_path / "same.json", old)
    assert same.returncode == 0, same.stdout + same.stderr
    assert (tmp_path / "same.json").read_bytes() == old.read_bytes()

    record = json.loads(old.read_text())
    record["headline"]["1d-p3"]["fine"]["diag_hash"] = "0" * 64
    record["cli-run"]["artifact_hashes"]["ledger.json"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    differs = bitcheck(tmp_path / "new.json", changed)
    assert differs.returncode == 1
    # every differing path, one a line, in sorted key order
    assert differs.stdout.splitlines()[1:] == ['["cli-run"]["artifact_hashes"]["ledger.json"]',
                                               '["headline"]["1d-p3"]["fine"]["diag_hash"]']

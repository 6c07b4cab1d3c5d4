"""scripts/bitcheck.py: the dump of every output that a speed-only change
must leave bit for bit unchanged."""
import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bitcheck.py"


def test_tiny_dump(tmp_path):
    out = tmp_path / "bits.json"
    run = subprocess.run([sys.executable, str(SCRIPT), str(out), "--size", "tiny"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(out.read_text())
    assert set(record["headline"]) == {"1d-p2", "1d-p3", "2d-p2", "2d-p3"}
    runs = [record["solve-2d"]]
    for case in record["headline"].values():
        assert set(case) == {"coarse", "fine"}
        runs += case.values()
    for res in runs:
        assert res["diag_totals"]["steps"] > 0
        assert re.fullmatch(r"[0-9a-f]{16}", res["scenario_hash"])
    assert record["cli-run"]["exit_code"] == 0 and record["cli-run"]["artifact_hashes"]

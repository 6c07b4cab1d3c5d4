"""scripts/bench.py: parsing a recorded perfbench run and summarizing
alternating pairs, with no benchmark run."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# Standard output of `perfbench/run.py --workload solve-2d --seed 1 --seconds 3 --trace 0`.
RECORDED = """\
provenance {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": {"MKL_NUM_THREADS": "1", \
"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, "cpus_allowed": 2, "git_commit": \
"8bcaa7205732ae9249a8eb7ccd2e8b6cf501c738", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", \
"scipy": "1.17.1", "seed": 1, "seed_used": false, "size": "full", "src_lines": {"__init__.py": 31, \
"cli.py": 667, "constants.py": 313, "geometry.py": 249, "graphs.py": 478, "presets.py": 152, \
"solver.py": 1329, "studies.py": 388, "verify.py": 670}, "src_sha256": \
"d567785643f8a415b51a20aeff8006d233e4229069e74287b1692b5e2824d4ba", "workload": "solve-2d"}
solve-2d: 6 operations, 0 failed (ops_failed 0.000); wall_s median over 6 untraced operations; \
setup_s median over 7 fresh processes
operation seconds: 0.223 0.282 0.221 0.228 0.240 0.304
set-up seconds: 0.149 0.155 0.139 0.137 0.148 0.156 0.158
  wall_s                               0.234074 s
  setup_s                              0.148646 s
  peak_rss_mb                          48.7266 MB
{"correct": true, "attempted": 6, "failed": 0, "metrics": {"wall_s": {"value": \
0.23407363450041885, "unit": "s"}, "setup_s": {"value": 0.14864592899994022, "unit": "s"}, \
"peak_rss_mb": {"value": 48.7265625, "unit": "MB"}}}
"""


def test_parse_recorded_run():
    run = bench.parse_run(RECORDED)
    assert run["provenance"]["git_commit"].startswith("8bcaa72")
    assert sum(run["provenance"]["src_lines"].values()) == 4277
    assert run["operation_s"] == [0.223, 0.282, 0.221, 0.228, 0.240, 0.304]
    assert run["setup_s"] == [0.149, 0.155, 0.139, 0.137, 0.148, 0.156, 0.158]
    assert run["result"]["metrics"]["wall_s"]["value"] == 0.23407363450041885
    assert (run["result"]["attempted"], run["result"]["failed"]) == (6, 0)


def test_parse_skips_traced_operations_and_failure_lines():
    text = ("FAIL op 1: c* refinement ratio nan outside [0.5, 2]\n"
            + RECORDED.replace("0.223 0.282", "0.223 0.282(traced)"))
    run = bench.parse_run(text)
    assert run["operation_s"] == [0.223, 0.221, 0.228, 0.240, 0.304]


def test_parse_run_without_result():
    # perfbench/run.py prints nothing to standard output when a run stops on
    # an error, and FAIL lines but no summary when the worker dies mid-run.
    assert bench.parse_run("")["result"] is None
    run = bench.parse_run("FAIL op 3: worker exited with code -9\n"
                          + RECORDED.split("\n", 1)[0] + "\n")
    assert run["result"] is None
    assert run["provenance"]["workload"] == "solve-2d"


def _run(wall, failed=0):
    return {"result": {"attempted": 4, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}}}}


def test_summarize_pairs():
    pairs = [{"parent": _run(1.0), "change": _run(0.9)},
             {"parent": _run(1.2), "change": _run(1.3, failed=1)},
             {"parent": _run(0.8), "change": _run(0.8)}]
    out = bench.summarize(pairs, {"wall_s": "lower"})
    wall = out["metrics"]["wall_s"]
    assert wall["winners"] == ["change", "parent", "tie"]
    assert wall["parent"] == {"samples": [1.0, 1.2, 0.8], "median": 1.0, "q1": 0.9, "q3": 1.1}
    assert wall["change"]["median"] == 0.9
    assert out["change"] == {"failed": 1, "attempted": 12, "runs_failed": 0}
    assert out["parent"] == {"failed": 0, "attempted": 12, "runs_failed": 0}


def test_summarize_keeps_failed_runs():
    pairs = [{"parent": _run(1.0), "change": {"result": None}},
             {"parent": _run(1.2), "change": _run(1.1)}]
    out = bench.summarize(pairs, {"wall_s": "lower"})
    wall = out["metrics"]["wall_s"]
    assert wall["winners"] == [None, "change"]
    assert wall["parent"]["samples"] == [1.0, 1.2]
    assert wall["change"] == {"samples": [1.1], "median": 1.1, "q1": 1.1, "q3": 1.1}
    assert out["change"] == {"failed": 0, "attempted": 4, "runs_failed": 1}

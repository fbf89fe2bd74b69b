"""Failed jobs are counted in failed_ratio and do not stop the run.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metrics, read_spans  # noqa: E402
from worker import run_jobs, write_configs  # noqa: E402


def _unit_t2(tolerance: float, check_tolerance: float, **extra) -> dict:
    job = {
        "id": "unit",
        "command": "torsion",
        "config": workloads.config_doc("t2-unit", tolerance),
        "args": [],
        "check": {"kind": "torsion", "ref": "t2-unit", "tolerance": check_tolerance},
    }
    job.update(extra)
    return job


def test_failures_are_counted_and_the_run_finishes(tmp_path):
    bad_config = workloads.config_doc("t2-unit")
    bad_config["schema"] = 2
    jobs = [
        _unit_t2(1e-8, 1e-8, id="passes"),
        # argparse rejects the flag by raising SystemExit out of cli.main
        _unit_t2(1e-8, 1e-8, id="raises", args=["--threads", "two"]),
        # the library raises CutoffInsufficientError, the CLI exits 1
        _unit_t2(None, 1e-8, id="numerical", args=["--cutoff", "5"]),
        _unit_t2(1e-8, 1e-8, id="bad-config", config=bad_config),
        # a 1e-8 answer checked at 1e-15 misses the pinned reference
        _unit_t2(1e-8, 1e-15, id="misses"),
    ]
    ready_s, results, reasons = run.run_worker(jobs, tmp_path / "work", seed=7, budget_s=0.0, trace=False)
    assert len(results["pass_times"]) == 1
    assert sorted(r["job"] for r in results["records"]) == list(range(len(jobs)))
    by_id = {jobs[r["job"]]["id"]: reason for r, reason in zip(results["records"], reasons)}
    assert by_id["passes"] is None
    assert by_id["raises"] == "exit code 2"
    assert by_id["numerical"] == "exit code 1"
    assert by_id["bad-config"] == "exit code 2"
    assert "off by" in by_id["misses"]
    metrics, samples = run.summarize([ready_s], results, reasons)
    assert metrics["failed_ratio"] == 4 / 5
    assert metrics["passed_ratio"] == 1 / 5
    assert samples["failed_ratio"] == 5


def test_an_exception_escaping_main_is_a_failed_job(tmp_path):
    jobs = [_unit_t2(1e-8, 1e-8, id="a"), _unit_t2(1e-8, 1e-8, id="b")]
    write_configs(jobs, tmp_path)

    def main(argv):
        raise RuntimeError("boom")

    records, pass_times = run_jobs(jobs, seed=1, budget_s=0.0, workdir=tmp_path, main=main)
    assert len(records) == 2 and len(pass_times) == 1
    reasons = run.score(jobs, records, workloads.load_refs())
    assert reasons == ["raised RuntimeError: boom"] * 2


def test_traced_run_counts_an_exception_once_per_layer_it_leaves(tmp_path):
    # the Mellin tail sum raises in zeta, which unwinds through torsion
    # into cli.main, which turns it into exit code 1
    jobs = [_unit_t2(None, 1e-8, id="numerical", args=["--cutoff", "5"])]
    workdir = tmp_path / "work"
    _, results, reasons = run.run_worker(jobs, workdir, seed=1, budget_s=0.0, trace=True)
    assert reasons == ["exit code 1"]
    spans = read_spans(workdir / "spans.jsonl")
    metrics = layer_metrics(spans, results["counters"], passes=1)
    assert metrics["zeta.errors"] == 1
    assert metrics["torsion.errors"] == 1
    assert metrics["cli.errors"] == 0
    assert metrics["crosssection.spectrum_calls"] >= 1
    assert {s["job"] for s in spans} == {"p0-j0"}


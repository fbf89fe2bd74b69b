"""The benchmark's own callers of the library still run against it.

``test_tracer_targets.py`` checks only that the names the tracer wraps
exist.  Here the two benchmark paths that call the library directly run:
``perfbench/make_refs.py``'s t0-independence check, which builds a slice
and a one-row ``MellinSplit`` for every degree, and one traced worker pass,
whose hooks read a split's slice and t0.  A signature change that broke
either would otherwise pass this suite and fail only the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import make_refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metrics, read_spans  # noqa: E402


@pytest.mark.parametrize("geometry", ["t2-unit", "t4-unit"])
def test_make_refs_t0_spread_is_within_its_bound(geometry):
    """zeta'(0) of every degree at t0 in ``T0_GRID`` agrees to ``T0_AGREE``."""
    assert make_refs.t0_spread(geometry) <= make_refs.T0_AGREE


def test_a_traced_unit_t4_pass_reads_the_split(tmp_path):
    """One traced pass of a unit-T^4 torsion job passes its check, and the
    tracer's F hook, which reads ``split.sl`` and ``split.t0``, counts
    levels."""
    job = {
        "id": "torsion:t4-unit@1e-08",
        "command": "torsion",
        "config": workloads.config_doc("t4-unit", 1e-8),
        "args": [],
        "check": {"kind": "torsion", "ref": "t4-unit", "tolerance": 1e-8},
    }
    workdir = tmp_path / "work"
    _, results, reasons = run.run_worker([job], workdir, seed=1, budget_s=0.0, trace=True)
    assert reasons == [None]
    metrics = layer_metrics(read_spans(workdir / "spans.jsonl"), results["counters"], passes=1)
    assert metrics["zeta.f_levels"] > 0
    assert metrics["zeta.split_builds"] == 1

"""Time-to-checked-torsion benchmark for conetorsion.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the checkout's own
``src/conetorsion``; nothing is installed.  Each job's output is checked
against ``refs.json``; a job fails if it raises, exits nonzero or misses its
check, and failures are counted, never hidden.

``--trace 0`` measures the end-to-end metrics.  ``SETUP_PROBES`` fresh
workers each import ``conetorsion.cli`` and parse one configuration, then one
more worker does the same and runs the workload's jobs in closed-loop passes
for ``--seconds``.  ``--trace 1`` runs an untraced worker and a traced
worker for half the time each and reports per-layer metrics from the spans
(see ``tracer.py``), the tracing overhead, and import times from
``python -X importtime``.

Every metric is printed as one line (workload, name, value, unit, samples);
the last line of standard output is the JSON result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics, read_spans
from worker import write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
READY_TIMEOUT_S = 60.0
# a worker gets this long beyond its budget to finish its last pass and exit
WORKER_GRACE_S = 60.0
# one process, at most nproc threads: the CLI's own pool and no BLAS threads;
# a fixed hash seed keeps set and dict layouts alike from worker to worker
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a job failing)."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(spec_path: Path, timeout_s: float) -> float:
    """Run one worker to completion; return its seconds from spawn to 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        env=_env(),
        text=True,
    )
    try:
        if not select.select([proc.stdout], [], [], READY_TIMEOUT_S)[0]:
            raise BenchError(f"worker not ready after {READY_TIMEOUT_S:.0f} s")
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout_s:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return ready_s


def prepare(jobs: list[dict], workdir: Path, seed: int, budget_s: float, trace: bool,
            probe: bool = False) -> Path:
    if workdir.exists():
        shutil.rmtree(workdir)
    write_configs(jobs, workdir)
    first = next(i for i, job in enumerate(jobs) if job.get("config") is not None)
    spec = {
        "src": str(SRC),
        "workdir": str(workdir),
        "first_config": str(workdir / "cfg" / f"j{first}.json"),
        "jobs": jobs,
        "seed": seed,
        "budget_s": budget_s,
        "trace": trace,
        "probe": probe,
    }
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def score(jobs: list[dict], records: list[dict], refs: dict) -> list[str | None]:
    """The failure reason of each record, None where the job passed."""
    reasons = []
    for rec in records:
        if rec["error"] is not None and rec["rc"] is None:
            reasons.append(f"raised {rec['error']}")
        else:
            reasons.append(workloads.check_output(jobs[rec["job"]], rec["rc"], Path(rec["out"]), refs))
    return reasons


def run_worker(jobs: list[dict], workdir: Path, seed: int, budget_s: float, trace: bool):
    spec = prepare(jobs, workdir, seed, budget_s, trace)
    ready_s = spawn_worker(spec, budget_s + WORKER_GRACE_S)
    results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    reasons = score(jobs, results["records"], workloads.load_refs())
    shutil.rmtree(workdir / "out")
    return ready_s, results, reasons


def importtime() -> dict[str, float]:
    """Import cost of a fresh worker from ``python -X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import conetorsion.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, env=_env(), timeout=READY_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("importing conetorsion.cli failed")
    scipy_us = 0
    conetorsion_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        top_level = not name[1:].startswith(" ")
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
        if top_level and (name == "conetorsion" or name.startswith("conetorsion.")):
            conetorsion_us += int(cumulative_us)
    return {"setup.scipy_import_s": scipy_us * 1e-6, "setup.conetorsion_import_s": conetorsion_us * 1e-6}


def _report(workload: str, metrics: dict, samples: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{workload:14s} {name:32s} {value:14.6g} {units[name]:6s} samples={samples[name]}")


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MiB",
    "passed_ratio": "ratio",
    "failed_ratio": "ratio",
}


PRINTED_ONLY = ("job_p50_s", "failed_ratio")


def summarize(setup: list[float], results: dict, reasons: list) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the sample count of each."""
    walls = [rec["wall_s"] for rec in results["records"]]
    attempted = len(reasons)
    failed = sum(r is not None for r in reasons)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(results["pass_times"]),
        "job_p50_s": statistics.median(walls),
        "peak_rss_mb": results["peak_rss_kib"] / 1024.0,
        "passed_ratio": (attempted - failed) / attempted,
        "failed_ratio": failed / attempted,
    }
    samples = {
        "setup_s": len(setup),
        "run_s": len(results["pass_times"]),
        "job_p50_s": len(walls),
        "peak_rss_mb": 1,
        "passed_ratio": attempted,
        "failed_ratio": attempted,
    }
    return metrics, samples


def untraced(workload: str, jobs: list[dict], seed: int, seconds: float):
    setup = []
    for _ in range(SETUP_PROBES):
        spec = prepare(jobs, WORK / f"{workload}-probe", seed, 0.0, False, probe=True)
        setup.append(spawn_worker(spec, READY_TIMEOUT_S))
    ready_s, results, reasons = run_worker(jobs, WORK / f"{workload}-run", seed, seconds, False)
    setup.append(ready_s)
    metrics, samples = summarize(setup, results, reasons)
    _report(workload, metrics, samples, END_TO_END_UNITS)
    _failures(workload, jobs, results["records"], reasons)
    # printed above but left out of the result line: failed_ratio can be 0, so
    # passed_ratio stands for it, and job_p50_s spreads too widely from run
    # to run on a shared machine to carry a bound (see README.md)
    for name in PRINTED_ONLY:
        del metrics[name]
    failed = sum(r is not None for r in reasons)
    return metrics, END_TO_END_UNITS, len(reasons), failed


def traced(workload: str, jobs: list[dict], seed: int, seconds: float):
    half = seconds / 2.0
    _, plain, plain_reasons = run_worker(jobs, WORK / f"{workload}-plain", seed, half, False)
    workdir = WORK / f"{workload}-traced"
    _, results, reasons = run_worker(jobs, workdir, seed, half, True)
    passes = len(results["pass_times"])
    metrics = layer_metrics(read_spans(workdir / "spans.jsonl"), results["counters"], passes)
    probes = [importtime() for _ in range(IMPORTTIME_PROBES)]
    for key in probes[0]:
        metrics[key] = statistics.median(p[key] for p in probes)
    traced_run = statistics.median(results["pass_times"])
    plain_run = statistics.median(plain["pass_times"])
    metrics["trace.run_s"] = traced_run
    metrics["trace.untraced_run_s"] = plain_run
    metrics["trace.overhead_s"] = traced_run - plain_run
    units = {name: _unit(name) for name in metrics}
    samples = {name: passes for name in metrics}
    for key in probes[0]:
        samples[key] = IMPORTTIME_PROBES
    samples["trace.untraced_run_s"] = len(plain["pass_times"])
    _report(workload, metrics, samples, units)
    _failures(workload, jobs, plain["records"] + results["records"], plain_reasons + reasons)
    all_reasons = plain_reasons + reasons
    return metrics, units, len(all_reasons), sum(r is not None for r in all_reasons)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _failures(workload: str, jobs: list[dict], records: list[dict], reasons: list) -> None:
    seen = set()
    for rec, reason in zip(records, reasons):
        if reason is not None and rec["job"] not in seen:
            seen.add(rec["job"])
            print(f"{workload:14s} FAILED {jobs[rec['job']]['id']}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conetorsion" / "cli.py").is_file():
        print(f"no conetorsion sources under {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]
    try:
        run = traced if args.trace else untraced
        metrics, units, attempted, failed = run(args.workload, jobs, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

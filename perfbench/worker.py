"""Benchmark worker: one fresh interpreter that runs jobs through the CLI.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC.json``.  It
imports ``conetorsion.cli``, parses the first job's configuration, prints
``ready`` (the end of set-up), and then, unless the spec asks only for that
probe, runs the job list in closed-loop passes, one ``cli.main`` call at a
time, until its time budget is spent.  Every pass finishes; at least one
runs.  Per-job records, pass times and peak RSS go to ``results.json`` in
the spec's work directory, spans to ``spans.jsonl`` when tracing.
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Callable


def job_argv(job: dict, workdir: Path, index: int, pass_no: int) -> tuple[list[str], Path]:
    """The command line of one job and the file its report goes to."""
    out = workdir / "out" / f"p{pass_no}-j{index}.json"
    argv = [job["command"]]
    if job.get("config") is not None:
        argv += ["--config", str(workdir / "cfg" / f"j{index}.json")]
    argv += list(job.get("args", []))
    if job["command"] != "verify":
        argv += ["--out", str(out)]
    return argv, out


def write_configs(jobs: list[dict], workdir: Path) -> None:
    (workdir / "cfg").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for index, job in enumerate(jobs):
        if job.get("config") is not None:
            path = workdir / "cfg" / f"j{index}.json"
            path.write_text(json.dumps(job["config"]), encoding="utf-8")


def run_jobs(
    jobs: list[dict],
    seed: int,
    budget_s: float,
    workdir: Path,
    main: Callable[[list[str]], int],
    on_job: Callable[[str | None], None] = lambda job: None,
) -> tuple[list[dict], list[float]]:
    """Closed loop over shuffled passes of ``jobs``; returns (records, pass times).

    A job that raises is recorded with ``rc = None`` and the loop goes on.
    A new pass starts while the budget lasts, so every pass is complete.
    """
    rng = random.Random(seed)
    records: list[dict] = []
    pass_times: list[float] = []
    started = time.perf_counter()
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        pass_no = len(pass_times)
        pass_start = time.perf_counter()
        for index in order:
            argv, out = job_argv(jobs[index], workdir, index, pass_no)
            log = workdir / "out" / f"p{pass_no}-j{index}.log"
            rc, error = None, None
            on_job(f"p{pass_no}-j{index}")
            with open(log, "w", encoding="utf-8") as fh:
                with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
                    t0 = time.perf_counter()
                    try:
                        rc = main(argv)
                    except KeyboardInterrupt:
                        raise
                    except BaseException as exc:  # noqa: BLE001 - a failed job, not a failed run
                        error = f"{type(exc).__name__}: {exc}"
                        rc = exc.code if isinstance(exc, SystemExit) else None
                        if rc is not None and not isinstance(rc, int):
                            rc = 1
                    wall = time.perf_counter() - t0
            on_job(None)
            records.append({
                "pass": pass_no,
                "job": index,
                "rc": rc,
                "error": error,
                "wall_s": wall,
                "out": str(out),
            })
        pass_times.append(time.perf_counter() - pass_start)
        if time.perf_counter() - started >= budget_s:
            return records, pass_times


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from conetorsion import cli
    from conetorsion.config import load_config

    if src not in Path(cli.__file__).resolve().parents:
        print(f"conetorsion imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    workdir = Path(spec["workdir"])
    load_config(spec["first_config"])
    print("ready", flush=True)
    if spec.get("probe"):
        return 0

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records, pass_times = run_jobs(
        spec["jobs"],
        spec["seed"],
        spec["budget_s"],
        workdir,
        lambda argv: cli.main(argv),  # looked up per call, so a traced main is used
        on_job=tracer.set_job if tracer else (lambda job: None),
    )
    results = {
        "records": records,
        "pass_times": pass_times,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        results["counters"] = dict(tracer.counters)
        tracer.write(workdir / "spans.jsonl")
    (workdir / "results.json").write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

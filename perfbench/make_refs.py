"""Regenerate ``refs.json``, the pinned values the benchmark checks against.

Recipe
------
* ``torsion`` references: ``conetorsion torsion`` on each geometry at
  ``--tolerance 1e-13``.  Each is confirmed by evaluating, for every slice
  k of that geometry at the 1e-13 cutoff (raised where needed so that the
  t0 = 0.3 tail sum is complete), ``MellinSplit(sl, t0).zeta_prime0()`` at
  t0 in {0.3, 1, 2}: the three values must agree to ``T0_AGREE``, since
  zeta'(0) does not depend on where the Mellin integral is split.  The
  largest disagreement is stored beside each reference.
* ``scaling`` and ``dump-zeta`` pins: the same command as the benchmark job,
  with ``--tolerance 1e-13``.

Run from the repository root:  python3 perfbench/make_refs.py
The jobs are checked at their own tolerance, so a reference must be far
more accurate than the tightest job tolerance (1e-12).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from conetorsion import cli  # noqa: E402
from conetorsion.config import parse_config  # noqa: E402
from conetorsion.crosssection import coclosed_spectrum  # noqa: E402
from conetorsion.torsion import NumericsParams  # noqa: E402
from conetorsion.zeta import MellinSplit  # noqa: E402

import workloads  # noqa: E402

REF_TOLERANCE = 1e-13
T0_GRID = (0.3, 1.0, 2.0)
T0_AGREE = 1e-11
# the Mellin tail sum needs every level with (eta + alpha^2) t0 <= 50
T0_CUTOFF = 60.0 / min(T0_GRID)


def _run(command: str, doc: dict | None, args: list[str], tmp: Path) -> dict:
    cfg = tmp / "cfg.json"
    out = tmp / "out.json"
    argv = [command]
    if doc is not None:
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    argv += args + ["--tolerance", repr(REF_TOLERANCE), "--out", str(out)]
    if cli.main(argv) != 0:
        raise SystemExit(f"reference run failed: {argv}")
    return json.loads(out.read_text())["result"]


def t0_spread(geometry: str) -> float:
    cfg = parse_config(workloads.config_doc(geometry, REF_TOLERANCE))
    cs = cfg.cross_section
    params = NumericsParams(tolerance=REF_TOLERANCE)
    worst = 0.0
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, max(params.slice_cutoff(cs, k), T0_CUTOFF))
        values = [MellinSplit(sl, t0).zeta_prime0()[0] for t0 in T0_GRID]
        worst = max(worst, max(values) - min(values))
    return worst


def _flatten(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node


def main() -> int:
    refs = {
        "recipe": "python3 perfbench/make_refs.py; see the docstring of that file",
        "reference_tolerance": REF_TOLERANCE,
        "t0_grid": list(T0_GRID),
        "t0_agree": T0_AGREE,
        "torsion": {},
        "pinned": {},
    }
    geometries = sorted({
        job["check"]["ref"]
        for jobs in workloads.WORKLOADS.values()
        for job in jobs
        if job["check"]["kind"] == "torsion"
    })
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for geometry in geometries:
            result = _run("torsion", workloads.config_doc(geometry, None), [], tmp)
            spread = t0_spread(geometry)
            print(f"{geometry:16s} log_torsion={result['log_torsion']:.16g} t0-spread={spread:.2e}")
            if not spread <= T0_AGREE:
                raise SystemExit(f"{geometry}: zeta'(0) depends on t0 by {spread:.2e}")
            refs["torsion"][geometry] = {
                "log_torsion": result["log_torsion"],
                "tors": result["tors"],
                "t0_spread": spread,
            }
        for job in workloads.WORKLOADS["t2-session"]:
            kind = job["check"]["kind"]
            if kind not in ("scaling", "dump-zeta"):
                continue
            doc = dict(job["config"])
            doc.pop("tolerance", None)
            result = _run(job["command"], doc, job["args"], tmp)
            if kind == "scaling":
                pin = {
                    "mu": [row["mu"] for row in result["rows"]],
                    "tors": [row["tors"] for row in result["rows"]],
                }
            else:
                pin = {}
                for k, sl in result["slices"].items():
                    values: dict = {}
                    _flatten("", {key: v for key, v in sl.items() if key != "err"}, values)
                    pin[k] = values
            refs["pinned"][job["check"]["ref"]] = pin
    text = json.dumps(refs, indent=1, sort_keys=False) + "\n"
    workloads.REFS_PATH.write_text(text)
    print(f"wrote {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions and output checks for the torsion benchmark.

A job is one ``conetorsion`` command line: a subcommand, an optional
schema-1 configuration document and extra flags.  Each job names the check
its output must pass; the pinned values those checks compare against live in
``refs.json`` beside this file (see ``make_refs.py`` for the recipe).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")

# the anomaly integral of a flat 2-torus has the closed value -Vol/(8 pi)
ANOMALY_ABS_TOL = 1e-10
# truncated-cone difference formula against the two direct routes
CROSS_ROUTE_MAX = 1e-8


def _diag(n: int, scale: float) -> list[list[float]]:
    return [[scale if i == j else 0.0 for j in range(n)] for i in range(n)]


# Lattice bases (rows as given to ``cross_section.lattice_basis``), keyed by
# the reference id used in refs.json.
GEOMETRIES: dict[str, list[list[float]]] = {
    "t2-unit": _diag(2, 1.0),
    "t2-sheared": [[1.0, 0.37], [0.0, 1.0]],
    "t2-16I": _diag(2, 16.0),
    "t2-24I": _diag(2, 24.0),
    "t2-32I": _diag(2, 32.0),
    "t2-diag-0.1": [[1.0, 0.0], [0.0, 0.1]],
    "t2-0.25I": _diag(2, 0.25),
    "t4-unit": _diag(4, 1.0),
    "t4-sheared-x2": [
        [2.0, 0.74, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.4],
        [0.0, 0.0, 0.0, 2.0],
    ],
    "t4-0.7I": _diag(4, 0.7),
}


def config_doc(geometry: str, tolerance: float | None = 1e-10, threads: int = 1) -> dict:
    basis = GEOMETRIES[geometry]
    doc = {
        "schema": 1,
        "cross_section": {
            "family": "flat_torus",
            "dim_n": len(basis),
            "lattice_basis": basis,
            "bundle_rank": 1,
        },
        "threads": threads,
    }
    if tolerance is not None:
        doc["tolerance"] = tolerance
    return doc


def _torsion(geometry: str, tolerance: float, threads: int = 1) -> dict:
    return {
        "id": f"torsion:{geometry}@{tolerance:g}",
        "command": "torsion",
        "config": config_doc(geometry, tolerance, threads),
        "args": [],
        "check": {"kind": "torsion", "ref": geometry, "tolerance": tolerance},
    }


def _session() -> list[dict]:
    geometry = "t2-sheared"
    doc = config_doc(geometry, 1e-10, threads=2)
    jobs = [_torsion(geometry, 1e-10, threads=2)]
    jobs.append({
        "id": "anomaly",
        "command": "anomaly",
        "config": doc,
        "args": [],
        "check": {"kind": "anomaly", "ref": geometry},
    })
    for eps in (0.1, 0.25, 0.5):
        jobs.append({
            "id": f"truncated@{eps:g}",
            "command": "truncated",
            "config": doc,
            "args": ["--epsilon", repr(eps)],
            "check": {"kind": "truncated"},
        })
    jobs.append({
        "id": "scaling",
        "command": "scaling",
        "config": doc,
        "args": ["--mu", "2,4,8,16,32,64"],
        "check": {"kind": "scaling", "ref": f"scaling:{geometry}", "tolerance": 1e-10},
    })
    jobs.append({
        "id": "dump-zeta",
        "command": "dump-zeta",
        "config": doc,
        "args": [],
        "check": {"kind": "dump-zeta", "ref": f"dump-zeta:{geometry}", "tolerance": 1e-10},
    })
    jobs.append({"id": "verify", "command": "verify", "config": None, "args": [],
                 "check": {"kind": "exit0"}})
    return jobs


WORKLOADS: dict[str, list[dict]] = {
    # big T^2 cross-sections: hundreds to over a thousand levels under the
    # Mellin horizon, so the per-level F quadratures and the K series dominate
    "t2-spectral": [
        _torsion("t2-unit", 1e-8),
        _torsion("t2-unit", 1e-10),
        _torsion("t2-unit", 1e-12),
        _torsion("t2-sheared", 1e-10),
        _torsion("t2-16I", 1e-10),
        _torsion("t2-24I", 1e-10),
        _torsion("t2-32I", 1e-10),
    ],
    # dense primal windows: the B quadrature and the lattice enumeration
    # dominate, and F is nearly idle (the no-change control for F work)
    "dense-lattice": [
        _torsion("t4-unit", 1e-8),
        _torsion("t4-unit", 1e-10),
        _torsion("t4-sheared-x2", 1e-10),
        _torsion("t4-0.7I", 1e-10),
        _torsion("t2-diag-0.1", 1e-10),
        _torsion("t2-0.25I", 1e-10),
    ],
    # one researcher's session on the sheared T^2: the same slices rebuilt
    # across commands, the oracle layers (verify) and the thread pool
    "t2-session": _session(),
}


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _worst(pairs) -> float:
    worst = 0.0
    for got, ref in pairs:
        if got is None or not math.isfinite(got):
            return math.inf
        worst = max(worst, abs(got - ref))
    return worst


def check_output(job: dict, exit_code: int, output_path: Path, refs: dict) -> str | None:
    """Return None when the job's output passes its check, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    check = job["check"]
    kind = check["kind"]
    if kind == "exit0":
        return None
    try:
        with open(output_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)["result"]
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if kind == "torsion":
        ref = refs["torsion"][check["ref"]]["log_torsion"]
        err = _worst([(result.get("log_torsion"), ref)])
        limit = check["tolerance"]
        what = "log_torsion"
    elif kind == "anomaly":
        closed = -abs(np.linalg.det(GEOMETRIES[check["ref"]])) / (8.0 * math.pi)
        err = _worst([(result.get("anomaly_integral"), closed)])
        limit = ANOMALY_ABS_TOL
        what = "anomaly_integral vs -Vol/(8 pi)"
    elif kind == "truncated":
        err = _worst([(result.get("cross_route_residual"), 0.0)])
        limit = CROSS_ROUTE_MAX
        what = "cross_route_residual"
    elif kind == "scaling":
        ref = refs["pinned"][check["ref"]]
        rows = result.get("rows", [])
        if [r.get("mu") for r in rows] != ref["mu"]:
            return "scaling grid differs from the pinned one"
        err = _worst(zip((r.get("tors") for r in rows), ref["tors"]))
        limit = check["tolerance"]
        what = "scaling tors"
    elif kind == "dump-zeta":
        ref = refs["pinned"][check["ref"]]
        pairs = []
        for k, want in ref.items():
            got = result.get("slices", {}).get(k, {})
            for key, value in want.items():
                pairs.append((_lookup(got, key), value))
        err = _worst(pairs)
        limit = check["tolerance"]
        what = "dump-zeta values"
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    if err <= limit:
        return None
    return f"{what} off by {err:.3e} > {limit:.1e} ({err / limit:.2f}x)"


def _lookup(doc: dict, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None

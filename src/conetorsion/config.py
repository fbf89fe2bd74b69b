"""Run configuration: schema-1 JSON documents and their validation.

A run is described by a single JSON object; no environment variables are
consulted, so a config file plus a command line reproduces a run exactly.

    {
      "schema": 1,
      "cross_section": {
        "family": "flat_torus",        // the only family
        "dim_n": 2,                    // even, >= 2
        "lattice_basis": [[1,0],[0,1]],  // invertible n x n
        "bundle_rank": 1
      },
      "cutoff": 500.0,                 // exactly one of cutoff / tolerance
      "tolerance": 1e-10,
      "epsilon": 0.25,                 // optional, truncation parameter
      "mu_grid": [2, 4, 8],            // optional, scaling study
      "output": {"path": "report.json", "format": "json"},
      "threads": 1
    }

Evaluation is single-threaded: ``threads`` is validated so that existing
schema-1 documents still load, and then dropped; no report records it, and
it does not change how a run is computed.

Validation failures raise :class:`ConfigError` carrying the dotted field
path; the CLI maps them to exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .crosssection import CrossSection, build_cross_section
from .errors import ConfigError
from .zeta import DEFAULT_TOLERANCE

SCHEMA_VERSION = 1
# the most rows a scaling grid may have (``maxItems`` of ``mu_grid``): the
# scaling tables, and so a run's memory, grow with the grid
MAX_MU_GRID = 1024
# the top-level fields of a schema-1 document (docs/config.schema.json)
FIELDS = frozenset(
    {"schema", "cross_section", "cutoff", "tolerance", "epsilon", "mu_grid", "output", "threads"}
)


@dataclass
class RunConfig:
    cross_section: CrossSection
    cutoff: Optional[float] = None
    tolerance: Optional[float] = None
    epsilon: Optional[float] = None
    mu_grid: Optional[list[float]] = None
    output_path: Optional[str] = None
    output_format: str = "json"


def _positive_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "must be a number")
    if not value > 0:
        raise ConfigError(path, "must be positive")
    # JSON's Infinity and 1e400 and the flag value "inf" arrive as inf; an
    # integer too large for binary64 makes float() raise OverflowError
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, "must be finite")
    return number


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document against schema 1."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    for key in doc:
        if key not in FIELDS:
            raise ConfigError(key, "unknown field")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"must be {SCHEMA_VERSION}")
    if "cross_section" not in doc:
        raise ConfigError("cross_section", "missing")
    cs = build_cross_section(doc["cross_section"])

    cutoff = doc.get("cutoff")
    tolerance = doc.get("tolerance")
    if cutoff is not None and tolerance is not None:
        raise ConfigError("cutoff", "give exactly one of cutoff / tolerance")
    if cutoff is not None:
        cutoff = _positive_number(cutoff, "cutoff")
    elif tolerance is not None:
        tolerance = _positive_number(tolerance, "tolerance")
    else:
        tolerance = DEFAULT_TOLERANCE

    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _positive_number(epsilon, "epsilon")
        if not epsilon < 1.0:
            raise ConfigError("epsilon", "must lie in (0, 1)")

    mu_grid = doc.get("mu_grid")
    if mu_grid is not None:
        if not isinstance(mu_grid, list) or not mu_grid:
            raise ConfigError("mu_grid", "must be a non-empty array of numbers")
        if len(mu_grid) > MAX_MU_GRID:
            raise ConfigError("mu_grid", f"must have at most {MAX_MU_GRID} entries, got {len(mu_grid)}")
        mu_grid = [
            _positive_number(v, f"mu_grid[{i}]") for i, v in enumerate(mu_grid)
        ]
        for i, v in enumerate(mu_grid):
            if v < 1.0:
                raise ConfigError(f"mu_grid[{i}]", "must be >= 1")

    output_path = None
    output_format = "json"
    output = doc.get("output")
    if output is not None:
        if not isinstance(output, dict):
            raise ConfigError("output", "must be an object")
        for key in output:
            if key not in ("path", "format"):
                raise ConfigError(f"output.{key}", "unknown field")
        output_path = output.get("path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output.path", "must be a string")
        output_format = output.get("format", "json")
        if output_format not in ("json", "csv"):
            raise ConfigError("output.format", "must be 'json' or 'csv'")

    threads = doc.get("threads", 1)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads", "must be a positive integer")

    return RunConfig(
        cross_section=cs,
        cutoff=cutoff,
        tolerance=tolerance,
        epsilon=epsilon,
        mu_grid=mu_grid,
        output_path=output_path,
        output_format=output_format,
    )


def read_config_document(path: str):
    """The parsed JSON document at ``path``; a missing, unreadable or
    malformed file raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError("$", f"config file not readable: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError("$", f"invalid JSON: {exc}") from None


def load_config(path: str) -> RunConfig:
    return parse_config(read_config_document(path))

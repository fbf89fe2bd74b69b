"""Every callable the benchmark tracer wraps exists once the CLI is imported.

``perfbench/tracer.py`` lists its targets in ``TARGETS``, by layer module;
``Tracer.install`` looks each module up in ``sys.modules`` and each name on
it, so a module the CLI imports lazily, or a renamed or removed function,
breaks the traced benchmark run.  The table is read from the tracer's source
without importing the tracer, and the check runs in a fresh interpreter, so
no other test's imports count.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _targets() -> dict[str, list[str]]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS table")


def test_tracer_targets_resolve_after_importing_the_cli():
    targets = _targets()
    assert targets and all(targets.values())
    code = """
        import functools, json, sys

        import conetorsion.cli

        missing = []
        for layer, names in json.loads(sys.argv[1]).items():
            module = sys.modules.get(f"conetorsion.{layer}")
            if module is None:
                missing.append(f"conetorsion.{layer} is not imported")
                continue
            for name in names:
                try:
                    functools.reduce(getattr, name.split("."), module)
                except AttributeError:
                    missing.append(f"conetorsion.{layer}.{name}")
        print(json.dumps(missing))
    """
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), json.dumps(targets)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []

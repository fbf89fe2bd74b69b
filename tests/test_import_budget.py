"""The production commands import only numpy from the scientific stack, and
no scipy module at all: scipy belongs to the oracles (the Bessel functions
and the first-order route of ``verify``, the brute-force Laplacian), and the
Mellin split, which serves its half-integer grid alone, reads none of it.
``verify`` loads ``scipy.special`` and no other scipy subpackage: its
Gelfand-Yaglom ODE is numpy.  Each check runs in a fresh interpreter,
because pytest itself has scipy loaded."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _config(tmp_path: Path, n: int) -> Path:
    basis = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    path = tmp_path / f"unit-t{n}.json"
    path.write_text(
        json.dumps({"schema": 1, "cross_section": {"family": "flat_torus", "dim_n": n, "lattice_basis": basis}})
    )
    return path


def test_production_commands_load_no_oracle_modules(tmp_path):
    t2, t4 = _config(tmp_path, 2), _config(tmp_path, 4)
    runs = [
        ["torsion", "--config", str(t2)],
        ["torsion", "--config", str(t4)],
        ["truncated", "--config", str(t2), "--epsilon", "0.25"],
        ["anomaly", "--config", str(t2)],
        ["scaling", "--config", str(t2), "--mu", "2,4"],
        ["dump-spectrum", "--config", str(t2)],
        ["dump-zeta", "--config", str(t2)],
        ["dump-olver", "--order", "4"],
    ]
    code = f"""
        import sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        from conetorsion import cli

        print(scipy_modules())
        for i, argv in enumerate({runs!r}):
            rc = cli.main(argv + ["--out", f"out{{i}}.json"])
            assert rc == 0, (argv, rc)
        print(scipy_modules())
    """
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    after_import, after_runs = proc.stdout.strip().splitlines()[-2:]
    assert after_import == "[]"
    assert after_runs == "[]"
    assert len(list(tmp_path.glob("out*.json"))) == len(runs)


def test_verify_passes_in_a_fresh_process(tmp_path):
    proc = _run(
        """
        import sys
        from conetorsion import cli

        sys.exit(cli.main(["verify"]))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert lines and all(line.startswith("pass") for line in lines), proc.stdout


def test_verify_loads_only_scipy_special_and_warns_nothing(tmp_path):
    """Under ``-W error::RuntimeWarning`` a numerical warning fails the run."""
    proc = _run(
        """
        import sys
        from conetorsion import cli

        rc = cli.main(["verify"])
        subpackages = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
        print(sorted(subpackages & {"integrate", "linalg", "optimize", "sparse", "special"}))
        sys.exit(rc)
        """,
        tmp_path,
        "-W",
        "error::RuntimeWarning",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "['special']"

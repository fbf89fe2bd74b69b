"""Ball-only lattice enumeration against the bounding-box scan it replaced,
its block bound, its memory and its point-count guard."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conetorsion import cli
from conetorsion import crosssection as C
from conetorsion.crosssection import build_cross_section
from conetorsion.errors import ConfigError
from conetorsion.zeta import cutoff_for_tolerance, plan_t0


def _box_scan(n, mat, radius):
    """Reference: scan the bounding box of the ball, chunked along the
    leading axis, with the same final filter as ``CrossSection._enumerate``."""
    inv = np.linalg.inv(mat)
    bounds = [int(math.floor(radius * float(np.linalg.norm(inv[i, :])) + 1e-9)) for i in range(n)]
    tail_axes = [np.arange(-b, b + 1) for b in bounds[1:]]
    tail_grid = np.meshgrid(*tail_axes, indexing="ij") if tail_axes else []
    tail = (
        np.stack([g.ravel() for g in tail_grid], axis=1).astype(float)
        if tail_axes
        else np.zeros((1, 0))
    )
    lead = np.arange(-bounds[0], bounds[0] + 1, dtype=float)
    chunk = max(1, int(4_000_000 // max(tail.shape[0], 1)))
    pieces = []
    r2 = radius * radius * (1 + 1e-12)
    for start in range(0, lead.size, chunk):
        block = lead[start : start + chunk]
        m = np.concatenate(
            [
                np.repeat(block, tail.shape[0])[:, None],
                np.tile(tail, (block.size, 1)),
            ],
            axis=1,
        )
        v = m @ mat.T
        sq = np.einsum("ij,ij->i", v, v)
        keep = (sq <= r2) & (sq > 0)
        pieces.append(sq[keep])
    return np.sort(np.concatenate(pieces)) if pieces else np.empty(0)


def _diag(n, scale):
    return (scale * np.eye(n)).tolist()


# every geometry of the benchmark workloads, plus a skinny and a
# near-square T^2
BASES = {
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
    "t2-skinny": [[1.0, 0.0], [0.0, 0.01]],
    "t2-near-square": [[1.0, 0.999], [0.0, 1.0]],
}

PRIMAL_MAX_SQ = 4.0 * 58.0  # the Mellin split's primal window at t0 = 1


def _torus(basis):
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _windows(cs):
    """(name, mat, radius) of the dual window a torsion run at tolerance
    1e-12 enumerates and of the primal window of its Mellin split."""
    cutoff = max(cutoff_for_tolerance(cs, k, 1e-12, plan_t0(cs)) for k in range(cs.dim_n))
    return [
        ("dual", cs.dual_basis(), math.sqrt(cutoff) / (2.0 * math.pi)),
        ("primal", np.asarray(cs.lattice_basis).T, math.sqrt(PRIMAL_MAX_SQ)),
    ]


@pytest.mark.parametrize("name", list(BASES))
def test_ball_enumeration_matches_box_scan(name):
    cs = _torus(BASES[name])
    for window, mat, radius in _windows(cs):
        got = cs._enumerate(mat, radius, window)
        assert np.array_equal(got, _box_scan(cs.dim_n, mat, radius)), window


@pytest.mark.parametrize(
    "name, radius, size",
    [
        ("t2-unit", 0.999, 0),
        ("t2-sheared", 0.5, 0),
        ("t4-0.7I", 0.69, 0),
        ("t2-unit", math.sqrt(2.0), 8),  # |m|^2 = 2 is a shell
        ("t4-unit", math.sqrt(3.0), 8 + 24 + 32),  # |m|^2 = 3 is a shell
    ],
)
def test_radii_below_the_shortest_vector_and_on_a_shell(name, radius, size):
    cs = _torus(BASES[name])
    mat = np.asarray(cs.lattice_basis).T
    got = cs._enumerate(mat, radius)
    assert got.size == size
    assert np.array_equal(got, _box_scan(cs.dim_n, mat, radius))


@pytest.mark.parametrize(
    "name, window",
    [
        ("t2-unit", "primal"),
        ("t2-sheared", "primal"),
        ("t2-16I", "dual"),
        ("t2-diag-0.1", "primal"),
        ("t2-skinny", "primal"),
        ("t4-unit", "dual"),
        ("t4-sheared-x2", "primal"),
    ],
)
def test_small_blocks_give_the_same_points(name, window, monkeypatch):
    """A 64-row block limit splits almost every level; the result stays
    bit-identical."""
    monkeypatch.setattr(C, "_BLOCK_ROWS", 64)
    cs = _torus(BASES[name])
    _, mat, radius = next(w for w in _windows(cs) if w[0] == window)
    assert np.array_equal(cs._enumerate(mat, radius, window), _box_scan(cs.dim_n, mat, radius))


def test_primal_window_memory_t4():
    cs = _torus(BASES["t4-0.7I"])
    tracemalloc.start()
    try:
        sq, counts = cs.primal_norms(PRIMAL_MAX_SQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == 1_104_928
    assert peak <= 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_oversized_window_raises_before_allocating():
    cs = _torus(_diag(8, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"primal window .* above the limit 1e\+08"):
            cs.primal_norms(PRIMAL_MAX_SQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.3f} MiB"


def test_dual_window_is_named():
    with pytest.raises(ConfigError, match="dual window"):
        _torus(BASES["t2-unit"]).lattice_eta_levels(cutoff=1e12)


def test_near_parallel_basis_is_a_config_error():
    cs = _torus([[1.0, 0.0], [1.0, 1e-11]])
    with pytest.raises(ConfigError, match="primal window"):
        cs.primal_norms(PRIMAL_MAX_SQ)


def test_count_guard_holds_where_the_estimate_undercounts(monkeypatch):
    """diag(100, 0.01) at |p|^2 <= 232: the estimate pi r^2 / det is 729,
    but the first axis is longer than the radius, so the ball holds the
    3,046 points of the second axis alone."""
    monkeypatch.setattr(C, "MAX_WINDOW_POINTS", 1000)
    cs = _torus([[100.0, 0.0], [0.0, 0.01]])
    with pytest.raises(ConfigError, match=r"primal window .* more than 1e\+03"):
        cs.primal_norms(PRIMAL_MAX_SQ)
    monkeypatch.undo()
    sq, counts = cs.primal_norms(PRIMAL_MAX_SQ)
    assert int(counts.sum()) == 3046


def test_count_guard_holds_below_the_line_guard(monkeypatch):
    """diag(100, 100, 0.01, 0.01) at |p|^2 <= 1: the estimate is 4.9 and no
    line holds more than 201 candidates, but the skinny plane holds about
    31,400 points, so the kept count passes the limit 5,000."""
    monkeypatch.setattr(C, "MAX_WINDOW_POINTS", 5000)
    cs = _torus(np.diag([100.0, 100.0, 0.01, 0.01]))
    with pytest.raises(ConfigError, match=r"primal window .* holds more than 5e\+03 lattice points"):
        cs.primal_norms(1.0)


@pytest.mark.parametrize("scale", [1e12, 1e200])
def test_one_line_past_the_limit_is_refused_before_allocating(tmp_path, capsys, scale):
    """det diag(s, 1/s) = 1 passes the estimate, but one partial vector has
    about s candidates, past the limit on one line.  Both windows refuse
    while that count is still a float: no allocation of s entries (61.7 TiB at
    1e12) and no overflowing integer cast (at 1e200)."""
    basis = [[scale, 0.0], [0.0, 1.0 / scale]]
    cs = _torus(basis)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"primal window .* more than 1e\+08 candidates on one line"):
            cs.primal_norms(PRIMAL_MAX_SQ)
        with pytest.raises(ConfigError, match=r"dual window .* more than 1e\+08 candidates on one line"):
            cs.lattice_eta_levels(cutoff=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.3f} MiB"
    doc = {"schema": 1, "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": basis}}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["torsion", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cross_section.lattice_basis: the " in err and " window (radius " in err


def test_skewed_basis_torsion_runs_in_bounded_memory(tmp_path):
    """[[1, 1e6], [0, 1]] generates Z^2, but its first primal line holds
    about 8.5e6 candidates: built in blocks of _BLOCK_ROWS, a torsion run
    fits in 512 MiB of address space and gives the unit T^2's log T bit for
    bit.  Built as one block, that line alone needs 65 MiB per array, and the
    run fails with a MemoryError."""
    reports = {}
    for name, shear in (("unit", 0.0), ("skewed", 1e6)):
        doc = {"schema": 1, "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1.0, shear], [0.0, 1.0]]}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        reports[name] = tmp_path / f"{name}-report.json"
        args = ["torsion", "--config", str(path), "--out", str(reports[name])]
        if name == "unit":
            assert cli.main(args) == 0
            continue
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from conetorsion.cli import main; sys.exit(main())", *args],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    unit, skewed = (json.loads(reports[name].read_text())["result"]["log_torsion"] for name in ("unit", "skewed"))
    assert skewed == unit


def test_unit_t14_torsion_exits_2_quickly(tmp_path, capsys):
    doc = {
        "schema": 1,
        "cross_section": {"family": "flat_torus", "dim_n": 14, "lattice_basis": _diag(14, 1.0)},
        "tolerance": 1e-10,
    }
    path = tmp_path / "t14.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    assert cli.main(["torsion", "--config", str(path)]) == 2
    assert time.perf_counter() - started < 10.0
    err = capsys.readouterr().err
    assert "window" in err and "above the limit 1e+08" in err


def _first_level(cs, mat):
    """Smallest squared norm of the lattice mat Z^n, grouped as the library
    groups it, from a box scan of the ball of twice the shortest generator."""
    radius = 2.0 * float(np.min(np.linalg.norm(mat, axis=0)))
    levels, _ = C.CrossSection._group(_box_scan(cs.dim_n, mat, radius))
    return levels[0]


# plus a T^2 whose first axis is far longer than the second
FIRST_LEVEL_BASES = {**BASES, "t2-wide": [[100.0, 0.0], [0.0, 0.01]]}


@pytest.mark.parametrize("name", list(FIRST_LEVEL_BASES))
def test_first_eta_and_min_primal_length_match_box_scan(name):
    """One ball of 1.1 times the shortest basis vector finds the shortest
    lattice vector, also where the basis is far from reduced."""
    cs = _torus(FIRST_LEVEL_BASES[name])
    assert cs.min_primal_length() == math.sqrt(_first_level(cs, cs.lattice_basis.T))
    assert cs.first_eta() == (2.0 * math.pi) ** 2 * _first_level(cs, cs.dual_basis())


def _count_enumerations(monkeypatch) -> list:
    calls = []
    enumerate_ = C.CrossSection._enumerate

    def counting(self, mat, radius, window="lattice"):
        calls.append(window)
        return enumerate_(self, mat, radius, window)

    monkeypatch.setattr(C.CrossSection, "_enumerate", counting)
    return calls


def _write_config(tmp_path, basis, **extra):
    doc = {
        "schema": 1,
        "cross_section": {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis},
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_unit_t14_torsion_is_refused_before_any_enumeration(tmp_path, capsys, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    path = _write_config(tmp_path, _diag(14, 1.0), tolerance=1e-10)
    assert cli.main(["torsion", "--config", path]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert (
        "cross_section.lattice_basis: the primal window (radius 4.24028) holds about "
        "3.64e+08 lattice points, above the limit 1e+08" in err
    )


def test_oversized_dual_window_is_refused_before_any_enumeration(tmp_path, capsys, monkeypatch):
    """Unit T^2 at cutoff 1e10: the primal window fits, the dual window
    (about 8e8 points) does not."""
    calls = _count_enumerations(monkeypatch)
    path = _write_config(tmp_path, _diag(2, 1.0))
    assert cli.main(["torsion", "--config", path, "--cutoff", "1e10"]) == 2
    assert calls == []
    assert "the dual window" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["torsion", "dump-spectrum"])
@pytest.mark.parametrize("n", [72, 154])
def test_high_dimensions_are_refused_by_the_window_guard(tmp_path, capsys, monkeypatch, n, command):
    """Unit T^72 and T^154 are schema-valid, and their planning stays finite:
    radius^n of the point estimate (at n = 72) and alpha^(J+1) of the
    cutoff inversion (at n = 154) pass binary64, so both are formed in logs.
    Both commands exit 2 naming the dual window, before any enumeration."""
    calls = _count_enumerations(monkeypatch)
    path = _write_config(tmp_path, _diag(n, 1.0), tolerance=1e-10)
    assert cli.main([command, "--config", path]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "cross_section.lattice_basis: the dual window" in err and "above the limit 1e+08" in err
    cs = _torus(_diag(n, 1.0))
    assert all(math.isfinite(cutoff_for_tolerance(cs, k, 1e-10, plan_t0(cs))) for k in range(n))


def test_multiplicities_past_int64_are_a_config_error(tmp_path, capsys):
    """The 0.1 I T^68 passes the window guards: its dual window at cutoff
    5000 holds the 136 points |m| = 1.  136 C(67, k) passes int64 from
    degree 21 on, but the report keeps the two apart: every degree lists
    the one level with its 136 lattice points, and its weight C(67, k) as
    an exact integer, so dump-spectrum exits 0.  (The name records the
    int64 refusal this replaced.)"""
    out = tmp_path / "s.json"
    path = _write_config(tmp_path, _diag(68, 0.1), cutoff=5000.0)
    assert cli.main(["dump-spectrum", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    slices = json.loads(out.read_text())["result"]["slices"]
    assert [sl["point_multiplicity"] for sl in slices.values()] == [math.comb(67, k) for k in range(68)]
    assert {len(sl["levels"]) for sl in slices.values()} == {1}
    assert {sl["levels"][0][1] for sl in slices.values()} == {136}
    assert 136 * math.comb(67, 21) > 2**63 - 1


def test_dump_spectrum_needs_no_primal_window(tmp_path, capsys, monkeypatch):
    """With the limit at 30 points the unit-T^2 primal window at the planned
    t0 = 0.0775 (about 56 points) is refused, but the dual window at cutoff
    100 (about 8) is not, and only the commands that build Mellin splits
    need the primal one."""
    monkeypatch.setattr(C, "MAX_WINDOW_POINTS", 30)
    path = _write_config(tmp_path, _diag(2, 1.0), cutoff=100.0)
    assert cli.main(["dump-spectrum", "--config", path, "--out", str(tmp_path / "s.json")]) == 0
    assert cli.main(["torsion", "--config", path]) == 2
    assert "the primal window" in capsys.readouterr().err


def test_group_memory_t4():
    """The T^4 0.7 I primal window: 1,104,928 sorted norms (8.4 MiB)."""
    cs = _torus(BASES["t4-0.7I"])
    values = cs._enumerate(cs.lattice_basis.T, math.sqrt(PRIMAL_MAX_SQ), "primal")
    assert values.size == 1_104_928
    tracemalloc.start()
    try:
        C.CrossSection._group(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * values.nbytes, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("name", ["t2-sheared", "t2-skinny", "t4-sheared-x2"])
def test_group_independent_of_block(name, block, monkeypatch):
    cs = _torus(BASES[name])
    values = cs._enumerate(cs.lattice_basis.T, math.sqrt(PRIMAL_MAX_SQ), "primal")
    ref_levels, ref_counts = C.CrossSection._group(values)
    monkeypatch.setattr(C, "_GROUP_BLOCK", block)
    levels, counts = C.CrossSection._group(values)
    assert np.array_equal(levels, ref_levels)
    assert np.array_equal(counts, ref_counts)

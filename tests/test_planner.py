"""The planned Mellin split point t0 and the lattice convention it relies on:
one torus gives one log T whatever basis describes it and wherever the split
cuts, each window is enumerated once, and the planned windows stay small."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conetorsion import cli, zeta
from conetorsion import crosssection as C
from conetorsion import torsion as T
from conetorsion.crosssection import build_cross_section, coclosed_spectrum
from conetorsion.errors import DomainError
from conetorsion.torsion import NumericsParams, log_torsion_cone


def _torus(basis):
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _log_t(basis, tol):
    return log_torsion_cone(_torus(basis), NumericsParams(tolerance=tol)).log_t


def _write_config(tmp_path, basis, **extra):
    doc = {
        "schema": 1,
        "cross_section": {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis},
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _count_enumerations(monkeypatch) -> list:
    """(window, points) of every enumeration."""
    calls = []
    enumerate_ = C.CrossSection._enumerate

    def counting(self, mat, radius, window="lattice"):
        out = enumerate_(self, mat, radius, window)
        calls.append((window, out.size))
        return out

    monkeypatch.setattr(C.CrossSection, "_enumerate", counting)
    return calls


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "basis, t0",
    [
        (np.eye(2), 0.0775),
        (0.25 * np.eye(2), 0.0775 / 16),
        (32 * np.eye(2), 1.0),
        (0.7 * np.eye(4), 0.0775 * 0.49),
        (np.eye(8), 0.0775),
        (10 * np.eye(8), 8.0 / 3.5**2),
    ],
    ids=["unit-t2", "0.25I-t2", "32I-t2", "0.7I-t4", "unit-t8", "10I-t8"],
)
def test_plan_t0_rule(basis, t0):
    """min(1, 0.0775 Vol^{2/n}, A_CAP / alpha_max^2): the volume term, the
    cap at 1 and, on a large T^8, the A_CAP term bind in turn."""
    assert zeta.plan_t0(_torus(basis)) == pytest.approx(t0, rel=1e-14)


def test_plan_t0_balances_the_windows():
    """At the volume term the primal and dual point estimates are equal."""
    cs = _torus([[1.3, 0.2, 0.0, 0.1], [0.0, 0.9, 0.3, 0.0], [0.0, 0.0, 1.1, -0.2], [0.0, 0.0, 0.0, 0.8]])
    t0 = zeta.plan_t0(cs)
    primal = C._estimate_points(*cs._window("primal", zeta.primal_window(t0)), "primal")
    dual = C._estimate_points(*cs._window("dual", (zeta._EXP_FLOOR + 5.0) / t0), "dual")
    assert primal == pytest.approx(dual, rel=1e-3)


def test_mellin_split_refuses_alpha2_t0_above_the_cap():
    """32 I T^2 (alpha^2 = 1/4): the volume term alone would put t0 at 79,
    where alpha^2 t0 = 19.75 > A_CAP; t0 = 32 (alpha^2 t0 = A_CAP) is
    accepted.  The slice reaches the F horizon of the smallest t0 built."""
    cs = _torus(32 * np.eye(2))
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-10, t0=1.0))
    with pytest.raises(DomainError, match="A_CAP"):
        zeta.MellinSplit(sl, 79.0)
    for t0 in (1.0, 32.0):
        assert zeta.MellinSplit(sl, t0).t0 == t0


# ---------------------------------------------------------------------------
# One lattice convention: the columns of B generate the lattice
# ---------------------------------------------------------------------------


def test_column_lattice_convention_t2():
    """[[1, 1], [0, 2]] has the columns (1, 0) and (1, 2), the lattice of
    diag(1, 2), which is diag(2, 1) rotated by a quarter turn."""
    tol = 1e-13
    assert abs(_log_t([[1.0, 1.0], [0.0, 2.0]], tol) - _log_t([[2.0, 0.0], [0.0, 1.0]], tol)) <= 1e-13


# a general upper-triangular T^4 basis: no two diagonal entries equal
T4_BASIS = np.array(
    [
        [1.0, 0.31, -0.17, 0.23],
        [0.0, 1.2, 0.29, -0.11],
        [0.0, 0.0, 0.85, 0.37],
        [0.0, 0.0, 0.0, 1.1],
    ]
)

UNIMODULAR = {
    "upper": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 0, 1]],
    "lower": [[1, 0, 0, 0], [2, 1, 0, 0], [0, 1, 1, 0], [-1, 0, 0, 1]],
    "signed-permutation": [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0, 0]],
}


def _rotation(n: int) -> np.ndarray:
    """A rotation of R^n: Q of a QR factorisation, with det Q = +1."""
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="module")
def t4_log_t():
    return _log_t(T4_BASIS, 1e-13)


@pytest.mark.parametrize("name", list(UNIMODULAR))
def test_basis_invariance_t4(t4_log_t, name):
    """B and B U generate the same lattice when U is unimodular."""
    u = np.array(UNIMODULAR[name], dtype=float)
    assert abs(np.linalg.det(u)) == pytest.approx(1.0)
    assert abs(_log_t(T4_BASIS @ u, 1e-13) - t4_log_t) <= 1e-13


def test_rotation_invariance_t4(t4_log_t):
    """Q B is an isometric torus for a rotation Q."""
    assert abs(_log_t(_rotation(4) @ T4_BASIS, 1e-13) - t4_log_t) <= 1e-13


def test_min_primal_length_takes_column_norms():
    """The columns (0.5, 0.5) and (0, 1) of [[0.5, 0], [0.5, 1]] generate a
    lattice whose shortest vectors have length sqrt(1/2); the ball of 1.1
    times the shorter row (0.5, 0) would hold none of them."""
    cs = _torus([[0.5, 0.0], [0.5, 1.0]])
    assert cs.min_primal_length() == pytest.approx(math.sqrt(0.5), rel=1e-15)


# ---------------------------------------------------------------------------
# Independence of the split point
# ---------------------------------------------------------------------------

T0_BASES = {
    "unit-t2": np.eye(2),
    "sheared-t2": [[1.0, 0.37], [0.0, 1.0]],
    "skinny-t2": [[1.0, 0.0], [0.0, 0.01]],
    "sheared-x2-t4": [
        [2.0, 0.74, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.4],
        [0.0, 0.0, 0.0, 2.0],
    ],
}


@pytest.mark.parametrize("name", list(T0_BASES))
def test_log_torsion_independent_of_t0(name, monkeypatch):
    """log T at the planned t0 against t0 / 2 and 2 t0, tolerance 1e-12;
    the report records the t0 it used."""
    plan = zeta.plan_t0
    values = {}
    for scale in (1.0, 0.5, 2.0):
        monkeypatch.setattr(T, "plan_t0", lambda cs, s=scale: s * plan(cs))
        cs = _torus(T0_BASES[name])
        report = log_torsion_cone(cs, NumericsParams(tolerance=1e-12))
        assert report.provenance["t0"] == scale * plan(cs)
        values[scale] = report.log_t
    assert abs(values[0.5] - values[1.0]) <= 1e-12
    assert abs(values[2.0] - values[1.0]) <= 1e-12


CALLER_T0_BASES = {
    "unit-t2": np.eye(2),
    "sheared-t2": [[1.0, 0.37], [0.0, 1.0]],
    "unit-t4": np.eye(4),
}


@pytest.mark.parametrize("name", list(CALLER_T0_BASES))
def test_caller_built_splits_agree_over_t0(name):
    """``build_slices`` builds the slice for the t0 its caller passes: built
    for t0 / 2, it serves splits at t0 / 2, t0 and 2 t0, with nothing
    patched, and zeta'(0, +-alpha_k) in every row k < n/2 and Tors agree
    within 1e-12."""
    cs = _torus(CALLER_T0_BASES[name])
    t0 = zeta.plan_t0(cs)
    sl = T.build_slices(cs, NumericsParams(tolerance=1e-12), t0 / 2)
    shifts = [float(cs.alpha(k)) for k in range(cs.dim_n // 2)]
    by_t0 = {t: zeta.MellinSplit(sl, t, shifts) for t in (t0 / 2, t0, 2 * t0)}
    ref = by_t0[t0]
    tors = T.tors_term(ref)
    for t, ms in by_t0.items():
        assert ms.t0 == t
        for k in range(len(shifts)):
            for sign in (+1, -1):
                gap = zeta.shifted_zeta_prime0(ms, sign, k)[0] - zeta.shifted_zeta_prime0(ref, sign, k)[0]
                assert abs(gap) <= 1e-12, (t, k, sign, gap)
        assert abs(T.tors_term(ms).value - tors.value) <= 1e-12, t


# tori whose first dual levels sit close to the shift, |alpha| / nu up to 0.995
NEAR_SHIFT_BASES = {
    "64I-t2": 64.0 * np.eye(2),
    "128I-t2": 128.0 * np.eye(2),
    "skinny-100-t2": [[100.0, 0.0], [0.0, 0.01]],
}


@pytest.mark.parametrize("name", list(NEAR_SHIFT_BASES))
def test_near_shift_tori_finish_independent_of_t0(name, monkeypatch):
    """Every K term is finite however close the shift comes to the first
    levels, so these tori finish at tolerance 1e-12, and log T moves by at
    most the tolerance over t0 in {1, 1/2, 1/4} times the planned t0."""
    plan = zeta.plan_t0
    values = []
    for scale in (1.0, 0.5, 0.25):
        monkeypatch.setattr(T, "plan_t0", lambda cs, s=scale: s * plan(cs))
        report = log_torsion_cone(_torus(NEAR_SHIFT_BASES[name]), NumericsParams(tolerance=1e-12))
        assert math.isfinite(report.log_t)
        values.append(report.log_t)
    assert max(values) - min(values) <= 1e-12, values


# ---------------------------------------------------------------------------
# Enumeration counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, argv, windows",
    [
        pytest.param(2, ["torsion"], ["dual", "primal"], id="2"),
        pytest.param(4, ["torsion"], ["dual", "primal"], id="4"),
        pytest.param(2, ["truncated", "--epsilon", "0.25"], ["dual", "primal"], id="truncated"),
        pytest.param(2, ["scaling", "--mu", "2,4,8,16,32,64"], ["dual", "primal"], id="scaling"),
        pytest.param(2, ["dump-zeta"], ["dual", "primal"], id="dump-zeta"),
        pytest.param(2, ["dump-spectrum"], ["dual"], id="dump-spectrum"),
    ],
)
def test_torsion_enumerates_each_window_once(tmp_path, monkeypatch, n, argv, windows):
    """The slice cutoff needs no enumeration, so a run of each command on
    the unit T^n enumerates one dual window (the cutoff of degree 0, shared
    by every degree) and, when it builds a Mellin split, one primal window
    (shared by every row of the split); ids 2 and 4 are ``torsion`` on T^2
    and T^4."""
    calls = _count_enumerations(monkeypatch)
    path = _write_config(tmp_path, np.eye(n).tolist(), tolerance=1e-10)
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path / "r.out")]) == 0
    assert sorted(window for window, _ in calls) == windows


# (scale, shear): three scales and two shears of an upper triangular basis
_CUTOFF_TORI = [(scale, shear) for scale in (0.5, 1.0, 8.0) for shear in (0.0, 0.37)]


@pytest.mark.parametrize("n", range(2, 18, 2))
def test_degree_zero_sets_the_dual_window(n):
    """The K-tail cutoff grows with |alpha|, largest in degree 0, and the
    Mellin-horizon and first-eta floors do not depend on the degree, so
    degree 0's cutoff, which ``build_slices`` enumerates, is the largest of
    the degrees' at the planned t0, on three scales and two shears at every
    tolerance from 1e-6 to 1e-14."""
    for scale, shear in _CUTOFF_TORI:
        cs = _torus(scale * (np.eye(n) + shear * np.eye(n, k=1)))
        t0 = zeta.plan_t0(cs)
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            params = NumericsParams(tolerance=tol)
            cutoffs = [params.slice_cutoff(cs, k, t0) for k in range(n // 2)]
            assert cutoffs[0] == max(cutoffs), (scale, shear, tol, cutoffs)


@pytest.mark.parametrize("n", [6, 8])
def test_unit_t6_and_t8_windows_stay_small(tmp_path, monkeypatch, n):
    """A unit T^6 or T^8 torsion run finishes, and each of its windows holds
    fewer than 1e6 points."""
    calls = _count_enumerations(monkeypatch)
    path = _write_config(tmp_path, np.eye(n).tolist(), tolerance=1e-10)
    out = tmp_path / "r.json"
    assert cli.main(["torsion", "--config", path, "--out", str(out)]) == 0
    assert sorted(window for window, _ in calls) == ["dual", "primal"]
    assert all(points < 1e6 for _, points in calls), calls
    assert math.isfinite(json.loads(out.read_text())["result"]["log_torsion"])


# ---------------------------------------------------------------------------
# One planner
# ---------------------------------------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conetorsion"
# the callers that plan t0: splits for a run, and the slices dump-spectrum lists
T0_PLANNERS = {("torsion", "build_splits"), ("cli", "cmd_dump_spectrum")}
# t0 parameters that may have a default: the first-order oracle keeps its
# documented t0 = 1, independent of the planner, and slice_cutoff's t0 = inf
# (no Mellin horizon) serves perfbench/make_refs.py, which calls it with
# (cs, k) and builds its own split windows
T0_DEFAULTS = {
    ("firstorder", "FirstOrderZeta.__init__"),
    ("firstorder", "first_order_shifted"),
    ("torsion", "NumericsParams.slice_cutoff"),
}


def _functions(node, prefix=""):
    """(qualified name, def) of every def under ``node``, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")


def _body_nodes(fn):
    """Every node of ``fn``'s body outside the defs nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_t0_is_planned_in_one_place():
    """``plan_t0`` is called only by ``build_splits`` and
    ``cmd_dump_spectrum``; every other function takes t0 from its caller,
    and no t0 parameter has a default outside ``T0_DEFAULTS``."""
    callers, defaults = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            where = (path.stem, name)
            for node in _body_nodes(fn):
                if isinstance(node, ast.Call) and "plan_t0" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add(where)
            args = fn.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults) :]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if any(a.arg == "t0" for a in with_default):
                defaults.add(where)
    assert callers == T0_PLANNERS
    assert defaults == T0_DEFAULTS

"""The numpy E_1 and the half-integer upper incomplete gamma behind the
Mellin tail sum F, against mpmath at 40 digits, and the F table against
its power form."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from conetorsion import zeta
from conetorsion.crosssection import build_cross_section, coclosed_spectrum
from conetorsion.torsion import NumericsParams, log_torsion_cone
from reference_oracles import f_table_ref, upper_gamma_grid


def _points() -> np.ndarray:
    """mu t0 over the F horizon [1e-4, 50], dense around the E_1 switch at 1."""
    one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    return np.concatenate([np.geomspace(1e-4, 50.0, 400), np.linspace(0.9, 1.1, 81), one])


def _rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / ref))


def _e1_ref(x: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(mpmath.e1(v)) for v in x.tolist()])


def test_exp1_matches_mpmath():
    x = _points()
    assert _rel_error(zeta.exp1(x), _e1_ref(x)) <= 2e-15


def test_exp1_table_matches_mpmath():
    """The tabulated range (1, 64] densely, with every node, every boundary
    between two nodes and the points either side of it, where a step is
    longest, and the continued fraction past 64."""
    bounds = zeta._E1_BOUNDS
    edges = [np.nextafter(1.0, 2.0), np.nextafter(64.0, 0.0), 64.0, np.nextafter(64.0, 65.0)]
    x = np.concatenate([
        np.geomspace(1.0 + 1e-12, 64.0, 2000),
        zeta._E1_NODES[zeta._E1_NODES <= 64.0],
        bounds,
        np.nextafter(bounds, 0.0),
        np.nextafter(bounds, 100.0),
        edges,
        np.geomspace(64.0, 700.0, 200),
    ])
    assert _rel_error(zeta.exp1(x), _e1_ref(x)) <= 2e-15


def test_upper_gamma_grid_matches_mpmath():
    x = _points()
    r_max = zeta.default_order(6)
    grid = upper_gamma_grid(x, r_max)
    assert len(grid) == r_max + 1
    assert np.array_equal(grid[0], zeta.exp1(x))
    with mpmath.workdps(40):
        for r in range(1, r_max + 1):
            ref = np.array([float(mpmath.gammainc(mpmath.mpf(r) / 2, v)) for v in x.tolist()])
            assert _rel_error(grid[r], ref) <= 1e-14, r


def _diag(n, scale):
    return (scale * np.eye(n)).tolist()


# every geometry of the benchmark workloads and the skinny T^2
F_BASES = {
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
}


@pytest.mark.parametrize("name", list(F_BASES))
def test_f_table_matches_its_power_form(name):
    """The recurrence g_(s+1) = (s g_s + t0^s e^(-mu t0)) / mu of the F
    table against sum m mu^(-sigma) Gamma(sigma, mu t0) with the gamma grid
    and one power per sigma, at every row of the split a torsion run builds
    at tolerance 1e-10 and of a two-mu scaling grid."""
    basis = np.asarray(F_BASES[name], dtype=float)
    n = basis.shape[0]
    cs = build_cross_section({"family": "flat_torus", "dim_n": n, "lattice_basis": basis.tolist()})
    t0 = zeta.plan_t0(cs)
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-10, t0))
    a2 = np.array([(cs.alpha(k) / mu) ** 2 for mu in (1.0, 3.0) for k in range(n // 2)])
    grid = np.arange(zeta.default_order(n) + 1) / 2.0
    got = zeta._f_table(sl, a2, t0, grid)
    ref = f_table_ref(sl, a2, t0, grid)
    assert got.shape == ref.shape == (a2.size, grid.size)
    assert np.all(ref > 0.0)
    assert _rel_error(got, ref) <= 1e-15


def test_exp1_runs_no_continued_fraction_up_to_64(monkeypatch):
    """E_1 on (1, 64] reads the Taylor table alone: the continued fraction,
    whose depth 20 + 80 / x grows to 100 near 1, runs only for the entries
    past 64, and a torsion run on 32 I T^2, whose F reaches mu t0 = 50,
    never enters it."""
    seen = []
    fraction = zeta._e1_fraction
    monkeypatch.setattr(zeta, "_e1_fraction", lambda x: seen.append(x.copy()) or fraction(x))
    zeta.exp1(np.concatenate([[0.5, 1.0], np.geomspace(np.nextafter(1.0, 2.0), 64.0, 1000)]))
    assert seen == []
    zeta.exp1(np.array([2.0, 64.0, np.nextafter(64.0, 65.0), 100.0]))
    assert len(seen) == 1 and np.array_equal(seen[0], [np.nextafter(64.0, 65.0), 100.0])
    seen.clear()
    cs = build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": _diag(2, 32.0)})
    log_torsion_cone(cs, NumericsParams(tolerance=1e-10))
    assert seen == []

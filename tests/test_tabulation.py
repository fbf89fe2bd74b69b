"""Per-split tabulation of the Mellin continuation: the A table is filled
once per split and the PP row once per split and sigma, tabulated values
equal freshly computed ones bit for bit whatever the request order, and
harmonic numbers come from a once-per-process table."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conetorsion import zeta
from conetorsion.crosssection import build_cross_section
from conetorsion.olver import harmonic_number
from conetorsion.torsion import NumericsParams, build_slices, build_splits, log_torsion_cone
from reference_oracles import a_table_ref, shifted_zeta_prime0_ref

GEOMETRIES = {
    "unit-t2": np.eye(2),
    "sheared-t2": [[1.0, 0.37], [0.0, 1.0]],
    "unit-t4": np.eye(4),
}


def _torus(basis):
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _requests(n: int) -> list[tuple]:
    """Every (method, argument, row) a torsion run asks of a split, in each
    row k < n/2: PP values and residues at r = 1..J and zeta'(0), and A at
    the half-integers off its poles in the first row."""
    j = zeta.default_order(n)
    reqs = []
    for row in range(n // 2):
        reqs += [("pp_s", r, row) for r in range(1, j + 1)] + [("residue", r, row) for r in range(1, j + 1)]
        reqs.append(("zeta_prime0", row))
    return reqs + [("a_value", r / 2.0) for r in range(1, j + 1) if r % 2 or r > n]


def _ask(ms: zeta.MellinSplit, req: tuple):
    if req[0] == "residue":
        return ms.heats[req[2]].residue(req[1])
    return getattr(ms, req[0])(*req[1:])


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_split_values_do_not_depend_on_request_order(name):
    """Forward order, reversed order and one fresh split per request give
    the same bits in every row of the built slice's split, one row per
    degree k < n/2."""
    cs = _torus(GEOMETRIES[name])
    t0 = zeta.plan_t0(cs)
    reqs = _requests(cs.dim_n)
    sl = build_slices(cs, NumericsParams(tolerance=1e-10), t0)
    shifts = [float(cs.alpha(k)) for k in range(cs.dim_n // 2)]
    forward = zeta.MellinSplit(sl, t0, shifts)
    backward = zeta.MellinSplit(sl, t0, shifts)
    want = {req: _ask(forward, req) for req in reqs}
    assert {req: _ask(backward, req) for req in reversed(reqs)} == want
    assert {req: _ask(zeta.MellinSplit(sl, t0, shifts), req) for req in reqs} == want
    # a second request is served from the split's tables
    assert {req: _ask(forward, req) for req in reqs} == want


def test_log_torsion_sums_each_a_series_once(unit_t4, monkeypatch):
    """On unit T^4 a torsion run builds one split and sums its A series
    once, counted at the A table fill itself rather than at the calls;
    later requests at every grid sigma and row are read off the table."""
    fills = [0]
    splits = []
    a_table = zeta._a_table
    init = zeta.MellinSplit.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        splits.append(self)

    def counting_table(*args):
        fills[0] += 1
        return a_table(*args)

    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    monkeypatch.setattr(zeta, "_a_table", counting_table)
    log_torsion_cone(unit_t4, NumericsParams(tolerance=1e-10))
    assert len(splits) == 1
    for ms in splits:  # every grid sigma and row, asked twice
        for sigma in ms._grid.tolist():
            for row in range(len(ms.shifts)):
                ms.a_residue_and_finite(sigma, row)
                ms.a_residue_and_finite(sigma, row)
    # every split has a table, so one fill per split is at most one each
    assert fills[0] == len(splits) > 0


def test_log_torsion_assembles_each_pp_value_once(unit_t4, monkeypatch):
    """On unit T^4 a torsion run assembles the PP values once: on the one
    split of the built slice one B quadrature fills the whole sigma grid of
    both rows, and the PP table at s = 1..J is computed once, from the B, F
    and A tables, when the split is built, however often the shifted
    derivatives read it."""
    quads: Counter = Counter()
    fills: Counter = Counter()
    b_quad, pp_table = zeta.MellinSplit._b_quad, zeta.MellinSplit._pp_table

    def counted_quad(self, sigmas):
        quads[id(self)] += 1
        return b_quad(self, sigmas)

    def counted_table(self):
        fills[id(self)] += 1
        return pp_table(self)

    monkeypatch.setattr(zeta.MellinSplit, "_b_quad", counted_quad)
    monkeypatch.setattr(zeta.MellinSplit, "_pp_table", counted_table)
    log_torsion_cone(unit_t4, NumericsParams(tolerance=1e-10))
    assert sorted(quads.values()) == sorted(fills.values()) == [1]
    assert quads.keys() == fills.keys()


def test_harmonic_number_matches_the_fraction_sum():
    for m in range(41):
        exact = sum((Fraction(1, j) for j in range(1, m + 1)), start=Fraction(0))
        assert harmonic_number(m) == exact
        assert harmonic_number(m) == exact  # served from the table


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_row_tables_equal_the_per_row_loops(name):
    """The A table and the shifted derivatives of a 32-row scaling split,
    and of a split whose shifts are negated, equal bit for bit the per-row
    loops that the row-vectorised tables replaced: ``HeatModel.coefficient``
    per (row, j), and the Mellin sum term by term per (row, sign)."""
    cs = _torus(GEOMETRIES[name])
    params = NumericsParams(tolerance=1e-10)
    split = build_splits(cs, params, [2.0 ** (k / 5.0) for k in range(32)])
    h = cs.dim_n // 2
    negated = zeta.MellinSplit(split.sl, split.t0, [-cs.alpha(k) for k in range(h)])
    for ms in (split, negated):
        widths = [15 + 3 * (i % 4) for i in range(len(ms.shifts))]
        got, ref = zeta._a_table(ms.heats, ms.t0, ms._grid, widths), a_table_ref(ms.heats, ms.t0, ms._grid, widths)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]) and got[2] == ref[2]
        for row in range(len(ms.shifts)):
            for sign in (+1, -1):
                assert zeta.shifted_zeta_prime0(ms, sign, row) == shifted_zeta_prime0_ref(ms, sign, row), (row, sign)

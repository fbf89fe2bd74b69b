"""Per-split tabulation of the Mellin continuation: every A value, A residue
and finite part, and PP value is computed once per split and key, cached
values equal freshly computed ones bit for bit whatever the request order,
and harmonic numbers come from a once-per-process table."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conetorsion import zeta
from conetorsion.crosssection import build_cross_section
from conetorsion.olver import harmonic_number
from conetorsion.torsion import NumericsParams, build_slices, log_torsion_cone

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
    """Every (method, argument) a torsion run asks of a split: PP values and
    residues at r = 1..J, A at the half-integers off its poles, and zeta'(0)."""
    j = zeta.default_order(n)
    reqs = [("pp_s", r) for r in range(1, j + 1)] + [("residue_s", r) for r in range(1, j + 1)]
    reqs += [("a_value", r / 2.0) for r in range(1, j + 1) if r % 2 or r > n]
    return reqs + [("zeta_prime0",)]


def _ask(ms: zeta.MellinSplit, req: tuple):
    return getattr(ms, req[0])(*req[1:])


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_split_values_do_not_depend_on_request_order(name):
    """Forward order, reversed order and one fresh split per request give
    the same bits on every built slice."""
    cs = _torus(GEOMETRIES[name])
    t0 = zeta.plan_t0(cs)
    reqs = _requests(cs.dim_n)
    for sl in build_slices(cs, NumericsParams(tolerance=1e-10)).values():
        forward = zeta.MellinSplit(sl, t0)
        backward = zeta.MellinSplit(sl, t0)
        want = {req: _ask(forward, req) for req in reqs}
        assert {req: _ask(backward, req) for req in reversed(reqs)} == want
        assert {req: _ask(zeta.MellinSplit(sl, t0), req) for req in reqs} == want
        # a second request is served from the split's tables
        assert {req: _ask(forward, req) for req in reqs} == want


def test_log_torsion_sums_each_a_series_once(unit_t4, monkeypatch):
    """On unit T^4 a torsion run sums the A series at most once per split and
    sigma, counted at the summation itself rather than at the calls."""
    summations = [0]
    per_key: Counter = Counter()
    splits = []

    class CountingSeries(list):
        def __iter__(self):
            summations[0] += 1
            return super().__iter__()

    init = zeta.MellinSplit.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._a_series = CountingSeries(self._a_series)
        splits.append(self)

    def attribute(method):
        def counted(self, sigma):
            before = summations[0]
            try:
                return method(self, sigma)
            finally:
                per_key[(id(self), sigma)] += summations[0] - before

        return counted

    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    for name in ("a_value", "a_residue_and_finite"):
        monkeypatch.setattr(zeta.MellinSplit, name, attribute(getattr(zeta.MellinSplit, name)))
    log_torsion_cone(unit_t4, NumericsParams(tolerance=1e-10))
    assert len(splits) == unit_t4.dim_n // 2
    for ms in splits:  # a value off the run's grid, asked twice
        ms.a_value(0.25)
        ms.a_value(0.25)
    assert summations[0] == sum(per_key.values()) > 0
    assert max(per_key.values()) == 1


def test_log_torsion_assembles_each_pp_value_once(unit_t4, monkeypatch):
    """On unit T^4 a torsion run assembles each PP value once per split: B
    is read once per split and sigma = r/2 > 0 (sigma = 0 is zeta'(0)), on
    the n/2 splits of the built slices."""
    reads: Counter = Counter()
    b_value = zeta.MellinSplit.b_value

    def counted(self, sigma):
        reads[(id(self), sigma)] += 1
        return b_value(self, sigma)

    monkeypatch.setattr(zeta.MellinSplit, "b_value", counted)
    log_torsion_cone(unit_t4, NumericsParams(tolerance=1e-10))
    pp_reads = [count for (_, sigma), count in reads.items() if sigma > 0]
    assert len(pp_reads) == unit_t4.dim_n // 2 * zeta.default_order(unit_t4.dim_n)
    assert max(pp_reads) == 1


def test_harmonic_number_matches_the_fraction_sum():
    for m in range(41):
        exact = sum((Fraction(1, j) for j in range(1, m + 1)), start=Fraction(0))
        assert harmonic_number(m) == exact
        assert harmonic_number(m) == exact  # served from the table

"""The batched B quadrature: the lattice kernel ``theta_sums`` against a
plain sum over its cut prefix, the vectorised lattice remainder against the
scalar one node by node, independence of the kernel's block size (production
B and the first-order B1), its memory on the skinny torus, its node count
against scipy's ``quad_vec`` running the scalar remainder, the quadrature it
replaced, and its starting breaks, from which every benchmark B converges in
two rounds, or in none when the primal window is empty."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from conetorsion import crosssection, zeta
from conetorsion.crosssection import THETA_CUT, CrossSection, build_cross_section, coclosed_spectrum, theta_sums
from conetorsion.firstorder import FirstOrderZeta
from reference_oracles import remainder_ref

# the benchmark geometries (lattice basis rows)
BENCH = {
    "t2-unit": np.eye(2),
    "t2-sheared": np.array([[1.0, 0.37], [0.0, 1.0]]),
    "t2-16I": 16.0 * np.eye(2),
    "t2-24I": 24.0 * np.eye(2),
    "t2-32I": 32.0 * np.eye(2),
    "t2-diag-0.1": np.diag([1.0, 0.1]),
    "t2-0.25I": 0.25 * np.eye(2),
    "t4-unit": np.eye(4),
    "t4-sheared-x2": 2.0 * np.array(
        [[1.0, 0.37, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.0, 1.0]]
    ),
    "t4-0.7I": 0.7 * np.eye(4),
}
SKINNY = np.diag([1.0, 0.01])


def _torus(basis) -> CrossSection:
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _splits(basis, t0: float = 1.0):
    """One split per distinct alpha^2: the per-point remainder depends on
    the slice through it alone.  The slices reach the summation horizon of
    the F table, which each split computes when it is built."""
    cs = _torus(basis)
    seen = {}
    for k in range(cs.dim_n):
        ms = zeta.MellinSplit(coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0)), t0)
        seen.setdefault(float(ms.a2[0]), ms)
    return list(seen.values())


@pytest.mark.parametrize("log_scale", ["scalar", "per-node"])
def test_theta_sums_match_a_plain_sum_over_the_cut_prefix(log_scale, monkeypatch):
    """Each node's sum against ``math.fsum`` over the levels with
    levels_j <= (THETA_CUT + log_scale_i) spreads_i, in blocks small enough
    that the nodes, sorted by prefix, span several of them."""
    levels, counts = _torus(BENCH["t2-sheared"]).primal_norms(400.0)
    spreads = np.geomspace(0.05, 4.0, 40)
    shift = 3.5 if log_scale == "scalar" else np.linspace(-30.0, 30.0, spreads.size)
    monkeypatch.setattr(crosssection, "_THETA_BLOCK", 500)
    got = theta_sums(levels, counts, spreads, shift)
    for i, spread in enumerate(spreads.tolist()):
        cut = (THETA_CUT + float(np.broadcast_to(shift, spreads.shape)[i])) * spread
        ref = math.fsum(c * math.exp(-x / spread) for x, c in zip(levels.tolist(), counts.tolist()) if x <= cut)
        assert abs(got[i] - ref) <= 1e-14 * ref, (i, got[i], ref)


@pytest.mark.parametrize("t0", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("name", [*BENCH, "t2-skinny"])
def test_remainders_match_scalar(name, t0):
    basis = SKINNY if name == "t2-skinny" else BENCH[name]
    t = np.concatenate([np.geomspace(1e-4, t0, 200), t0 * (0.5 + 0.5 * zeta._GK21_X)])
    for ms in _splits(basis, t0):
        got = ms._remainders(t)[:, 0]
        ref = np.array([remainder_ref(ms, float(x)) for x in t])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + 1e-300), ms.a2


def _first_order_b1(basis) -> np.ndarray:
    """The first-order B1 of every slice k < n/2 for both signs, each pair
    from a fresh oracle with the rows +alpha and -alpha."""
    cs = _torus(basis)
    values = []
    for k in range(cs.dim_n // 2):
        sl = coclosed_spectrum(cs, k, 50.0)
        fo = FirstOrderZeta(sl, (sl.alpha, -sl.alpha))
        values += [fo.b1[row] for row in (0, 1)]
    return np.array(values)


@pytest.mark.parametrize("block", [1, 300, 5000])
@pytest.mark.parametrize("name", ["t2-unit", "t2-diag-0.1", "t4-0.7I", "t2-skinny"])
def test_b_independent_of_block_size(name, block, monkeypatch):
    basis = SKINNY if name == "t2-skinny" else BENCH[name]
    for ms in _splits(basis):
        ref, _ = ms._b_quad(ms._grid)
        monkeypatch.setattr(crosssection, "_THETA_BLOCK", block)
        got, _ = ms._b_quad(ms._grid)
        monkeypatch.undo()
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (got - ref) / ref


@pytest.mark.parametrize("block", [1, 300, 5000])
@pytest.mark.parametrize("name", ["t2-unit", "t2-sheared", "t2-diag-0.1", "t4-0.7I"])
def test_first_order_b1_independent_of_block_size(name, block, monkeypatch):
    """The first-order oracle runs the same kernel on both sides of u_c."""
    ref = _first_order_b1(BENCH[name])
    monkeypatch.setattr(crosssection, "_THETA_BLOCK", block)
    got = _first_order_b1(BENCH[name])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (got - ref) / ref


def test_b_fill_memory_skinny_torus():
    """18,284 primal levels at t0 = 1 and 861 nodes: evaluated at once, the
    node x level table alone would be 126 MB.  The split runs its B
    quadrature when it is built; the primal window is enumerated (and
    cached on the cross-section) before the trace starts."""
    cs = _torus(SKINNY)
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8, 1.0))
    cs.primal_norms(zeta.primal_window(1.0))
    tracemalloc.start()
    try:
        ms = zeta.MellinSplit(sl, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ms._p_sq.size == 18_284
    assert 0 < peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("name", list(BENCH))
def test_node_count_matches_quad_vec(name):
    for ms in _splits(BENCH[name]):
        sigmas = ms._grid
        scalar_nodes = 0

        def integrand(t):
            nonlocal scalar_nodes
            scalar_nodes += 1
            return t ** (sigmas - 1.0) * remainder_ref(ms, t)

        ref, _, info = integrate.quad_vec(
            integrand, 0.0, ms.t0, norm="max", full_output=True, **zeta._QUAD_OPTS
        )
        assert info.success
        batched_nodes = 0
        remainders = ms._remainders

        def counting(t):
            nonlocal batched_nodes
            batched_nodes += t.size
            return remainders(t)

        ms._remainders = counting
        got, _ = ms._b_quad(sigmas)
        assert batched_nodes <= 1.1 * scalar_nodes, (batched_nodes, scalar_nodes)
        assert np.all(np.abs(got - ref) <= 1e-13 + 1e-12 * np.abs(ref))


def test_remainder_breaks():
    """Geometric breaks by 4 from where the first shell's term reaches
    e^-750, and the single panel without a primal point below ``upper``."""
    breaks = zeta.remainder_breaks(np.array([3.0, 5.0]), 0.1)
    lo = 3.0 / (4.0 * 750.0)
    assert breaks == [0.0, lo, 4 * lo, 16 * lo, 64 * lo, 0.1]
    assert zeta.remainder_breaks(np.array([]), 0.1) == [0.0, 0.1]
    assert zeta.remainder_breaks(np.array([400.0]), 0.1) == [0.0, 0.1]


@pytest.mark.parametrize("name", ["t2-16I", "t2-24I", "t2-32I"])
def test_empty_primal_window_skips_the_b_quadrature(name, monkeypatch):
    """At the planned t0 these tori hold no primal point in the window, so
    the remainder is 0 at every node: B is 0 with error 0 at every grid
    sigma, without a Gauss-Kronrod round."""
    rounds = []
    panels = zeta._gk21_panels
    monkeypatch.setattr(zeta, "_gk21_panels", lambda *a: rounds.append(1) or panels(*a))
    for ms in _splits(BENCH[name], zeta.plan_t0(_torus(BENCH[name]))):
        assert ms._p_sq.size == 0
        assert [ms.b_value(s) for s in ms._grid.tolist()] == [(0.0, 0.0)] * ms._grid.size
    assert rounds == []


@pytest.mark.parametrize("name", list(BENCH))
def test_planned_b_takes_two_rounds(name, monkeypatch):
    """Started from its breaks, each B of the benchmark geometries at the
    planned t0 converges in the starting round and one bisection round.
    Counted at the construction of each split, which runs its B quadrature;
    a split with a primal point takes at least the starting round."""
    rounds = []
    panels = zeta._gk21_panels
    monkeypatch.setattr(zeta, "_gk21_panels", lambda *a: rounds.append(1) or panels(*a))
    cs = _torus(BENCH[name])
    t0 = zeta.plan_t0(cs)
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0))
        rounds.clear()
        ms = zeta.MellinSplit(sl, t0)
        assert len(rounds) <= 2, (ms.a2, len(rounds))
        assert len(rounds) >= 1 or ms._p_sq.size == 0, ms.a2

"""The batched B quadrature: the vectorised lattice remainder against the
scalar one node by node, independence of its block size, its memory on the
skinny torus, its node count against scipy's ``quad_vec`` running the
scalar remainder, the quadrature it replaced, and its starting breaks,
from which every benchmark B converges in two rounds."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from conetorsion import zeta
from conetorsion.crosssection import CrossSection, build_cross_section, coclosed_spectrum
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
    """One split per distinct (kappa, alpha^2): the remainder depends on the
    slice through these alone, not on the spectral cutoff."""
    cs = _torus(basis)
    seen = {}
    for k in range(cs.dim_n):
        ms = zeta.MellinSplit(coclosed_spectrum(cs, k, 0.0), t0)
        seen.setdefault((ms.kappa, ms.a2), ms)
    return list(seen.values())


@pytest.mark.parametrize("t0", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("name", [*BENCH, "t2-skinny"])
def test_remainders_match_scalar(name, t0):
    basis = SKINNY if name == "t2-skinny" else BENCH[name]
    t = np.concatenate([np.geomspace(1e-4, t0, 200), t0 * (0.5 + 0.5 * zeta._GK21_X)])
    for ms in _splits(basis, t0):
        got = ms._remainders(t)
        ref = np.array([remainder_ref(ms, float(x)) for x in t])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + 1e-300), (ms.kappa, ms.a2)


@pytest.mark.parametrize("block", [1, 300, 5000])
@pytest.mark.parametrize("name", ["t2-unit", "t2-diag-0.1", "t4-0.7I", "t2-skinny"])
def test_b_independent_of_block_size(name, block, monkeypatch):
    basis = SKINNY if name == "t2-skinny" else BENCH[name]
    for ms in _splits(basis):
        ref, _ = ms._b_quad(ms._grid)
        monkeypatch.setattr(zeta, "_BLOCK_SIZE", block)
        got, _ = ms._b_quad(ms._grid)
        monkeypatch.undo()
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (got - ref) / ref


def test_b_fill_memory_skinny_torus():
    """18,284 primal levels at t0 = 1 and 861 nodes: evaluated at once, the
    node x level table alone would be 126 MB."""
    (ms,) = _splits(SKINNY)
    assert ms._p_sq.size == 18_284
    tracemalloc.start()
    try:
        ms.b_value(0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


@pytest.mark.parametrize("name", list(BENCH))
def test_planned_b_takes_two_rounds(name, monkeypatch):
    """Started from its breaks, each B of the benchmark geometries at the
    planned t0 converges in the starting round and one bisection round."""
    rounds = []
    panels = zeta._gk21_panels
    monkeypatch.setattr(zeta, "_gk21_panels", lambda *a: rounds.append(1) or panels(*a))
    for ms in _splits(BENCH[name], zeta.plan_t0(_torus(BENCH[name]))):
        rounds.clear()
        ms.b_value(0.0)
        assert len(rounds) <= 2, (ms.kappa, ms.a2, len(rounds))

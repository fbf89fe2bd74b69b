"""Terms that cannot change a binary64 result are not evaluated, and each
term is evaluated once per torsion run: the pruned lattice remainder and the
Horner K series against the full forms they replace, and one Mellin split
per slice in ``log_torsion_cone``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conetorsion import zeta
from conetorsion.crosssection import CrossSection, build_cross_section, coclosed_spectrum
from conetorsion.errors import DomainError
from conetorsion.torsion import NumericsParams, log_torsion_cone

# the benchmark geometries and the skinny torus (lattice basis rows)
GEOMETRIES = {
    "t2-unit": np.eye(2),
    "t2-sheared": np.array([[1.0, 0.37], [0.0, 1.0]]),
    "t2-16I": 16.0 * np.eye(2),
    "t2-24I": 24.0 * np.eye(2),
    "t2-32I": 32.0 * np.eye(2),
    "t2-diag-0.1": np.diag([1.0, 0.1]),
    "t2-0.25I": 0.25 * np.eye(2),
    "t2-skinny": np.diag([1.0, 0.01]),
    "t4-unit": np.eye(4),
    "t4-sheared-x2": 2.0 * np.array(
        [[1.0, 0.37, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.0, 1.0]]
    ),
    "t4-0.7I": 0.7 * np.eye(4),
}


def _torus(basis) -> CrossSection:
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _remainder_ref(ms: zeta.MellinSplit, t: float) -> float:
    """R(t) summed over every primal norm, exponents clamped at 745."""
    if ms._p_sq.size == 0 or t <= 0.0:
        return 0.0
    expo = ms._p_sq / (4.0 * t)
    vals = np.exp(-np.minimum(expo, 745.0)) * ms._p_counts
    s_p = float(vals.sum())
    return ms.kappa * ms.v_n * t ** (-ms.h) * math.exp(-ms.a2 * t) * s_p


def _k_direct_ref(sl, c: float, order: int) -> tuple[float, float]:
    """The order-J K series from the full levels x extra power table."""
    nu = sl.nu()
    x = c / nu
    xmax = float(np.max(np.abs(x)))
    extra = min(400, max(8, int(math.ceil(-zeta._EXP_FLOOR / math.log(max(xmax, 1e-12))))))
    powers = np.power.outer(-x, np.arange(order + 1, order + 1 + extra))
    series = powers / np.arange(order + 1, order + 1 + extra)
    terms = series.sum(axis=1) * sl.mult
    return math.fsum(terms.tolist()), zeta._k_tail_bound(sl.tail, c, float(nu[-1]), order)


@pytest.mark.parametrize("t0", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_remainder_matches_full_sum(name, t0):
    cs = _torus(GEOMETRIES[name])
    seen = set()
    for k in range(cs.dim_n):
        # the remainder depends on the slice through (kappa, alpha^2) only;
        # the spectral cutoff plays no part in it
        ms = zeta.MellinSplit(coclosed_spectrum(cs, k, 0.0), t0)
        if (ms.kappa, ms.a2) in seen:
            continue
        seen.add((ms.kappa, ms.a2))
        for t in np.geomspace(1e-4, t0, 200):
            got, ref = ms._remainder(float(t)), _remainder_ref(ms, float(t))
            assert abs(got - ref) <= 1e-15 * abs(ref) + 1e-300, (k, t, got, ref)


def test_remainder_empty_window_and_nonpositive_t():
    cs = _torus(GEOMETRIES["t2-unit"])
    sl = coclosed_spectrum(cs, 0, 0.0)
    empty = zeta.MellinSplit(sl, 1e-3)  # primal window 4 t0 (50 + 8) < 1
    assert empty._p_sq.size == 0
    assert empty._remainder(1e-3) == 0.0
    full = zeta.MellinSplit(sl, 1.0)
    assert full._p_sq.size > 0
    assert full._remainder(0.0) == 0.0
    assert full._remainder(-0.5) == 0.0


@pytest.mark.parametrize("order_shift", [0, 6])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("name", ["t2-unit", "t2-sheared", "t2-32I", "t4-sheared-x2"])
def test_k_direct_matches_power_table(name, sign, order_shift):
    cs = _torus(GEOMETRIES[name])
    order = cs.dim_n + order_shift
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-10))
        c = sign * sl.alpha
        got, bound = zeta._k_direct(sl, c, order)
        ref, ref_bound = _k_direct_ref(sl, c, order)
        assert abs(got - ref) <= 1e-14 * abs(ref), (k, got, ref)
        assert bound == ref_bound


def test_k_direct_rejects_shift_close_to_levels():
    cs = _torus(GEOMETRIES["t2-32I"])
    sl = coclosed_spectrum(cs, 0, 50.0).with_alpha(1.5)  # 1.5 / nu_min ~ 0.99
    with pytest.raises(DomainError, match="too close to 1"):
        zeta._k_direct(sl, sl.alpha, cs.dim_n)


@pytest.mark.parametrize("name", ["t2-unit", "t4-unit"])
def test_log_torsion_cone_builds_each_split_once(name, monkeypatch):
    cs = _torus(GEOMETRIES[name])
    params = NumericsParams(tolerance=1e-8)
    built = []
    init = zeta.MellinSplit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    report = log_torsion_cone(cs, params)
    assert len(built) == cs.dim_n // 2
    monkeypatch.undo()
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, params.slice_cutoff(cs, k))
        fresh, _ = zeta.shifted_zeta_prime0(sl, +1)
        assert report.per_slice[k]["shifted_prime0_plus"] == fresh

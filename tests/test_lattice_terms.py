"""Terms that cannot change a binary64 result are not evaluated, and each
term is evaluated once per torsion run: the pruned lattice remainder against
the full sum it replaces, the K series against a 40-digit sum of its terms,
and one Mellin split per torus in ``log_torsion_cone``."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from conetorsion import zeta
from conetorsion.crosssection import CrossSection, build_cross_section, coclosed_spectrum, theta_heat_coeffs
from conetorsion.torsion import NumericsParams, log_torsion_cone
from reference_oracles import remainder_ref

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
# tori whose first levels sit close to the shift, |alpha| / nu up to 0.99
NEAR_GEOMETRIES = {
    "t2-64I": 64.0 * np.eye(2),
    "t2-diag-100-0.01": np.diag([100.0, 0.01]),
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
    return ms.v_n * t ** (-ms.h) * math.exp(-float(ms.a2[0]) * t) * s_p


def _k_direct_ref(sl, c: float, order: int) -> float:
    """The order-J K series sum m (-log1p(x) - sum_{r<=J} (-x)^r / r),
    x = c / nu, over the slice levels, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        a2 = mpmath.mpf(sl.alpha) ** 2
        inverse = [mpmath.mpf(1) / r for r in range(order, 0, -1)]
        total = mpmath.mpf(0)
        for eta, m in zip(sl.eta.tolist(), sl.counts.tolist()):
            x = c / mpmath.sqrt(mpmath.mpf(eta) + a2)
            head = mpmath.mpf(0)  # sum_{r<=J} (-x)^(r-1) / r by Horner
            for inv in inverse:
                head = head * -x + inv
            total += m * (-mpmath.log1p(x) + x * head)
        return float(total)


@pytest.mark.parametrize("t0", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_remainder_matches_full_sum(name, t0):
    cs = _torus(GEOMETRIES[name])
    seen = set()
    for k in range(cs.dim_n):
        # the per-point remainder depends on the slice through alpha^2 only;
        # the cutoff reaches the horizon of the split's F table
        ms = zeta.MellinSplit(coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0)), t0)
        if float(ms.a2[0]) in seen:
            continue
        seen.add(float(ms.a2[0]))
        for t in np.geomspace(1e-4, t0, 200):
            got, ref = remainder_ref(ms, float(t)), _remainder_ref(ms, float(t))
            assert abs(got - ref) <= 1e-15 * abs(ref) + 1e-300, (k, t, got, ref)


def test_remainder_empty_window_and_nonpositive_t():
    cs = _torus(GEOMETRIES["t2-unit"])
    # the cutoff for the smaller t0 reaches the F horizon of both splits
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8, 1e-3))
    empty = zeta.MellinSplit(sl, 1e-3)  # primal window 4 t0 (50 + 8) < 1
    assert empty._p_sq.size == 0
    assert remainder_ref(empty, 1e-3) == 0.0
    full = zeta.MellinSplit(sl, 1.0)
    assert full._p_sq.size > 0
    assert remainder_ref(full, 0.0) == 0.0
    assert remainder_ref(full, -0.5) == 0.0


@pytest.mark.parametrize("order_shift", [0, 6, 10])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("name", ["t2-unit", "t2-sheared", "t2-32I", "t4-sheared-x2", *NEAR_GEOMETRIES])
def test_k_direct_matches_power_table(name, sign, order_shift):
    """``_k_direct`` against the 40-digit sum of the same series terms, at
    orders n, n + 6 and the default J = n + 10, reading the sign's column
    of the one pass that sums both signs."""
    cs = _torus({**GEOMETRIES, **NEAR_GEOMETRIES}[name])
    order = cs.dim_n + order_shift
    column = 0 if sign > 0 else 1
    # slice n-1-k is slice k with the shift negated, which the other sign covers
    for k in range(cs.dim_n // 2):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-10, zeta.plan_t0(cs)))
        c = sign * sl.alpha
        values, bounds = zeta._k_direct(sl, [sl.alpha], order)
        got, bound = values[0][column], bounds[0][column]
        ref = _k_direct_ref(sl, c, order)
        assert abs(got - ref) <= 1e-14 * abs(ref), (k, got, ref)
        dens = theta_heat_coeffs(cs, k).residue(cs.dim_n)
        assert bound == zeta._k_tail_bound(dens, cs.dim_n, c, float(sl.nu()[-1]), order)


@pytest.mark.parametrize("name", ["t2-unit", "t2-sheared", "t4-sheared-x2", *NEAR_GEOMETRIES])
def test_k_direct_rows_equal_their_own_pass(name):
    """Each row of a many-shift K pass (the scaling grid alpha / mu, mu = 1,
    2, 4, ..., 64) equals, bit for bit, the pass over its shift alone: a
    Horner tail step reaches only the rows whose tails are that long, so
    each row sees its own steps."""
    cs = _torus({**GEOMETRIES, **NEAR_GEOMETRIES}[name])
    order = zeta.default_order(cs.dim_n)
    for k in range(cs.dim_n // 2):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-10, zeta.plan_t0(cs)))
        shifts = [sl.alpha / mu for mu in (1, 2, 4, 8, 16, 32, 64)]
        values, bounds = zeta._k_direct(sl, shifts, order)
        for a, row, row_bounds in zip(shifts, values, bounds):
            assert (row, row_bounds) == tuple(x[0] for x in zeta._k_direct(sl, [a], order)), (k, a)


def test_k_tail_takes_at_most_53_terms(monkeypatch):
    """The far tail of ``_k_direct`` sums to 2^-53 of its first term, the
    resolution of binary64: 53 Horner steps at |x| = 1/2, fewer below, in
    every row of the K passes of the benchmark tori and the near-shift
    geometries."""
    assert zeta._k_tail_terms(0.5) == 53
    assert max(zeta._k_tail_terms(x) for x in np.linspace(0.0, 0.5, 501).tolist()) == 53
    lengths = []
    tail_terms = zeta._k_tail_terms
    monkeypatch.setattr(zeta, "_k_tail_terms", lambda x: lengths.append((x, tail_terms(x))) or lengths[-1][1])
    for basis in {**GEOMETRIES, **NEAR_GEOMETRIES}.values():
        cs = _torus(basis)
        sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-10, zeta.plan_t0(cs)))
        shifts = [cs.alpha(k) / mu for mu in (1, 4) for k in range(cs.dim_n // 2)]
        zeta._k_direct(sl, shifts, zeta.default_order(cs.dim_n))
    assert lengths and all(x <= 0.5 and steps <= 53 for x, steps in lengths), lengths


def test_k_direct_takes_shift_close_to_levels():
    """Every K term is finite, since nu > |c| on every level: a shift with
    |c| / nu_min ~ 0.99 is summed, not refused."""
    cs = _torus(GEOMETRIES["t2-32I"])
    sl = dataclasses.replace(coclosed_spectrum(cs, 0, 50.0), alpha=1.5)
    order = zeta.default_order(cs.dim_n)
    (both,), _ = zeta._k_direct(sl, [sl.alpha], order)
    for sign, got in zip((+1, -1), both):
        ref = _k_direct_ref(sl, sign * sl.alpha, order)
        assert abs(got - ref) <= 1e-14 * abs(ref), (sign, got, ref)


@pytest.mark.parametrize("name", ["t2-unit", "t4-unit"])
def test_log_torsion_cone_builds_each_split_once(name, monkeypatch):
    """One split serves every degree: degree k reports kappa_k times
    zeta'(0, +alpha_k) per lattice point, read off row k of a split over the
    shifts alpha_j, j < n/2, and degree n-1-k off row k at -alpha_k."""
    cs = _torus(GEOMETRIES[name])
    params = NumericsParams(tolerance=1e-8)
    built = []
    init = zeta.MellinSplit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zeta.MellinSplit, "__init__", counting_init)
    report = log_torsion_cone(cs, params)
    assert len(built) == 1
    monkeypatch.undo()
    n, h, t0 = cs.dim_n, cs.dim_n // 2, zeta.plan_t0(cs)
    sl = coclosed_spectrum(cs, 0, max(params.slice_cutoff(cs, k, t0) for k in range(h)))
    fresh = zeta.MellinSplit(sl, t0, [float(cs.alpha(k)) for k in range(h)])
    for k in range(n):
        row, sign = (k, +1) if k < h else (n - 1 - k, -1)
        value, _ = zeta.shifted_zeta_prime0(fresh, sign, row)
        assert report.per_slice[k]["shifted_prime0_plus"] == cs.coclosed_point_multiplicity(k) * value

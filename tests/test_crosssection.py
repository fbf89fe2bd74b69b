"""Cross-section spectra: topology, enumeration, heat model, and the
brute-force Hodge-Laplacian oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conetorsion.crosssection import (
    GROUP_TOL,
    CrossSection,
    brute_force_form_laplacian,
    build_cross_section,
    coclosed_spectrum,
    betti_numbers,
    theta_heat_coeffs,
)
from conetorsion.errors import ConfigError, DomainError, ExperimentalUnsupportedError
from conetorsion.zeta import cutoff_for_tolerance


def test_build_examples():
    cs = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]]}
    )
    assert cs.volume == pytest.approx(1.0)
    assert cs.euler_characteristic() == 0
    cs2 = build_cross_section(
        {
            "family": "flat_torus",
            "dim_n": 2,
            "lattice_basis": [[2 * math.pi, 0], [0, 2 * math.pi]],
        }
    )
    assert cs2.volume == pytest.approx(4 * math.pi**2)
    shear = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0.5], [0, 1]]}
    )
    assert shear.volume == pytest.approx(1.0)


def test_build_rejections():
    with pytest.raises(ConfigError, match="dim_n"):
        build_cross_section({"family": "flat_torus", "dim_n": 3, "lattice_basis": np.eye(3).tolist()})
    with pytest.raises(ConfigError, match="lattice_basis"):
        build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 1], [1, 1]]})
    with pytest.raises(ConfigError, match="family"):
        build_cross_section({"family": "klein_bottle", "dim_n": 2})
    with pytest.raises(ConfigError, match="unknown"):
        build_cross_section(
            {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "spin": 1}
        )


def test_betti_numbers(unit_t2, unit_t4):
    assert betti_numbers(unit_t2) == ([1, 2, 1], 0)
    assert betti_numbers(unit_t4) == ([1, 4, 6, 4, 1], 0)
    rank3 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 3}
    )
    betti, chi = betti_numbers(rank3)
    assert betti[0] == 3 and chi == 0


def test_first_levels(unit_t2):
    sl = coclosed_spectrum(unit_t2, 0, 500.0)
    assert sl.eta[0] == pytest.approx(4 * math.pi**2, rel=1e-14)
    assert sl.mult[0] == 4
    sl1 = coclosed_spectrum(unit_t2, 1, 500.0)
    assert np.array_equal(sl.eta, sl1.eta)
    assert np.array_equal(sl.mult, sl1.mult)


def test_empty_slice_is_valid(unit_t2):
    sl = coclosed_spectrum(unit_t2, 0, 1.0)
    assert sl.eta.size == 0


def test_degree_range(unit_t2):
    with pytest.raises(DomainError):
        coclosed_spectrum(unit_t2, 2, 100.0)
    with pytest.raises(DomainError):
        coclosed_spectrum(unit_t2, -1, 100.0)


def test_duality_of_slices(unit_t2, unit_t4):
    for cs in (unit_t2, unit_t4):
        n = cs.dim_n
        for k in range(n):
            a = coclosed_spectrum(cs, k, 900.0)
            b = coclosed_spectrum(cs, n - 1 - k, 900.0)
            assert np.array_equal(a.eta, b.eta)
            assert np.array_equal(a.mult, b.mult)
            assert a.alpha == -b.alpha


def test_weyl_law_three_cutoffs(unit_t2):
    for lam in (500.0, 2000.0, 8000.0):
        sl = coclosed_spectrum(unit_t2, 0, lam)
        count = int(sl.mult.sum())
        assert abs(count - sl.tail.expected_count(lam)) <= sl.tail.count_bound(lam)


def test_oracle_agreement_t2(unit_t2):
    for k in (0, 1):
        oracle = brute_force_form_laplacian(unit_t2, k, 2)
        bound = (2 * 2 * math.pi) ** 2 * (1 + 1e-9)  # complete within the box
        sl = coclosed_spectrum(unit_t2, k, bound)
        pairs = [(lv.eta, lv.mult) for lv in oracle if lv.eta <= bound]
        assert len(pairs) >= 3
        assert len(pairs) == sl.eta.size
        for (eo, mo), es, ms in zip(pairs, sl.eta, sl.mult):
            assert abs(eo - es) / es <= 1e-9
            assert mo == ms


def test_oracle_agreement_t4(unit_t4):
    for k in (0, 1, 2):
        oracle = brute_force_form_laplacian(unit_t4, k, 1)
        sl = coclosed_spectrum(unit_t4, k, 100.0)
        # first level fits inside the |m|_inf <= 1 box
        assert abs(oracle[0].eta - sl.eta[0]) / sl.eta[0] <= 1e-9
        assert oracle[0].mult == sl.mult[0]
        kappa = unit_t4.coclosed_point_multiplicity(k)
        assert oracle[0].mult == 8 * kappa  # 8 nearest lattice vectors


def test_hodge_dimension_count(unit_t2, unit_t4):
    """Coclosed counts at degrees k and k-1 add to the full k-form count per
    lattice point (Hodge decomposition with no harmonic part for m != 0)."""
    for cs in (unit_t2, unit_t4):
        n = cs.dim_n
        cut = 1
        points = (2 * cut + 1) ** n - 1
        counts = {}
        for k in range(n):
            levels = brute_force_form_laplacian(cs, k, cut)
            counts[k] = sum(lv.mult for lv in levels)
        counts[n] = points * math.comb(n - 1, n - 1 - 1)  # top degree: C(n-1, n) = 0 coclosed... skip
        for k in range(1, n):
            total = counts[k] + counts[k - 1]
            assert total == cs.bundle_rank * math.comb(n, k) * points


def test_rank_scaling():
    rank2 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 2}
    )
    sl = coclosed_spectrum(rank2, 0, 500.0)
    assert sl.mult[0] == 8
    assert theta_heat_coeffs(rank2, 0).coefficient(0) == pytest.approx(2 / (4 * math.pi))


def test_heat_coefficients_unit_t2(unit_t2):
    """Derived by multiplying (1/(4 pi t) - 1) by e^{-t/4} and collecting
    orders; the same expansion holds for k = 1 (identical slices by duality,
    the subtracted constant is the per-point multiplicity, not b_1)."""
    for k in (0, 1):
        hm = theta_heat_coeffs(unit_t2, k)
        assert hm.coefficient(0) == pytest.approx(1 / (4 * math.pi), rel=1e-15)
        assert hm.coefficient(1) == pytest.approx(-1 / (16 * math.pi) - 1, rel=1e-15)
        assert hm.coefficient(2) == pytest.approx(1 / (128 * math.pi) + 0.25, rel=1e-15)


def test_leading_weyl_coefficient(unit_t4):
    for k in range(4):
        hm = theta_heat_coeffs(unit_t4, k)
        kappa = unit_t4.coclosed_point_multiplicity(k)
        assert hm.coefficient(0) == pytest.approx(kappa * unit_t4.volume / (4 * math.pi) ** 2)


def test_theta_direct_vs_expansion(unit_t2):
    """Direct truncated summation of Theta_k at t in {0.5, 1, 2} agrees with
    the finite heat expansion within the stated remainder bound (which at
    these t values is dominated by the lattice remainder)."""
    sl = coclosed_spectrum(unit_t2, 0, 4000.0)
    a2 = sl.alpha**2
    for t in (0.5, 1.0, 2.0):
        direct = float(np.sum(sl.mult * np.exp(-(sl.eta + a2) * t)))
        expansion = sl.heat.truncated_expansion(t)
        assert abs(direct - expansion) <= sl.heat_remainder_bound(t)


def test_exact_model_part(unit_t2):
    """The un-truncated model equals the direct sum up to the lattice
    remainder, which is exponentially small for small t (first primal shell
    dominates on the unit torus)."""
    sl = coclosed_spectrum(unit_t2, 0, 40000.0)
    a2 = sl.alpha**2
    for t in (0.05, 0.1):
        direct = float(np.sum(sl.mult * np.exp(-(sl.eta + a2) * t)))
        shell = 4.0 / (4.0 * math.pi) * math.exp(-1.0 / (4.0 * t)) / t
        diff = abs(direct - sl.heat.model_part(t))
        assert diff <= 2.0 * shell
        assert diff >= 0.5 * shell  # the remainder really is the lattice term


def test_sphere_gating():
    sphere = build_cross_section({"family": "round_sphere", "dim_n": 2, "radius": 1.0})
    assert sphere.volume == pytest.approx(4 * math.pi)
    assert betti_numbers(sphere) == ([1, 0, 1], 2)
    with pytest.raises(ExperimentalUnsupportedError):
        coclosed_spectrum(sphere, 0, 100.0)
    with pytest.raises(ExperimentalUnsupportedError):
        theta_heat_coeffs(sphere, 0)
    # a user-supplied table is accepted as-is
    sl = coclosed_spectrum(sphere, 0, 100.0, spectrum_table=[(2.0, 3), (6.0, 5)])
    assert sl.eta.tolist() == [2.0, 6.0]
    assert sl.mult.tolist() == [3, 5]


def test_brute_force_size_guard(unit_t4):
    with pytest.raises(DomainError):
        brute_force_form_laplacian(unit_t4, 2, 6)
    with pytest.raises(DomainError):
        brute_force_form_laplacian(unit_t4, 1, 0)


def test_shear_torus_spectrum():
    shear = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0.5], [0, 1]]}
    )
    sl = coclosed_spectrum(shear, 0, 400.0)
    oracle = brute_force_form_laplacian(shear, 0, 2)
    for lv, es, ms in zip(oracle[:3], sl.eta[:3], sl.mult[:3]):
        assert abs(lv.eta - es) / es <= 1e-9
        assert lv.mult == ms


def test_with_alpha_keeps_levels(unit_t2):
    sl = coclosed_spectrum(unit_t2, 0, 500.0)
    mod = sl.with_alpha(0.125)
    assert mod.alpha == 0.125
    assert mod.eta is sl.eta
    assert mod.heat.alpha == 0.125


def _group_loop(values):
    """Reference grouping: extend a level while values stay within
    GROUP_TOL * (1 + first member) of its first member."""
    out_vals, out_counts = [], []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[start] > GROUP_TOL * (1.0 + values[start]):
            out_vals.append(float(np.mean(values[start:i])))
            out_counts.append(i - start)
            start = i
    return np.asarray(out_vals), np.asarray(out_counts, dtype=int)


_BENCH_BASES = {
    "unit-t2": np.eye(2),
    "sheared-t2": [[1, 0.37], [0, 1]],
    "16I-t2": 16 * np.eye(2),
    "24I-t2": 24 * np.eye(2),
    "32I-t2": 32 * np.eye(2),
    "diag-t2": [[1, 0], [0, 0.1]],
    "quarter-t2": 0.25 * np.eye(2),
    "unit-t4": np.eye(4),
    "sheared-t4": 2 * np.array([[1, 0.37, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.2], [0, 0, 0, 1]]),
    "0.7I-t4": 0.7 * np.eye(4),
}


@pytest.mark.parametrize("name", list(_BENCH_BASES))
def test_group_matches_loop(name):
    """Vectorised grouping against the loop on the dual and primal windows a
    torsion run at tolerance 1e-12 enumerates."""
    basis = np.asarray(_BENCH_BASES[name], dtype=float)
    n = basis.shape[0]
    cs = build_cross_section({"family": "flat_torus", "dim_n": n, "lattice_basis": basis.tolist()})
    cutoff = max(cutoff_for_tolerance(cs, k, 1e-12) for k in range(n))
    windows = [
        (cs.dual_basis(), math.sqrt(cutoff) / (2.0 * math.pi)),
        (basis.T, math.sqrt(4.0 * 58.0)),  # the Mellin split's primal window at t0 = 1
    ]
    for mat, radius in windows:
        values = cs._enumerate(mat, radius)
        means, counts = CrossSection._group(values)
        ref_means, ref_counts = _group_loop(values)
        assert np.array_equal(counts, ref_counts)
        assert np.all(np.abs(means - ref_means) <= 1e-15 * np.abs(ref_means))

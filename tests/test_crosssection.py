"""Cross-section spectra: topology, enumeration, heat model, and the
brute-force Hodge-Laplacian oracle, which with the heat-remainder and Weyl
count bounds is a test reference in ``reference_oracles``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conetorsion.crosssection import (
    GROUP_TOL,
    CrossSection,
    build_cross_section,
    coclosed_spectrum,
    theta_heat_coeffs,
)
from conetorsion.errors import ConfigError, DomainError
from conetorsion.zeta import cutoff_for_tolerance
from reference_oracles import (
    brute_force_form_laplacian,
    count_bound,
    expected_count,
    heat_remainder_bound,
    model_part,
    truncated_expansion,
)


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
    def betti_and_chi(cs):
        return [cs.betti(k) for k in range(cs.dim_n + 1)], cs.euler_characteristic()

    assert betti_and_chi(unit_t2) == ([1, 2, 1], 0)
    assert betti_and_chi(unit_t4) == ([1, 4, 6, 4, 1], 0)
    rank3 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 3}
    )
    assert betti_and_chi(rank3) == ([3, 6, 3], 0)


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
        assert abs(count - expected_count(sl, lam)) <= count_bound(sl, lam)


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


WEYL_TORI = {
    "unit-t2": (np.eye(2), 1),
    "sheared-t2": ([[1.0, 0.37], [0.0, 1.0]], 1),
    "rank3-t2": (np.eye(2), 3),
    "16I-t2": (16.0 * np.eye(2), 1),
    "unit-t4": (np.eye(4), 1),
    "sheared-x2-t4": (2.0 * np.array([[1, 0.37, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.2], [0, 0, 0, 1]]), 1),
    "rank2-0.7I-t6": (0.7 * np.eye(6), 2),
}


@pytest.mark.parametrize("name", list(WEYL_TORI))
def test_weyl_density_is_the_leading_residue(name):
    """The Weyl density that bounds every K-series tail and sets every slice
    cutoff is the leading residue Res_{s=n} zeta_k = 2 kappa Vol /
    ((4 pi)^{n/2} Gamma(n/2)) in every degree (measured gap 1.8e-16)."""
    basis, rank = WEYL_TORI[name]
    cs = build_cross_section(
        {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": np.asarray(basis).tolist(), "bundle_rank": rank}
    )
    for k in range(cs.dim_n):
        residue = theta_heat_coeffs(cs, k).residue(cs.dim_n)
        assert cs.weyl_density(k) == pytest.approx(residue, rel=4.4e-16, abs=0.0), k


def test_theta_direct_vs_expansion(unit_t2):
    """Direct truncated summation of Theta_k at t in {0.5, 1, 2} agrees with
    the finite heat expansion within the stated remainder bound (which at
    these t values is dominated by the lattice remainder)."""
    sl = coclosed_spectrum(unit_t2, 0, 4000.0)
    a2 = sl.alpha**2
    for t in (0.5, 1.0, 2.0):
        direct = float(np.sum(sl.mult * np.exp(-(sl.eta + a2) * t)))
        expansion = truncated_expansion(sl, t)
        assert abs(direct - expansion) <= heat_remainder_bound(sl, t)


def test_exact_model_part(unit_t2):
    """The un-truncated model equals the direct sum up to the lattice
    remainder, which is exponentially small for small t (first primal shell
    dominates on the unit torus)."""
    sl = coclosed_spectrum(unit_t2, 0, 40000.0)
    a2 = sl.alpha**2
    for t in (0.05, 0.1):
        direct = float(np.sum(sl.mult * np.exp(-(sl.eta + a2) * t)))
        shell = 4.0 / (4.0 * math.pi) * math.exp(-1.0 / (4.0 * t)) / t
        diff = abs(direct - model_part(sl, t))
        assert diff <= 2.0 * shell
        assert diff >= 0.5 * shell  # the remainder really is the lattice term


@pytest.mark.parametrize(
    "block, field",
    [
        ({"family": "round_sphere", "dim_n": 2, "radius": 1.0}, "cross_section.family"),
        (
            {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "radius": 1.0},
            "cross_section.radius",
        ),
        ({"family": "flat_torus", "dim_n": 2}, "cross_section.lattice_basis"),
    ],
    ids=["round-sphere-family", "radius-key", "missing-lattice-basis"],
)
def test_flat_torus_is_the_only_family(block, field):
    with pytest.raises(ConfigError) as info:
        build_cross_section(block)
    assert info.value.field == field


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

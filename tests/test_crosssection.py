"""Cross-section spectra: topology, enumeration, heat model, and the
brute-force Hodge-Laplacian oracle, which with the heat-remainder and Weyl
count bounds is a test reference in ``reference_oracles``."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conetorsion import cli
from conetorsion import torsion as T
from conetorsion.crosssection import (
    GROUP_TOL,
    CrossSection,
    build_cross_section,
    coclosed_spectrum,
    theta_heat_coeffs,
)
from conetorsion.errors import ConfigError, DomainError
from conetorsion.zeta import cutoff_for_tolerance, plan_t0
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


@pytest.mark.parametrize(
    "basis, cause",
    [
        ([[1.0, 1.0], [1.0, 1.0]], "matrix is singular"),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], "matrix is singular"),
        ([[1e200, 0.0], [0.0, 1e200]], "determinant is not finite"),
    ],
    ids=["equal-columns", "near-equal-columns", "overflowing-det"],
)
def test_singular_and_non_finite_bases_exit_2(tmp_path, capsys, basis, cause):
    """|det| at most 1e-12 of the product of the column lengths (the
    Hadamard bound) is singular, whatever the torus's scale; a determinant
    that is not finite is refused with its own cause."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "cross_section": {"family": "flat_torus", "dim_n": 2, "lattice_basis": basis}}))
    assert cli.main(["torsion", "--config", str(path)]) == 2
    assert f"cross_section.lattice_basis: {cause}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "basis",
    [0.03 * np.eye(8), 0.01 * np.eye(8), np.diag([1e-7, 1e-6])],
    ids=["0.03I-t8", "0.01I-t8", "diag-1e-7-1e-6-t2"],
)
def test_small_tori_are_not_singular(basis):
    """det 6.6e-13 (0.03 I T^8), 1e-16 (0.01 I T^8) and 1e-13 are small
    only by the torus's scale: each basis is orthogonal, at the Hadamard
    bound."""
    cs = build_cross_section({"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()})
    assert cs.volume == pytest.approx(float(np.prod(np.diag(basis))), rel=1e-14)


def test_small_t8_torsion_runs(tmp_path, capsys):
    """0.01 I T^8, refused as singular by an absolute determinant threshold,
    assembles a finite log T."""
    doc = {"schema": 1, "cross_section": {"family": "flat_torus", "dim_n": 8, "lattice_basis": (0.01 * np.eye(8)).tolist()}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["torsion", "--config", str(path)]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["result"]["log_torsion"])


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
    assert sl.counts[0] == 4
    sl1 = coclosed_spectrum(unit_t2, 1, 500.0)
    assert np.array_equal(sl.eta, sl1.eta)
    assert np.array_equal(sl.counts, sl1.counts)


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
            assert np.array_equal(a.counts, b.counts)
            assert cs.coclosed_point_multiplicity(k) == cs.coclosed_point_multiplicity(n - 1 - k)
            assert a.alpha == -b.alpha


def test_weyl_law_three_cutoffs(unit_t2):
    for lam in (500.0, 2000.0, 8000.0):
        sl = coclosed_spectrum(unit_t2, 0, lam)
        count = int(sl.counts.sum())
        assert abs(count - expected_count(sl, lam)) <= count_bound(sl, lam)


def test_oracle_agreement_t2(unit_t2):
    for k in (0, 1):
        oracle = brute_force_form_laplacian(unit_t2, k, 2)
        bound = (2 * 2 * math.pi) ** 2 * (1 + 1e-9)  # complete within the box
        sl = coclosed_spectrum(unit_t2, k, bound)
        pairs = [(lv.eta, lv.mult) for lv in oracle if lv.eta <= bound]
        assert len(pairs) >= 3
        assert len(pairs) == sl.eta.size
        for (eo, mo), es, count in zip(pairs, sl.eta, sl.counts):
            assert abs(eo - es) / es <= 1e-9
            assert mo == unit_t2.coclosed_point_multiplicity(k) * count


def test_oracle_agreement_t4(unit_t4):
    for k in (0, 1, 2):
        oracle = brute_force_form_laplacian(unit_t4, k, 1)
        sl = coclosed_spectrum(unit_t4, k, 100.0)
        # first level fits inside the |m|_inf <= 1 box
        assert abs(oracle[0].eta - sl.eta[0]) / sl.eta[0] <= 1e-9
        kappa = unit_t4.coclosed_point_multiplicity(k)
        assert sl.counts[0] == 8  # 8 nearest lattice vectors
        assert oracle[0].mult == kappa * sl.counts[0]


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
    """The rank enters as the weight alone: the counts and the per-point
    heat model are those of rank 1."""
    sl = coclosed_spectrum(rank2, 0, 500.0)
    weight = rank2.coclosed_point_multiplicity(0)
    assert (sl.counts[0], weight) == (4, 2)
    assert weight * theta_heat_coeffs(rank2, 0).coefficient(0) == pytest.approx(2 / (4 * math.pi))


def test_heat_coefficients_unit_t2(unit_t2):
    """Derived by multiplying (1/(4 pi t) - 1) by e^{-t/4} and collecting
    orders; the same expansion holds for k = 1 (identical slices by duality,
    the subtracted constant is one lattice point's, not b_1)."""
    for k in (0, 1):
        hm = theta_heat_coeffs(unit_t2, k)
        assert hm.coefficient(0) == pytest.approx(1 / (4 * math.pi), rel=1e-15)
        assert hm.coefficient(1) == pytest.approx(-1 / (16 * math.pi) - 1, rel=1e-15)
        assert hm.coefficient(2) == pytest.approx(1 / (128 * math.pi) + 0.25, rel=1e-15)


def test_leading_weyl_coefficient(unit_t4):
    """Per lattice point the leading coefficient is Vol / (4 pi)^2 in every
    degree; degree k weighs it by rank C(3, k)."""
    for k in range(4):
        hm = theta_heat_coeffs(unit_t4, k)
        assert hm.coefficient(0) == pytest.approx(unit_t4.volume / (4 * math.pi) ** 2)
        assert unit_t4.coclosed_point_multiplicity(k) == math.comb(3, k)


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
    """The log Weyl density that sets every cutoff is the log of the leading
    residue Res_{s=n} zeta = 2 Vol / ((4 pi)^{n/2} Gamma(n/2)) per lattice
    point, which bounds every K-series tail, in every degree and at every
    rank (measured gap 1.78e-15, one ulp of the log on the T^6)."""
    basis, rank = WEYL_TORI[name]
    cs = build_cross_section(
        {"family": "flat_torus", "dim_n": len(basis), "lattice_basis": np.asarray(basis).tolist(), "bundle_rank": rank}
    )
    for k in range(cs.dim_n):
        log_residue = math.log(theta_heat_coeffs(cs, k).residue(cs.dim_n))
        assert cs.log_weyl_density() == pytest.approx(log_residue, rel=0.0, abs=1.8e-15), k


def test_theta_direct_vs_expansion(unit_t2):
    """Direct truncated summation of Theta_k at t in {0.5, 1, 2} agrees with
    the finite heat expansion within the stated remainder bound (which at
    these t values is dominated by the lattice remainder)."""
    sl = coclosed_spectrum(unit_t2, 0, 4000.0)
    a2 = sl.alpha**2
    for t in (0.5, 1.0, 2.0):
        direct = float(np.sum(sl.counts * np.exp(-(sl.eta + a2) * t)))
        expansion = truncated_expansion(sl, t)
        assert abs(direct - expansion) <= heat_remainder_bound(sl, t)


def test_exact_model_part(unit_t2):
    """The un-truncated model equals the direct sum up to the lattice
    remainder, which is exponentially small for small t (first primal shell
    dominates on the unit torus)."""
    sl = coclosed_spectrum(unit_t2, 0, 40000.0)
    a2 = sl.alpha**2
    for t in (0.05, 0.1):
        direct = float(np.sum(sl.counts * np.exp(-(sl.eta + a2) * t)))
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
    for lv, es, count in zip(oracle[:3], sl.eta[:3], sl.counts[:3]):
        assert abs(lv.eta - es) / es <= 1e-9
        assert lv.mult == shear.coclosed_point_multiplicity(0) * count


def _group_loop(values):
    """Reference grouping: extend a level while values stay within
    GROUP_TOL * (first member) of its first member."""
    out_vals, out_counts = [], []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[start] > GROUP_TOL * values[start]:
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
    cutoff = max(cutoff_for_tolerance(cs, k, 1e-12, plan_t0(cs)) for k in range(n))
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


def _t2_tors(basis) -> float:
    cs = build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": basis})
    return T.tors_term(T.build_splits(cs, T.NumericsParams())).value


@pytest.mark.parametrize(
    "length, c_of_l", [(0.5, 0.2106632711), (1.0, 0.3111597168), (4.0, 0.3737331428)], ids=["0.5", "1", "4"]
)
def test_a_short_primal_vector_keeps_its_shells(length, c_of_l):
    """A short primal vector puts squared norms below 1e-12, where a grouping
    gap of GROUP_TOL * (1 + previous) merged distinct shells into their
    mean (on diag(1, eps), 0.145 and 0.444 off at 3e-7 and 1e-7).  On
    diag(L, eps) T^2 the collapse law holds: Tors - (L / 2 pi) ln(eps) stays
    within 1e-9 of its value at eps = 1e-5 down to eps = 1e-7, and that value
    is C(L) to the 10 digits pinned here (at L = 4 and eps = 1e-7 the gap
    is 9.5e-10)."""
    line = {}
    for eps in (1e-4, 1e-5, 1e-6, 3e-7, 1e-7):
        line[eps] = _t2_tors([[length, 0.0], [0.0, eps]]) - length * math.log(eps) / (2.0 * math.pi)
    assert all(abs(v - line[1e-5]) <= 1e-9 for v in line.values()), line
    assert abs(line[1e-5] - c_of_l) <= 1e-10


def test_a_small_torus_keeps_its_shells():
    """Tors / c on c I T^2 at c = 1e-6, whose squared norms are all below
    1e-11, is within 1e-8 of its value at c = 1e-4 (0.85% off under the
    absolute grouping floor)."""
    small, ref = (_t2_tors([[c, 0.0], [0.0, c]]) / c for c in (1e-6, 1e-4))
    assert abs(small - ref) <= 1e-8 * abs(ref), (small, ref)

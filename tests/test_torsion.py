"""Torsion-term assembly, determinant ratios with their ODE oracle, the
regularized surface, and the scaling study."""

from __future__ import annotations

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from conetorsion.crosssection import build_cross_section
from conetorsion.errors import DomainError
from conetorsion import torsion as T
from conetorsion.zeta import MellinSplit
from reference_oracles import (
    digamma_weighted_zdiff,
    gy_full_cone_oracle,
    kronecker_tors_t2,
    residue_double_sum,
    rs_norm_product_metric,
)

GAMMA = 0.5772156649015328606


def _tors(cs, params=None):
    """Tors of ``cs`` from the split that ``build_splits`` plans for it."""
    return T.tors_term(T.build_splits(cs, params or T.NumericsParams()))


def test_top_term_unit_t2(unit_t2):
    assert T.top_term(unit_t2) == pytest.approx(-0.5 * math.log(3.0), rel=1e-15)


def test_top_term_rank_linearity():
    rank2 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 2}
    )
    assert T.top_term(rank2) == pytest.approx(-math.log(3.0), rel=1e-15)


def test_top_term_vanishes_without_cohomology():
    class _Bare:
        dim_n = 2

        @staticmethod
        def euler_characteristic():
            return 0

        @staticmethod
        def betti(k):
            return 0

    assert T.top_term(_Bare()) == 0.0


def test_digamma_weighted_differences_flat_t2():
    """The three digamma-weighted z-differences of the flat-T^2 block
    evaluate to gamma/2, (1-gamma)/2, and 0."""
    from conetorsion.olver import z_diff_by_b
    from scipy.special import digamma

    diffs = z_diff_by_b(2, F(1, 2))
    vals = [float(diffs[b]) * float(digamma(b + 1)) for b in range(3)]
    assert vals[0] == pytest.approx(GAMMA / 2.0, rel=1e-12)
    assert vals[1] == pytest.approx(0.5 * (1.0 - GAMMA), rel=1e-12)
    assert vals[2] == 0.0


def test_res_term_flat_tori():
    for basis, volume in (
        ([[1, 0], [0, 1]], 1.0),
        ([[2 * math.pi, 0], [0, 2 * math.pi]], 4 * math.pi**2),
        ([[3, 0], [0, 3]], 9.0),
        ([[1, 0.5], [0, 1]], 1.0),  # shear: the anomaly sees only the volume
    ):
        cs = build_cross_section(
            {"family": "flat_torus", "dim_n": 2, "lattice_basis": basis}
        )
        res, anomaly = T.res_term(cs)
        closed = -volume / (8.0 * math.pi)
        assert abs(anomaly - closed) / abs(closed) <= 1e-10
        assert res == -anomaly / 2.0


def _res_closed_form(n: int) -> F:
    """Res / (rank V_n) = (-1)^(h+1) (n-1)! / (4 h!), h = n/2, V_n = Vol / (4 pi)^h."""
    h = n // 2
    return F((-1) ** (h + 1) * math.factorial(n - 1), 4 * math.factorial(h))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_res_exact_double_sum_is_the_closed_form(n):
    """With V_n factored out, the residue double sum is the rational
    sum_k ((-1)^k/2) sum_r 2 c_{h-r} / (r-1)! * (digamma-weighted
    z-differences at alpha_k), c_j = C(n-1, k) (-alpha_k^2)^j / j!, and half
    of it, Res / V_n, is (-1)^(h+1) (n-1)! / (4 h!) exactly: 1/4, -3/4, 5,
    -105/2, 756 and -13860 for n = 2, ..., 12."""
    h = n // 2
    total = F(0)
    for k in range(h):
        alpha = F(n - 1, 2) - k
        inner = F(0)
        for r in range(1, h + 1):
            j = h - r
            c = math.comb(n - 1, k) * (-alpha * alpha) ** j / math.factorial(j)
            inner += 2 * c / math.factorial(r - 1) * digamma_weighted_zdiff(r, alpha)
        total += F((-1) ** k, 2) * inner
    assert total / 2 == _res_closed_form(n)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_res_term_meets_the_closed_form(n, rank):
    """Float ``res_term`` on the unit and a sheared basis is within 1e-13
    relative of rank Vol / (4 pi)^h * (-1)^(h+1) (n-1)! / (4 h!)."""
    sheared = np.eye(n)
    sheared[0, 1], sheared[n - 2, n - 1] = 0.37, -0.2
    for basis in (np.eye(n), 1.3 * sheared):
        cs = build_cross_section(
            {"family": "flat_torus", "dim_n": n, "lattice_basis": basis.tolist(), "bundle_rank": rank}
        )
        want = rank * cs.volume / (4.0 * math.pi) ** (n // 2) * float(_res_closed_form(n))
        res, _ = T.res_term(cs)
        assert abs(res - want) <= 1e-13 * abs(want), (n, rank, res, want)


def _sheared_basis(n: int) -> np.ndarray:
    sheared = np.eye(n)
    sheared[0, 1], sheared[n - 2, n - 1] = 0.37, -0.2
    return 1.3 * sheared


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_res_term_is_half_the_olver_double_sum(n):
    """The closed form against the float Olver double sum it was derived
    from, on the unit and a sheared basis, at rank 3."""
    for basis in (np.eye(n), _sheared_basis(n)):
        cs = build_cross_section(
            {"family": "flat_torus", "dim_n": n, "lattice_basis": basis.tolist(), "bundle_rank": 3}
        )
        want = residue_double_sum(cs) / 2.0
        assert abs(T.res_term(cs)[0] - want) <= 1e-13 * abs(want), n


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_res_term_is_correctly_rounded(n):
    """Res is within 1e-15 relative of the formula in 40-digit mpmath with
    the exact pi, at the same float Vol: one rounding, and the float 4 pi
    raised to the power h (``test_cli.py`` checks T^14 and T^16)."""
    coef = _res_closed_form(n)
    for basis in (np.eye(n), _sheared_basis(n)):
        cs = build_cross_section({"family": "flat_torus", "dim_n": n, "lattice_basis": basis.tolist()})
        with mpmath.workdps(40):
            want = mpmath.mpf(coef.numerator) / coef.denominator * cs.volume / (4 * mpmath.pi) ** (n // 2)
            assert abs(T.res_term(cs)[0] - want) <= 1e-15 * abs(want), n


def test_res_term_rank_linearity(unit_t2):
    rank2 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 2}
    )
    _, a1 = T.res_term(unit_t2)
    _, a2 = T.res_term(rank2)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-14)


def test_alpha_is_half_integer_for_even_n():
    """The alpha = 0 guard of the torsion formulas is unreachable for even n."""
    for n in (2, 4, 6):
        cs = build_cross_section(
            {"family": "flat_torus", "dim_n": n, "lattice_basis": np.eye(n).tolist()}
        )
        for k in range(n):
            assert F(cs.alpha(k)).denominator == 2


def test_tors_term_forms_agree(unit_t2, unit_t4):
    for cs in (unit_t2, unit_t4):
        result = _tors(cs)
        assert result.cross_check_residual <= 1e-8


def test_tors_rank_linearity(unit_t2):
    """The trivial bundle of rank r is a direct sum, so each term is r times
    its rank-1 value: Tors on unit T^2 at rank 2, and Top, Tors and Res on a
    sheared T^4 at ranks 3, 7 and 1e20 (past int64), each within 1e-14
    relative, since the rank enters once, as an exact integer weight."""
    rank2 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 2}
    )
    v1 = _tors(unit_t2).value
    v2 = _tors(rank2).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    basis = PINNED_SCALING_BASES["sheared-x2-t4"].tolist()

    def terms(rank):
        cs = build_cross_section({"family": "flat_torus", "dim_n": 4, "lattice_basis": basis, "bundle_rank": rank})
        report = T.log_torsion_cone(cs)
        return report.top, report.tors, report.res

    one = terms(1)
    for rank in (3, 7, 10**20):
        for name, got, want in zip(("top", "tors", "res"), terms(rank), one):
            assert abs(got - rank * want) <= 1e-14 * abs(rank * want), (rank, name, got, rank * want)


def test_tors_term_cutoff_stability(unit_t2):
    from conetorsion.zeta import cutoff_for_tolerance, plan_t0

    base = cutoff_for_tolerance(unit_t2, 0, 1e-12, plan_t0(unit_t2))
    v1 = _tors(unit_t2, T.NumericsParams(cutoff=base)).value
    v2 = _tors(unit_t2, T.NumericsParams(cutoff=2 * base)).value
    assert abs(v1 - v2) <= 1e-8


def test_log_torsion_cone_assembly(unit_t2):
    rep = T.log_torsion_cone(unit_t2)
    assert rep.res == -rep.anomaly_integral / 2.0
    assert rep.log_t == rep.top + rep.tors + rep.res
    expected = -0.5 * math.log(3.0) + rep.tors + 1.0 / (16.0 * math.pi)
    assert rep.log_t == pytest.approx(expected, rel=1e-12)
    assert "wall_time_s" in rep.provenance


def test_rs_norm_product_metric(unit_t2):
    rep = T.log_torsion_cone(unit_t2)
    assert rs_norm_product_metric(unit_t2) == pytest.approx(
        rep.log_t - rep.res, rel=1e-12
    )
    rank2 = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]], "bundle_rank": 2}
    )
    assert rs_norm_product_metric(rank2) == pytest.approx(
        2.0 * rs_norm_product_metric(unit_t2), rel=1e-12
    )


def test_truncated_against_high_precision_oracle(unit_t2):
    """The eps = 1/4 truncated-cone value recomputed with 50-digit
    arithmetic (Betti logs exactly, the residue double sum from its exact
    rational digamma-weighted coefficients times the exact residue)."""
    mpmath.mp.dps = 50
    eps = mpmath.mpf(1) / 4
    betti_sum = mpmath.mpf(0)
    for k, b_k in enumerate((1, 2, 1)):
        q = 2 - 2 * k + 1
        betti_sum += (-1) ** k * mpmath.mpf(b_k) / 2 * mpmath.log((1 - eps**q) / q)
    # residue double sum: Res_{s=2} = Vol/(2 pi); weights gamma/2 + (1-gamma)/2
    res_s2 = 1 / (2 * mpmath.pi)
    weighted = F(-1, 2) * F(0) + F(1, 2) * F(1)  # sum_b zdiff * H_{b+r-1} at r=1
    double_sum = mpmath.mpf(1) / 2 * res_s2 * mpmath.mpf(
        weighted.numerator
    ) / weighted.denominator
    expected = float(betti_sum + double_sum)
    got = T.log_torsion_truncated(unit_t2, 0.25)
    assert got == pytest.approx(expected, abs=1e-14)


def test_truncated_chi_term_vanishes_on_tori(unit_t2):
    """chi = 0 wipes the log2 term, and 2 Res carries no eps: repeated
    evaluation is bit-identical and the assembled value minus the Betti sum
    reduces to it, and to the Olver double sum that it closes."""
    assert T.res_term(unit_t2) == T.res_term(unit_t2)
    for eps in (0.1, 0.25, 0.5):
        left = T.log_torsion_truncated(unit_t2, eps) - T._betti_log_sum(unit_t2, eps)
        assert left == pytest.approx(2.0 * T.res_term(unit_t2)[0], abs=1e-15)
        assert left == pytest.approx(residue_double_sum(unit_t2), abs=1e-15)


def test_truncated_rejects_bad_eps(unit_t2):
    for eps in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            T.log_torsion_truncated(unit_t2, eps)


def test_cross_route_consistency(unit_t2):
    """torsion_difference(eps) = log_torsion_truncated(eps) - log_torsion_cone."""
    cone = T.log_torsion_cone(unit_t2)
    for eps in (0.1, 0.25, 0.5):
        diff = T.torsion_difference(unit_t2, eps, cone.tors)
        other = T.log_torsion_truncated(unit_t2, eps) - cone.log_t
        assert abs(diff - other) <= 1e-8


def test_betti_log_leading_behavior(unit_t2):
    """Each degree's Betti log term diverges like (b_k/2) log(1-eps) with the
    expected sign; on tori the total stays finite since chi = 0."""
    for k, b_k in enumerate((1, 2, 1)):
        q = 2 - 2 * k + 1
        vals = []
        for delta in (1e-4, 1e-6):
            eps = 1.0 - delta
            term = 0.5 * b_k * math.log((1.0 - eps**q) / q)
            vals.append(term / math.log(delta))
        assert vals[1] == pytest.approx(b_k / 2.0, rel=1e-2)
    totals = [T._betti_log_sum(unit_t2, 1.0 - d) for d in (1e-4, 1e-6)]
    assert abs(totals[1] - totals[0]) <= 1e-3  # finite limit, no log divergence


def test_harmonic_det_values():
    assert T.harmonic_det(0.5, 0.25) == pytest.approx(1.5, rel=1e-15)
    assert T.harmonic_det(-0.5, 0.25) == T.harmonic_det(0.5, 0.25)
    with pytest.raises(DomainError):
        T.harmonic_det(0.0, 0.25)
    spec = T.ModelOperatorSpec("harmonic_H0", 1.5, 1.5, 0.1)
    gy = T.gy_det_ratio_oracle(spec, 0.0)
    closed = T.harmonic_det(1.5, 0.1)
    assert abs(gy - closed) / closed <= 1e-6


def test_full_cone_ratio_spec_value():
    from scipy.special import iv

    spec = T.ModelOperatorSpec("psi_full", 1.0, 0.5)
    i1 = float(iv(1.0, 1.0))
    i1p = 0.5 * (float(iv(0.0, 1.0)) + float(iv(2.0, 1.0)))
    expected = 2.0 / (1.0 * 1.5) * (i1p + 0.5 * i1)
    assert T.model_det_ratio(spec, 1.0) == pytest.approx(expected, rel=1e-13)
    assert gy_full_cone_oracle(spec, 1.0) == pytest.approx(expected, rel=1e-9)


def test_ratios_tend_to_one():
    for kind in ("psi_full", "phi_full", "psi_truncated", "phi_truncated"):
        eps = 0.25 if "truncated" in kind else None
        spec = T.ModelOperatorSpec(kind, 2.0, 0.5, eps)
        assert abs(T.model_det_ratio(spec, 1e-6) - 1.0) <= 1e-8
        assert T.model_det_ratio(spec, 0.0) == 1.0


def test_truncated_ratio_vs_gy_spot():
    spec = T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.25)
    cf = T.model_det_ratio(spec, 1.0)
    gy = T.gy_det_ratio_oracle(spec, 1.0)
    assert abs(cf - gy) / cf <= 1e-6
    spec_phi = T.ModelOperatorSpec("phi_truncated", 3.5, 1.5, 0.1)
    cf = T.model_det_ratio(spec_phi, 2.0)
    gy = T.gy_det_ratio_oracle(spec_phi, 2.0)
    assert abs(cf - gy) / cf <= 1e-6


def test_full_cone_oracle_both_kinds():
    for kind in ("psi_full", "phi_full"):
        for nu in (1.0, 3.5, 12.0):
            spec = T.ModelOperatorSpec(kind, nu, 0.5)
            cf = T.model_det_ratio(spec, 1.3)
            gy = gy_full_cone_oracle(spec, 1.3)
            assert abs(cf - gy) / cf <= 1e-9


def test_pole_guard():
    spec = T.ModelOperatorSpec("psi_truncated", 0.5, 0.5, 0.25)
    with pytest.raises(DomainError):
        T.model_det_ratio(spec, 1.0)


def test_gy_oracle_domain():
    with pytest.raises(DomainError):
        T.gy_det_ratio_oracle(T.ModelOperatorSpec("psi_full", 1.0, 0.5), 1.0)
    spec = T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.25)
    assert T.gy_det_ratio_oracle(spec, 0.0) == 1.0


def test_t_eta_lambda_limits():
    """p -> 0 as lambda -> 0- and p -> b as lambda -> -inf, verified by
    extrapolation over lambda = -10^j (regularization surface)."""
    nu, alpha, eps = 2.5, 0.5, 0.25
    small = [abs(T.t_eta_lambda(nu, alpha, eps, -(10.0**-j))[1]) for j in (2, 4, 6)]
    assert small[2] < small[1] < small[0]
    assert small[2] <= 1e-7
    b = T.ab_constant(nu, alpha, 2)
    large = [abs(T.t_eta_lambda(nu, alpha, eps, -(10.0**j))[1] - b) for j in (2, 4, 6)]
    assert large[2] < large[1] < large[0]
    assert large[2] <= 1e-8
    assert T.t_eta_lambda(nu, alpha, eps, 0.0) == (0.0, 0.0)


def test_t_eta_lambda_large_nu_expansion():
    """t matches the order-(n+2) expansion sum (-nu)^{-r} (Mdiff + odd part) with
    remainder O(nu^{-(n+3)}): the empirical decay exponent on nu = 20, 40, 80
    must be at least n + 2.5."""
    from conetorsion.olver import z_diff_by_b

    alpha, eps, lam, n = F(1, 2), 0.25, -1.0, 2
    t_eps = (1.0 - eps * eps * lam) ** -0.5
    errors = []
    for nu in (20.0, 40.0, 80.0):
        t_val, _ = T.t_eta_lambda(nu, float(alpha), eps, lam)
        approx = sum(
            (-1.0 / nu) ** r
            * (
                sum(float(d) * t_eps ** (r + 2 * b) for b, d in z_diff_by_b(r, alpha).items())
                + float((alpha**r - (-alpha) ** r) / r)
            )
            for r in range(1, n + 3)
        )
        errors.append(abs(t_val - approx))
    p_hat = math.log2(errors[0] / errors[1])
    q_hat = math.log2(errors[1] / errors[2])
    assert p_hat >= n + 2.5
    assert q_hat >= n + 2.0


def test_t_surface_matches_det_ratio_logs():
    """t equals the alternating log combination of the four determinant
    ratios (prefactors cancel); the two code paths are independent."""
    nu, alpha, eps, lam = 2.5, 0.5, 0.25, -2.0
    z = math.sqrt(-lam)
    t_val, _ = T.t_eta_lambda(nu, alpha, eps, lam)
    combo = (
        -math.log(T.model_det_ratio(T.ModelOperatorSpec("psi_truncated", nu, alpha, eps), z))
        + math.log(T.model_det_ratio(T.ModelOperatorSpec("phi_truncated", nu, alpha, eps), z))
        + math.log(T.model_det_ratio(T.ModelOperatorSpec("psi_full", nu, alpha), z))
        - math.log(T.model_det_ratio(T.ModelOperatorSpec("phi_full", nu, alpha), z))
    )
    assert abs(t_val - combo) <= 1e-13


def test_scaling_route_matches_rescaled_lattice(unit_t2):
    """The modified-shift route of the scaling study agrees with torsion of
    the directly rescaled lattice (spectrum times mu^2)."""
    rows, _ = T.tors_scaling_profile(unit_t2, [2.0, 4.0])
    for mu, row in zip((2.0, 4.0), rows):
        scaled = build_cross_section(
            {
                "family": "flat_torus",
                "dim_n": 2,
                "lattice_basis": (np.eye(2) / mu).tolist(),
            }
        )
        direct = _tors(scaled).value
        assert abs(row.tors - direct) <= 1e-12


COVARIANCE_BASES = {
    "unit-t2": np.eye(2),
    "sheared-t2": np.array([[1.0, 0.37], [0.0, 1.0]]),
    "unit-t4": np.eye(4),
}


@pytest.mark.parametrize("name", list(COVARIANCE_BASES))
def test_scaling_rows_are_covariant(name):
    """Scaling the metric by mu^-2 is the lattice B / mu: every scaling row
    equals tors_term on B / mu within 1e-12 at tolerance 1e-12, for
    mu = 2, 4, 8 (on T^4 mu = 8 is the 0.125 I torus)."""
    basis = COVARIANCE_BASES[name]
    params = T.NumericsParams(tolerance=1e-12)

    def torus(b):
        return build_cross_section(
            {"family": "flat_torus", "dim_n": b.shape[0], "lattice_basis": b.tolist()}
        )

    mus = (2.0, 4.0, 8.0)
    rows, _ = T.tors_scaling_profile(torus(basis), mus, params)
    for mu, row in zip(mus, rows):
        assert abs(row.tors - _tors(torus(basis / mu), params).value) <= 1e-12


PINNED_SCALING_BASES = {
    "unit-t2": np.eye(2),
    "sheared-t2": np.array([[1.0, 0.37], [0.0, 1.0]]),
    "16I-t2": 16.0 * np.eye(2),
    "diag-t2": np.diag([1.0, 0.1]),
    "unit-t4": np.eye(4),
    "sheared-x2-t4": 2.0 * np.array(
        [[1.0, 0.37, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.0, 1.0]]
    ),
}


@pytest.mark.parametrize("name", list(PINNED_SCALING_BASES))
def test_scaling_rows_equal_their_own_splits_bit_for_bit(name):
    """Each row of the scaling table, read off the one Mellin split whose
    rows are the shifts alpha_k / mu for k < n/2 and mu = 1, 2, ..., 64,
    equals bit for bit tors_term on a split of its own over the shifts
    alpha_k / mu of that mu alone, at the same slice and t0: the shared
    theta-sum prefix, B quadrature, F table and K pass move no value."""
    basis = PINNED_SCALING_BASES[name]
    cs = build_cross_section({"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()})
    params = T.NumericsParams(tolerance=1e-10)
    mus = list(range(1, 65))
    rows, _ = T.tors_scaling_profile(cs, mus, params)
    base = T.build_splits(cs, params)
    for mu, row in zip(mus, rows):
        shifted = MellinSplit(base.sl, base.t0, [a / mu for a in base.shifts])
        assert row.tors == T.tors_term(shifted).value, mu


def test_build_splits_serves_the_rows_it_is_built_with():
    """The default rows are the degrees' own shifts alpha_k, k < n/2,
    exactly; a split built for a scaling grid after a Tors run has row
    i h + k = alpha_k / mu_i, and every row is readable: no split found on
    a slice fixes the rows of a later one.  On unit T^2 and T^4."""
    for name in ("unit-t2", "unit-t4"):
        basis = PINNED_SCALING_BASES[name]
        cs = build_cross_section({"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()})
        alphas = [float(cs.alpha(k)) for k in range(cs.dim_n // 2)]
        params = T.NumericsParams(tolerance=1e-10)
        first = T.build_splits(cs, params)
        assert (first.shifts, first.sl.k) == (tuple(alphas), 0)
        T.tors_term(first)
        mus = (2.0, 4.0)
        split = T.build_splits(cs, params, mus)
        assert split.shifts == tuple(a / mu for mu in mus for a in alphas)
        rows, _ = T.tors_scaling_profile(cs, mus, params)
        for i, row in enumerate(rows):
            assert T.tors_term(split, row=i).value == row.tors, (name, i)


def test_t_eta_lambda_guards():
    with pytest.raises(DomainError):
        T.t_eta_lambda(0.4, 0.5, 0.25, -1.0)
    with pytest.raises(DomainError):
        T.t_eta_lambda(2.5, 0.5, 1.5, -1.0)
    with pytest.raises(DomainError):
        T.t_eta_lambda(2.5, 0.5, 0.25, 1.0)


def test_scaling_profile(unit_t2):
    rows, fitted = T.tors_scaling_profile(unit_t2, [1, 2, 4, 8, 16, 32, 64])
    assert rows[0].bound is None
    assert rows[0].tors == _tors(unit_t2).value
    bounds = [r.bound for r in rows if r.bound is not None]
    assert all(math.isfinite(b) for b in bounds)
    assert fitted == max(bounds)
    # non-increasing from mu = 8 onward
    from_eight = [r.bound for r in rows if r.mu >= 8]
    assert all(a >= b for a, b in zip(from_eight, from_eight[1:]))
    with pytest.raises(DomainError):
        T.tors_scaling_profile(unit_t2, [0.5])
    with pytest.raises(DomainError):
        T.tors_scaling_profile(unit_t2, [])


@pytest.mark.parametrize(
    "basis, abs_tol, rel_tol",
    [
        ([[64.0, 0.0], [0.0, 64.0]], 1e-12, 0.0),
        ([[64.0, 20.0], [0.0, 64.0]], 1e-12, 0.0),
        ([[256.0, 0.0], [0.0, 256.0]], 0.0, 4e-15),
    ],
    ids=["64I", "sheared-64", "256I"],
)
def test_large_t2_tors_is_kroneckers_limit_formula(basis, abs_tol, rel_tol):
    """On a T^2 whose shortest vector is 64 or more, Tors at tolerance 1e-10
    is Vol/(16 pi) + 1/2 log(Vol Im tau |eta(tau)|^4) to binary64: Tors grows
    like Vol, so the 256 I pin is relative."""
    cs = build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": basis})
    ref = kronecker_tors_t2(basis)
    gap = abs(_tors(cs, T.NumericsParams(tolerance=1e-10)).value - ref)
    assert gap <= max(abs_tol, rel_tol * abs(ref)), float(gap)

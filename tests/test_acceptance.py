"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output); assertions carry the same tolerances, so the suite is
the machine-checked version of the printed summary.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

import numpy as np

from conetorsion import torsion as T
from conetorsion import zeta
from conetorsion.bessel import modified_bessel, uniform_expansion, wronskian_residual
from conetorsion.crosssection import (
    brute_force_form_laplacian,
    build_cross_section,
    coclosed_spectrum,
)
from conetorsion.firstorder import first_order_shifted
from conetorsion.olver import d_poly, eval_t_poly, m_poly_eval, z_diff_by_b, z_table


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_flat_torus_anomaly():
    """rank * int B_1 = -L^2/(8 pi) for side-L square tori, <= 1e-10 rel,
    <= 10 s per torus."""
    worst = 0.0
    slowest = 0.0
    for length in (1.0, 2.0 * math.pi, 3.0):
        cs = build_cross_section(
            {
                "family": "flat_torus",
                "dim_n": 2,
                "lattice_basis": [[length, 0.0], [0.0, length]],
            }
        )
        started = time.time()
        _, anomaly = T.res_term(cs)
        slowest = max(slowest, time.time() - started)
        closed = -(length**2) / (8.0 * math.pi)
        worst = max(worst, abs(anomaly - closed) / abs(closed))
    ok = worst <= 1e-10 and slowest <= 10.0
    _report(1, ok, f"worst rel {worst:.2e} (<= 1e-10), slowest {slowest:.3f}s (<= 10s)")


def test_criterion_2_exact_identity_suite():
    """The M-at-one and z-difference-sum identities hold exactly for
    r = 1..6; the z_{2,b} table matches its pinned reference exactly."""
    exact = True
    for r in range(1, 7):
        d1 = eval_t_poly(d_poly(r), F(1))
        for a in (F(1, 2), F(3, 2), F(5, 2), F(-7, 2)):
            exact &= m_poly_eval(r, F(1), a) == d1 - (-a) ** r / r
            diffs = z_diff_by_b(r, a)
            exact &= sum(diffs.values(), start=F(0)) == ((-a) ** r - a**r) / r
    pinned = {
        0: {0: F(-3, 16), 1: F(1, 2), 2: F(-1, 2)},
        1: {0: F(5, 8), 1: F(-1, 2)},
        2: {0: F(-7, 16)},
    }
    exact &= z_table(2) == pinned
    _report(2, exact, "edge identities and the z_{2,b} table hold exactly")


def test_criterion_3_bessel_layer():
    """Wronskian at 100 random points <= 1e-12 relative; uniform expansions
    within their reported truncation bounds for nu >= 30."""
    rng = np.random.default_rng(20240901)
    worst_w = 0.0
    for _ in range(100):
        nu = rng.uniform(0.0, 50.0)
        x = rng.uniform(0.1, 50.0)
        worst_w = max(worst_w, wronskian_residual(nu, x))
    worst_u = 0.0
    for nu in (30.0, 45.0, 60.0, 90.0, 120.0):
        n_terms = 5 if nu <= 40 else (4 if nu <= 80 else 3)
        for z in (0.4, 1.0, 2.5):
            q = modified_bessel(nu, nu * z)
            for kind, ref in (
                ("I", q.i_val),
                ("Iprime", q.i_prime),
                ("K", q.k_val),
                ("Kprime", q.k_prime),
            ):
                val, est = uniform_expansion(kind, nu, z, n_terms)
                worst_u = max(worst_u, abs(val - ref) / est)
    ok = worst_w <= 1e-12 and worst_u <= 1.0
    _report(3, ok, f"wronskian {worst_w:.2e} (<= 1e-12); uniform err/bound {worst_u:.2f} (<= 1)")


def test_criterion_4_determinant_ratios():
    """Closed forms vs the Gelfand-Yaglom ODE oracle on a 75-point grid
    <= 1e-6 rel; harmonic determinant <= 1e-6; ratios -> 1 at z = 1e-6
    within 1e-8."""
    grid_nu = (1.0, 2.0, 3.5, 6.0, 10.0)
    grid_z = (0.1, 0.4, 1.0, 2.0, 4.0)
    grid_eps = (0.1, 0.25, 0.5)
    specs, zs = [], []
    for i, nu in enumerate(grid_nu):
        for j, z in enumerate(grid_z):
            for l, eps in enumerate(grid_eps):
                kind = "psi_truncated" if (i + j + l) % 2 == 0 else "phi_truncated"
                specs.append(T.ModelOperatorSpec(kind, nu, 0.5, eps))
                zs.append(z)
    cf = np.array([T.model_det_ratio(spec, z) for spec, z in zip(specs, zs)])
    worst = float(np.max(np.abs(cf - T.gy_det_ratio_oracles(specs, zs)) / np.abs(cf)))
    harmonic = [
        T.ModelOperatorSpec("harmonic_H0", abs(alpha), alpha, eps)
        for alpha in (0.5, 1.5)
        for eps in (0.1, 0.25, 0.5)
    ]
    closed = np.array([T.harmonic_det(spec.alpha, spec.eps) for spec in harmonic])
    gy_h = T.gy_det_ratio_oracles(harmonic, [0.0] * len(harmonic))
    worst_h = float(np.max(np.abs(closed - gy_h) / closed))
    worst_z0 = 0.0
    for kind in ("psi_full", "phi_full", "psi_truncated", "phi_truncated"):
        eps = 0.25 if "truncated" in kind else None
        spec = T.ModelOperatorSpec(kind, 2.0, 0.5, eps)
        worst_z0 = max(worst_z0, abs(T.model_det_ratio(spec, 1e-6) - 1.0))
    ok = worst <= 1e-6 and worst_h <= 1e-6 and worst_z0 <= 1e-8
    _report(
        4,
        ok,
        f"grid {worst:.2e} (<= 1e-6); harmonic {worst_h:.2e} (<= 1e-6); "
        f"z->0 defect {worst_z0:.2e} (<= 1e-8)",
    )


def test_criterion_5_zeta_layer(unit_t2, monkeypatch):
    """Shifted zeta(0, +-a) and zeta'(0, +-a) on unit T^2 vs the independent
    first-order Mellin oracle <= 1e-7; stable <= 1e-8 under cutoff doubling
    and under extending the subtraction order from J = n+10 to J+2 (patched
    ``default_order``, fresh slices at the same cutoff)."""
    base = zeta.cutoff_for_tolerance(unit_t2, 0, 1e-12)
    worst_oracle = 0.0
    worst_double = 0.0
    worst_order = 0.0
    at_j = {}
    for k in (0, 1):
        sl = coclosed_spectrum(unit_t2, k, base)
        sl2 = coclosed_spectrum(unit_t2, k, 2 * base)
        for sign in (+1, -1):
            oracle = first_order_shifted(sl, sign)
            z0 = zeta.shifted_zeta0(sl, sign)
            zp, _ = zeta.shifted_zeta_prime0(sl, sign)
            at_j[k, sign] = zp
            worst_oracle = max(
                worst_oracle,
                abs(z0 - oracle.zeta0()),
                abs(zp - oracle.zeta_prime0()),
            )
            zp2, _ = zeta.shifted_zeta_prime0(sl2, sign)
            worst_double = max(
                worst_double,
                abs(zp - zp2),
                abs(z0 - zeta.shifted_zeta0(sl2, sign)),
            )
    default = zeta.default_order
    monkeypatch.setattr(zeta, "default_order", lambda n: default(n) + 2)
    for k in (0, 1):
        sl = coclosed_spectrum(unit_t2, k, base)
        for sign in (+1, -1):
            v_j2, _ = zeta.shifted_zeta_prime0(sl, sign)
            worst_order = max(worst_order, abs(at_j[k, sign] - v_j2))
    ok = worst_oracle <= 1e-7 and worst_double <= 1e-8 and worst_order <= 1e-8
    _report(
        5,
        ok,
        f"oracle {worst_oracle:.2e} (<= 1e-7); doubling {worst_double:.2e} (<= 1e-8); "
        f"order J->J+2 {worst_order:.2e} (<= 1e-8)",
    )


def test_criterion_6_regularization_surface():
    """|p(-1e-8)| <= 1e-6 and |p(-1e6) - b| <= 1e-4 for three parameter
    triples, the first being (5/2, 1/2, 1/4)."""
    worst_zero = 0.0
    worst_inf = 0.0
    for nu, alpha, eps in ((2.5, 0.5, 0.25), (3.5, 1.5, 0.1), (4.5, 0.5, 0.5)):
        _, p0 = T.t_eta_lambda(nu, alpha, eps, -1e-8)
        _, pinf = T.t_eta_lambda(nu, alpha, eps, -1e6)
        b = T.ab_constant(nu, alpha, 2)
        worst_zero = max(worst_zero, abs(p0))
        worst_inf = max(worst_inf, abs(pinf - b))
    ok = worst_zero <= 1e-6 and worst_inf <= 1e-4
    _report(6, ok, f"|p(-1e-8)| {worst_zero:.2e} (<= 1e-6); |p(-1e6)-b| {worst_inf:.2e} (<= 1e-4)")


def test_criterion_7_cross_route_consistency(unit_t2):
    """torsion_difference(eps) = log_torsion_truncated(eps) - log_torsion_cone
    to <= 1e-8 for eps in {0.1, 0.25, 0.5}.  Line 5 of the difference is
    -Tors by construction, so this checks lines 1-4 against the closed forms
    of Top and Res."""
    cone = T.log_torsion_cone(unit_t2)
    worst = 0.0
    for eps in (0.1, 0.25, 0.5):
        diff = T.torsion_difference(unit_t2, eps, cone.tors)
        other = T.log_torsion_truncated(unit_t2, eps) - cone.log_t
        worst = max(worst, abs(diff - other))
    _report(7, worst <= 1e-8, f"worst residual {worst:.2e} (<= 1e-8)")


def test_criterion_8_tors_duality_and_scaling(unit_t2, unit_t4):
    """Full-range and half-range Tors agree <= 1e-8 on T^2 and T^4; the
    scaling bound |Tors| mu / log mu is finite and non-increasing from mu = 8;
    whole grid <= 60 s."""
    worst_dual = max(
        T.tors_term(unit_t2).cross_check_residual,
        T.tors_term(unit_t4).cross_check_residual,
    )
    started = time.time()
    rows, fitted = T.tors_scaling_profile(unit_t2, [2, 4, 8, 16, 32, 64])
    elapsed = time.time() - started
    bounds = [row.bound for row in rows]
    tail = [b for row, b in zip(rows, bounds) if row.mu >= 8]
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    ok = (
        worst_dual <= 1e-8
        and math.isfinite(fitted)
        and monotone
        and elapsed <= 60.0
    )
    _report(
        8,
        ok,
        f"duality {worst_dual:.2e} (<= 1e-8); bound max {fitted:.3f} finite, "
        f"non-increasing from mu=8: {monotone}; grid {elapsed:.2f}s (<= 60s)",
    )


def test_criterion_9_spectra_oracle(unit_t2, unit_t4):
    """coclosed_spectrum matches brute_force_form_laplacian exactly in
    multiplicity and <= 1e-9 relative in eigenvalue on truncated bases."""
    worst = 0.0
    exact_mult = True
    for cs, cut in ((unit_t2, 2), (unit_t4, 1)):
        n = cs.dim_n
        bound = (cut * 2.0 * math.pi) ** 2 * (1 + 1e-9)
        for k in range(n):
            oracle = brute_force_form_laplacian(cs, k, cut)
            sl = coclosed_spectrum(cs, k, bound)
            pairs = [(lv.eta, lv.mult) for lv in oracle if lv.eta <= bound]
            exact_mult &= len(pairs) == sl.eta.size
            for (eo, mo), es, ms in zip(pairs, sl.eta, sl.mult):
                worst = max(worst, abs(eo - es) / es)
                exact_mult &= mo == ms
    ok = exact_mult and worst <= 1e-9
    _report(9, ok, f"multiplicities exact: {exact_mult}; eigenvalue rel {worst:.2e} (<= 1e-9)")

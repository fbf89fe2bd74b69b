"""Exact-rational polynomial layer: recursion values, log-expansion tables,
the closed identities they must satisfy, and the evaluators (integer sums
over a common denominator, the float view) against plain Fraction sums."""

from __future__ import annotations

import functools
import hashlib
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from conetorsion import cli, olver
from reference_oracles import eval_poly_reference, series_log_powers


def test_recursion_base():
    u0, v0 = olver.olver_pair(0)
    assert u0 == {0: F(1)}
    assert v0 == {0: F(1)}


def test_first_order_pair_exact():
    u1, v1 = olver.olver_pair(1)
    assert u1 == {1: F(3, 24), 3: F(-5, 24)}
    assert v1 == {1: F(-9, 24), 3: F(7, 24)}


def test_u1_v1_against_bessel_oracle():
    """Adding u_1 (resp. v_1) must improve the leading uniform asymptotics of
    I_nu(nu z) (resp. I'_nu(nu z)) from O(1/nu) to O(1/nu^2) at nu = 50."""
    mpmath.mp.dps = 40
    nu = 50
    z = mpmath.mpf("1.5")  # keeps t away from the root of u_1
    t = 1 / mpmath.sqrt(1 + z * z)
    xi = 1 / t + mpmath.log(z / (1 + 1 / t))
    pref_i = mpmath.exp(nu * xi) / (mpmath.sqrt(2 * mpmath.pi * nu) * (1 + z * z) ** mpmath.mpf("0.25"))
    pref_ip = mpmath.exp(nu * xi) * (1 + z * z) ** mpmath.mpf("0.25") / (mpmath.sqrt(2 * mpmath.pi * nu) * z)
    i_exact = mpmath.besseli(nu, nu * z)
    ip_exact = mpmath.besseli(nu, nu * z, derivative=1)
    u1 = sum(float(c) * float(t) ** e for e, c in olver.olver_pair(1)[0].items())
    v1 = sum(float(c) * float(t) ** e for e, c in olver.olver_pair(1)[1].items())
    err0 = abs(i_exact / pref_i - 1)
    err1 = abs(i_exact / pref_i - (1 + mpmath.mpf(u1) / nu))
    assert err1 < err0 / 5
    assert err1 < 5 / nu**2
    err0p = abs(ip_exact / pref_ip - 1)
    err1p = abs(ip_exact / pref_ip - (1 + mpmath.mpf(v1) / nu))
    assert err1p < err0p / 5
    assert err1p < 5 / nu**2


def test_log_expansion_low_orders():
    u1 = olver.olver_pair(1)[0]
    u2 = olver.olver_pair(2)[0]
    assert olver.d_poly(1) == u1
    # D_2 = u_2 - u_1^2 / 2
    u1sq = {}
    for e1, c1 in u1.items():
        for e2, c2 in u1.items():
            u1sq[e1 + e2] = u1sq.get(e1 + e2, F(0)) + c1 * c2
    expected = dict(u2)
    for e, c in u1sq.items():
        expected[e] = expected.get(e, F(0)) - c / 2
    assert olver.d_poly(2) == {e: c for e, c in expected.items() if c}


def test_log_series_numeric_check():
    """sum_{r<=6} D_r(t)/nu^r vs the log of the truncated u-series at
    (t, nu) = (0.7, 40), agreement <= 1e-10."""
    t, nu = 0.7, 40.0
    series = 1.0
    for r in range(1, 7):
        ur = olver.olver_pair(r)[0]
        series += sum(float(c) * t**e for e, c in ur.items()) / nu**r
    direct = math.log(series)
    viad = sum(
        sum(float(c) * t**e for e, c in olver.d_poly(r).items()) / nu**r
        for r in range(1, 7)
    )
    assert abs(direct - viad) <= 1e-10


def test_m2_reference_table():
    table = olver.z_table(2)
    assert table[0] == {0: F(-3, 16), 1: F(1, 2), 2: F(-1, 2)}
    assert table[1] == {0: F(5, 8), 1: F(-1, 2)}
    assert table[2] == {0: F(-7, 16)}


@pytest.mark.parametrize("r", range(1, 7))
def test_m_at_one_identity_exact_in_alpha(r):
    """M_r(1, a) = D_r(1) - (-a)^r / r as a polynomial identity in a."""
    d1 = olver.eval_t_poly(olver.d_poly(r), F(1))
    # assemble M_r(1, a) as an alpha-polynomial from the z-table
    poly: dict[int, F] = {}
    for b, ap in olver.z_table(r).items():
        for deg, c in ap.items():
            poly[deg] = poly.get(deg, F(0)) + c
    expected = {0: d1}
    expected[r] = expected.get(r, F(0)) - F((-1) ** r, r)
    assert {d: c for d, c in poly.items() if c} == {d: c for d, c in expected.items() if c}


def test_m_structure_and_alpha_degree():
    for r in range(1, 7):
        table = olver.z_table(r)
        assert set(table) == set(range(r + 1))
        for ap in table.values():
            assert all(0 <= deg <= r for deg in ap)


def _z_diff_sum(r, a):
    """sum_b (z_{r,b}(-a) - z_{r,b}(a)), summed from the z-table."""
    return sum(olver.z_diff_by_b(r, a).values(), start=F(0))


def test_z_diff_sum_values():
    assert _z_diff_sum(2, F(1, 2)) == 0
    assert _z_diff_sum(4, F(3, 2)) == 0
    assert _z_diff_sum(1, F(1, 2)) == -1
    assert _z_diff_sum(3, F(1, 2)) == F(-1, 12)


@pytest.mark.parametrize("r", range(1, 7))
def test_z_diff_closed_form(r):
    for a in (F(1, 2), F(3, 2), F(7, 3)):
        assert _z_diff_sum(r, a) == ((-a) ** r - a**r) / r


def test_alpha_zero_matches_pure_v_series():
    """At a = 0 the t-coefficients of M_r reduce to the log of the v-series."""
    vs = [None] + [olver.olver_pair(r)[1] for r in range(1, 5)]
    logs = olver._series_log(vs, 4, olver._tp_mul, olver._tp_scale, olver._tp_add)
    for r in range(1, 5):
        m_at_zero = {e: ap.get(0, F(0)) for e, ap in olver.m_poly(r).items()}
        m_at_zero = {e: c for e, c in m_at_zero.items() if c}
        assert m_at_zero == logs[r]


def test_uniform_expansion_property():
    """Truncated expansions built from u_r, v_r reproduce I, K, I', K' with
    relative error <= 10 nu^-N for random 0 < t <= 1, nu >= 30."""
    from scipy.special import ive, kve

    rng = np.random.default_rng(7)
    for _ in range(12):
        t = rng.uniform(0.15, 1.0)
        nu = rng.uniform(30.0, 90.0)
        n_terms = int(rng.integers(2, 7))
        z = math.sqrt(1.0 / (t * t) - 1.0) if t < 1.0 else 1e-8
        z = max(z, 1e-6)
        t = 1.0 / math.sqrt(1.0 + z * z)
        xi = 1.0 / t + math.log(z / (1.0 + 1.0 / t))
        w = nu * z
        su = si = sk = sv_i = sv_k = None
        series_u_p = 1.0
        series_u_m = 1.0
        series_v_p = 1.0
        series_v_m = 1.0
        for r in range(1, n_terms):
            ur, vr = olver.olver_pair(r)
            cu = sum(float(c) * t**e for e, c in ur.items())
            cvv = sum(float(c) * t**e for e, c in vr.items())
            series_u_p += cu / nu**r
            series_u_m += cu / (-nu) ** r
            series_v_p += cvv / nu**r
            series_v_m += cvv / (-nu) ** r
        quarter = (1.0 + z * z) ** 0.25
        tol = 10.0 * nu ** -float(n_terms)
        i_ref = float(ive(nu, w)) * math.exp(w - nu * xi)
        approx = series_u_p / (math.sqrt(2 * math.pi * nu) * quarter)
        assert abs(approx - i_ref) / abs(i_ref) <= tol
        k_ref = float(kve(nu, w)) * math.exp(nu * xi - w)
        approx_k = math.sqrt(math.pi / (2 * nu)) * series_u_m / quarter
        assert abs(approx_k - k_ref) / abs(k_ref) <= tol
        ip_ref = 0.5 * (float(ive(nu - 1, w)) + float(ive(nu + 1, w))) * math.exp(w - nu * xi)
        approx_ip = series_v_p * quarter / (math.sqrt(2 * math.pi * nu) * z)
        assert abs(approx_ip - ip_ref) / abs(ip_ref) <= tol
        kp_ref = -0.5 * (float(kve(nu - 1, w)) + float(kve(nu + 1, w))) * math.exp(nu * xi - w)
        approx_kp = -math.sqrt(math.pi / (2 * nu)) * series_v_m * quarter / z
        assert abs(approx_kp - kp_ref) / abs(kp_ref) <= tol


def test_order_cap():
    with pytest.raises(ValueError):
        olver.olver_pair(13)
    with pytest.raises(ValueError):
        olver.d_poly(0)


def test_public_tables_are_copies():
    """Mutating a returned table leaves the cached one, and every later
    call, unchanged."""
    before = (olver.olver_pair(3), olver.d_poly(3), olver.m_poly(3), olver.z_table(3))
    u, v = olver.olver_pair(3)
    u[1] = F(99)
    v.clear()
    olver.d_poly(3)[5] = F(7)
    olver.m_poly(3)[3][0] = F(7)
    olver.z_table(3)[0][0] = F(7)
    after = (olver.olver_pair(3), olver.d_poly(3), olver.m_poly(3), olver.z_table(3))
    assert after == before
    assert olver.m_poly_eval(3, F(1), F(1, 2)) == reference_eval_m(3, F(1), F(1, 2))


def reference_eval_m(r, t, a):
    return sum(
        (eval_poly_reference(ap, a) * t**e for e, ap in sorted(olver.m_poly(r).items())), start=t * 0
    )


SHIFTS = [F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(5, 2), F(-5, 2), F(7, 3), F(0.1)]


@pytest.mark.parametrize("r", range(0, olver.DEFAULT_MAX_ORDER + 1))
def test_exact_evaluation_matches_the_fraction_sums(r):
    """The common-denominator integer sums equal the Fraction-by-Fraction
    sums on every table of order r and every shift."""
    tables = list(olver.olver_pair(r))
    if r >= 1:
        tables.append(olver.d_poly(r))
        tables += olver.z_table(r).values()
    for a in SHIFTS:
        for p in tables:
            assert olver.eval_t_poly(p, a) == eval_poly_reference(p, a)
        if r >= 1:
            table = olver.z_table(r)
            assert olver.z_diff_by_b(r, a) == {
                b: eval_poly_reference(table[b], -a) - eval_poly_reference(table[b], a) for b in sorted(table)
            }
            for t in (F(1), F(2, 3), a):
                assert olver.m_poly_eval(r, t, a) == reference_eval_m(r, t, a)


@pytest.mark.parametrize("r", range(1, 7))
def test_float_evaluation_matches_the_exact_tables_bit_for_bit(r):
    """The float view of the tables sums the same terms in the same order as
    the generic sum over the exact tables."""
    for t in (0.15, 0.5, 1.0 / math.sqrt(2.0), 1.0):
        u, v = olver.olver_pair(r)
        assert olver.eval_uv(r, t) == (eval_poly_reference(u, t), eval_poly_reference(v, t))


def _w_series(order: int) -> list:
    """w_r = v_r + a t u_{r-1} for r = 1..order, as (t, a)-polynomials."""
    ws = [None]
    for r in range(1, order + 1):
        w = {e: {0: c} for e, c in olver.olver_pair(r)[1].items()}
        for e, c in olver.olver_pair(r - 1)[0].items():
            w.setdefault(e + 1, {})[1] = c
        ws.append(w)
    return ws


def test_recurrence_matches_the_powers_of_s():
    """D_r and M_r from the recurrence r L_r = r w_r - sum j L_j w_{r-j} equal
    the formal logarithm summed over the powers of its argument, exactly,
    for every r <= 12."""
    top = olver.DEFAULT_MAX_ORDER
    us = [None] + [olver.olver_pair(r)[0] for r in range(1, top + 1)]
    d_ref = series_log_powers(us, top, olver._tp_mul, olver._tp_scale, olver._tp_add)
    m_ref = series_log_powers(_w_series(top), top, olver._tap_mul, olver._tap_scale, olver._tap_add)
    for r in range(1, top + 1):
        assert olver.d_poly(r) == d_ref[r]
        assert olver.m_poly(r) == {e: ap for e, ap in m_ref[r].items() if ap}


def test_dump_olver_builds_each_order_once(tmp_path, monkeypatch):
    """From empty tables, ``dump-olver --order 12`` appends every order of D
    and of M to its table once, ascending, and writes the bytes the
    powers-of-S build wrote (SHA-256 below)."""
    appended = {"d": [], "m": []}

    class Recording(list):
        def __init__(self, key):
            super().__init__([None])
            self.key = key

        def append(self, value):
            appended[self.key].append(len(self))
            super().append(value)

    monkeypatch.setattr(olver, "_d_cache", Recording("d"))
    monkeypatch.setattr(olver, "_w_cache", [None])
    monkeypatch.setattr(olver, "_m_cache", Recording("m"))
    monkeypatch.setattr(olver, "_z_table", functools.cache(olver._z_table.__wrapped__))
    out = tmp_path / "olver.json"
    assert cli.main(["dump-olver", "--order", "12", "--out", str(out)]) == 0
    assert appended == {"d": list(range(1, 13)), "m": list(range(1, 13))}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9c818d25c109953d235354268b0b8d3a7431883799b8639bdd1bfd1199248e72"
    )

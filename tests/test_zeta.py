"""Zeta continuation: residues, Mellin values, shifted values/derivatives,
their oracles, and the convergent K-series corrections.  Values off the
half-integer grid, which production never reads, come from
``continued_zeta``: the reference A series with scalar-quadrature B and F."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from conetorsion.crosssection import build_cross_section, coclosed_spectrum, theta_heat_coeffs
from conetorsion.errors import ZetaPoleError
from conetorsion.firstorder import first_order_shifted
from conetorsion import zeta
from reference_oracles import continued_zeta, theta, theta_direct


def _split(sl) -> zeta.MellinSplit:
    """A fresh split of ``sl`` at the planned t0."""
    return zeta.MellinSplit(sl, zeta.plan_t0(sl.cross_section))


def test_residues_unit_t2(t2_splits):
    res = zeta.build_zeta_eval(t2_splits[0]).residues
    assert set(res) == {1}
    assert res[1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    # residues at odd s vanish identically on even-dimensional N
    ms = t2_splits[0]
    assert ms.heats[0].residue(1) == 0.0
    assert ms.heats[0].residue(3) == 0.0


def test_residue_volume_scaling():
    big = build_cross_section(
        {
            "family": "flat_torus",
            "dim_n": 2,
            "lattice_basis": [[2 * math.pi, 0], [0, 2 * math.pi]],
        }
    )
    sl = coclosed_spectrum(big, 0, zeta.cutoff_for_tolerance(big, 0, 1e-10, zeta.plan_t0(big)))
    assert _split(sl).heats[0].residue(2) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_zeta_mellin_large_s_vs_direct(unit_t2):
    sl = coclosed_spectrum(unit_t2, 0, 500000.0)
    ms = _split(sl)
    nu = sl.nu()
    for s, value in ((6.0, ms.pp_s(6)[0]), (8.0, ms.pp_s(8)[0]), (9.5, continued_zeta(ms, 9.5))):
        direct = float(np.sum(sl.counts * nu**-s))
        assert value == pytest.approx(direct, abs=1e-10)


def _epstein_z(s: float) -> float:
    """Z(s) = sum_{m != 0} |m|^{-s} over Z^2, via 4 zeta(s/2) beta(s/2)."""
    mpmath.mp.dps = 30
    half = mpmath.mpf(s) / 2
    beta = 4**-half * (mpmath.zeta(half, mpmath.mpf(1) / 4) - mpmath.zeta(half, mpmath.mpf(3) / 4))
    return float(4 * mpmath.zeta(half) * beta)


def test_zeta_mellin_s1_vs_epstein_acceleration(t2_splits):
    """Independent acceleration oracle at the odd non-pole point s = 1:
    subtract the large-|m| expansion of nu^{-1} term by term and restore the
    subtracted pieces from the Epstein zeta closed form 4 zeta beta."""
    r_max = 60
    grid = np.arange(-r_max, r_max + 1)
    mx, my = np.meshgrid(grid, grid, indexing="ij")
    q = (mx**2 + my**2).astype(float).ravel()
    q = q[q > 0]
    q = q[q <= r_max**2]  # complete ball
    c1 = 1.0 / (2.0 * math.pi)
    c2 = -1.0 / (64.0 * math.pi**3)
    c3 = 3.0 / (4096.0 * math.pi**5)
    c4 = -5.0 / (131072.0 * math.pi**7)
    f = (4.0 * math.pi**2 * q + 0.25) ** -0.5
    model = c1 * q**-0.5 + c2 * q**-1.5 + c3 * q**-2.5 + c4 * q**-3.5
    accelerated = float(np.sum(f - model))
    accelerated += c1 * _epstein_z(1.0) + c2 * _epstein_z(3.0)
    accelerated += c3 * _epstein_z(5.0) + c4 * _epstein_z(7.0)
    assert t2_splits[0].pp_s(1)[0] == pytest.approx(accelerated, abs=1e-9)


def test_pole_behavior(t2_splits):
    ms = t2_splits[0]
    # s = 2 is the pole of A at sigma = 1
    with pytest.raises(ZetaPoleError):
        ms.a_value(1.0)
    pp, _ = ms.pp_s(2)
    assert math.isfinite(pp)
    # (s - 2) zeta(s) -> residue: two-sided evaluation at s = 2 +- 1e-4
    res = ms.heats[0].residue(2)
    h = 1e-4
    left = continued_zeta(ms, 2.0 - h)
    right = continued_zeta(ms, 2.0 + h)
    approx = 0.5 * (h * right + (-h) * left)
    assert abs(approx - res) / res <= 1e-6


def test_zeta0_values(t2_splits):
    z0_expected = -1.0 / (16.0 * math.pi) - 1.0
    for k in (0, 1):
        z0 = t2_splits[k].zeta0()
        # identical slices by duality: the same value in both degrees (the
        # harmonic subtraction is the per-point multiplicity, not b_k)
        assert z0 == pytest.approx(z0_expected, rel=1e-13)


def test_zeta_prime0_vs_finite_difference(t2_splits):
    """Richardson-extrapolated central differences of the continued zeta at
    s = +-h reproduce zeta'(0) to <= 1e-7."""
    ms = t2_splits[0]
    zp, _ = ms.zeta_prime0()

    def central(h):
        return (continued_zeta(ms, h) - continued_zeta(ms, -h)) / (2.0 * h)

    h = 1e-3
    d1 = central(h)
    d2 = central(h / 2.0)
    richardson = (4.0 * d2 - d1) / 3.0
    assert abs(richardson - zp) <= 1e-7


def test_zeta_mellin_small_negative_s(t2_splits):
    """Just left of zero the continuation follows zeta(0) + zeta'(0) s, which
    is what legitimizes the central-difference oracle."""
    ms = t2_splits[0]
    z0, (zp, _) = ms.zeta0(), ms.zeta_prime0()
    for s in (-1e-3, -1e-4):
        assert continued_zeta(ms, s) == pytest.approx(z0 + zp * s, abs=5e-7)


def test_k_series_basics(t2_slices, t2_splits):
    sl = t2_slices[0]
    j = zeta.default_order(2)
    # alpha = 0: every term vanishes
    sl0 = dataclasses.replace(sl, alpha=0.0)
    assert zeta._k_direct(sl0, [sl0.alpha], j)[0] == [[0.0, 0.0]]
    # sign symmetry: zeta'(0, +a) on the alpha -> -alpha slice equals zeta'(0, -a)
    flipped = dataclasses.replace(sl, alpha=-sl.alpha)
    flipped = _split(flipped)
    assert zeta.shifted_zeta_prime0(flipped, +1) == zeta.shifted_zeta_prime0(t2_splits[0], -1)
    assert zeta.shifted_zeta_prime0(flipped, -1) == zeta.shifted_zeta_prime0(t2_splits[0], +1)


def test_k_series_cutoff_doubling(unit_t2):
    base = zeta.cutoff_for_tolerance(unit_t2, 0, 1e-12, zeta.plan_t0(unit_t2))
    values = []
    for mult in (1, 4):
        sl = coclosed_spectrum(unit_t2, 0, base * mult)
        values.append(zeta._k_direct(sl, [sl.alpha], zeta.default_order(2))[0][0][0])
    assert abs(values[0] - values[1]) <= 1e-9  # stabilizes to 9 digits


def test_shifted_zeta0(t2_slices, t2_splits):
    ms = t2_splits[0]
    assert zeta.shifted_zeta0(ms, +1) == pytest.approx(-1.0, abs=1e-12)
    assert zeta.shifted_zeta0(ms, -1) == pytest.approx(-1.0, abs=1e-12)
    # alpha = 0 reduces to zeta(0)
    ms0 = _split(dataclasses.replace(t2_slices[0], alpha=0.0))
    assert zeta.shifted_zeta0(ms0, +1) == ms0.zeta0()
    # sign difference vanishes on even-dimensional N (odd residues are zero)
    assert zeta.shifted_zeta0(ms, +1) - zeta.shifted_zeta0(ms, -1) == 0.0


def test_shifted_prime0_order_independence(unit_t2, monkeypatch):
    """The K series summed directly at orders J, J + 4 and J + 8, each with
    the Mellin terms up to its own order, gives one zeta'(0, +-a) to 1e-12
    on unit and 32 I T^2.  J is raised by patching ``default_order`` and
    building fresh slices and splits at the cutoff planned for J."""
    big = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[32, 0], [0, 32]]}
    )
    default = zeta.default_order
    for cs in (unit_t2, big):
        cutoff = zeta.cutoff_for_tolerance(cs, 0, 1e-12, zeta.plan_t0(cs))
        ms = _split(coclosed_spectrum(cs, 0, cutoff))
        v_j = {sign: zeta.shifted_zeta_prime0(ms, sign)[0] for sign in (+1, -1)}
        for extra in (4, 8):
            monkeypatch.setattr(zeta, "default_order", lambda n, extra=extra: default(n) + extra)
            ms = _split(coclosed_spectrum(cs, 0, cutoff))
            for sign in (+1, -1):
                v, _ = zeta.shifted_zeta_prime0(ms, sign)
                assert abs(v - v_j[sign]) <= 1e-12, (cs.volume, sign, extra, v - v_j[sign])
        monkeypatch.setattr(zeta, "default_order", default)


def test_shifted_prime0_alpha_zero(t2_slices):
    ms0 = _split(dataclasses.replace(t2_slices[0], alpha=0.0))
    zp, _ = ms0.zeta_prime0()
    v, _ = zeta.shifted_zeta_prime0(ms0, +1)
    assert v == zp


def test_first_order_oracle_theta_identity(t2_slices):
    """The subordinated small-time model plus remainder reproduces the direct
    first-order theta sum to machine precision."""
    fo = first_order_shifted(t2_slices[0], +1)
    for t in (0.4, 0.8, 1.0):
        sub = theta(fo, t)
        direct = theta_direct(fo, t2_slices[0].cross_section, t)
        assert abs(sub - direct) <= 1e-12 * max(1.0, abs(direct))


def test_shifted_values_against_first_order_oracle(t2_slices, t2_splits):
    """Acceptance-grade check: zeta(0, +-a) and zeta'(0, +-a) from the
    production route agree with the independent first-order Mellin oracle."""
    for k in (0, 1):
        ms = t2_splits[k]
        for sign in (+1, -1):
            oracle = first_order_shifted(t2_slices[k], sign)
            assert zeta.shifted_zeta0(ms, sign) == pytest.approx(oracle.zeta0(), abs=1e-9)
            v, _ = zeta.shifted_zeta_prime0(ms, sign)
            assert v == pytest.approx(oracle.zeta_prime0(), abs=1e-7)


def test_shifted_values_against_first_order_oracle_t4(unit_t4):
    """The dimension-generic oracle also seals the n = 4 layer, where the
    production route involves residues at s = 2 and s = 4 and PP values up to
    the subtraction order."""
    for k in (0, 1):
        sl = coclosed_spectrum(unit_t4, k, zeta.cutoff_for_tolerance(unit_t4, k, 1e-12, zeta.plan_t0(unit_t4)))
        ms = _split(sl)
        for sign in (+1, -1):
            oracle = first_order_shifted(sl, sign)
            assert zeta.shifted_zeta0(ms, sign) == pytest.approx(oracle.zeta0(), abs=1e-10)
            v, _ = zeta.shifted_zeta_prime0(ms, sign)
            assert v == pytest.approx(oracle.zeta_prime0(), abs=1e-9)


def test_shifted_values_oracle_shear_torus():
    """Non-rectangular lattice: nothing in the pipeline may assume a square
    Gram matrix."""
    shear = build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0.5], [0, 1]]}
    )
    sl = coclosed_spectrum(shear, 0, zeta.cutoff_for_tolerance(shear, 0, 1e-12, zeta.plan_t0(shear)))
    ms = _split(sl)
    for sign in (+1, -1):
        oracle = first_order_shifted(sl, sign)
        assert zeta.shifted_zeta0(ms, sign) == pytest.approx(oracle.zeta0(), abs=1e-10)
        v, _ = zeta.shifted_zeta_prime0(ms, sign)
        assert v == pytest.approx(oracle.zeta_prime0(), abs=1e-10)


def test_zeta_eval_duality(t2_splits):
    """ZetaEval of slice k equals ZetaEval of slice n-1-k with the shifted
    fields swapped in sign, exactly on tori."""
    ev0 = zeta.build_zeta_eval(t2_splits[0])
    ev1 = zeta.build_zeta_eval(t2_splits[1])
    assert ev0.residues == ev1.residues
    assert ev0.zeta0 == ev1.zeta0
    assert ev0.zeta_prime0 == ev1.zeta_prime0
    assert ev0.pp_values == ev1.pp_values
    assert ev0.shifted0[+1] == ev1.shifted0[-1]
    assert ev0.shifted0[-1] == ev1.shifted0[+1]
    assert ev0.shifted_prime0[+1] == ev1.shifted_prime0[-1]
    assert ev0.shifted_prime0[-1] == ev1.shifted_prime0[+1]


def test_error_estimates_monotone(unit_t2):
    base = zeta.cutoff_for_tolerance(unit_t2, 0, 1e-10, zeta.plan_t0(unit_t2))
    ev1 = zeta.build_zeta_eval(_split(coclosed_spectrum(unit_t2, 0, base)))
    ev2 = zeta.build_zeta_eval(_split(coclosed_spectrum(unit_t2, 0, 2 * base)))
    for key in ev1.err:
        assert ev2.err[key] <= ev1.err[key] * (1 + 1e-12)


def test_residue_two_routes_agree(t2_splits, unit_t2):
    """The residue of the split's A table at its pole sigma = 1, turned into
    Res_{s=2} zeta = 2 Res_{sigma=1} A / Gamma(1), equals the closed
    heat-model formula ``HeatModel.residue`` that Res and the split read."""
    ms = t2_splits[0]
    rho, _ = ms.a_residue_and_finite(1.0)
    assert 2.0 * rho / math.gamma(1.0) == pytest.approx(theta_heat_coeffs(unit_t2, 0).residue(2), rel=1e-14)


def test_pp_values_match_plain_values_off_poles(t2_splits):
    ms = t2_splits[0]
    assert ms.pp_s(1)[0] == pytest.approx(continued_zeta(ms, 1.0), rel=1e-12)
    for r in (3, 5):
        near = continued_zeta(ms, r + 1e-7)
        assert ms.pp_s(r)[0] == pytest.approx(near, rel=1e-5)

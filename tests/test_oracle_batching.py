"""The verify oracles in batched and closed form against their per-point forms.

The Gelfand-Yaglom oracle advances a whole batch of model ODEs in one solve;
each entry must match its one-element call and, on a grid reaching far into
the growing regime, the Bessel closed form to 1e-12, and a system it cannot
resolve is a named error.  The first-order B integral takes
its t integral in closed form; the window must match direct quadrature and
the swapped integral must match the nested t/u form it replaces, with the
remainder evaluated in a few vectorised calls that match the scalar
reference sum.  The
first-order F is a sum of exponential integrals; it must match the per-level
quadrature it replaces.  Both signs' B1 come from one quadrature.  The
closed-form determinant ratios and the Wronskian draws of ``verify`` run in
batches that must match the per-entry and per-draw forms they replace.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from conetorsion import bessel, cli, firstorder, zeta
from conetorsion import torsion as T
from conetorsion.crosssection import build_cross_section, coclosed_spectrum
from conetorsion.errors import DomainError, ODEIntegrationError
from conetorsion.firstorder import _HORIZON, _window_integral, first_order_shifted
from reference_oracles import (
    model_det_ratio_reference,
    remainder_theta,
    second_order_remainder,
    wronskian_draws_reference,
)


def _det_grid():
    """The 150-point grid of ``conetorsion verify``'s det-ratio check."""
    specs, zs = [], []
    for kind in ("psi_truncated", "phi_truncated"):
        for nu in (1.0, 2.0, 3.5, 6.0, 10.0):
            for z in (0.1, 0.4, 1.0, 2.0, 4.0):
                for eps in (0.1, 0.25, 0.5):
                    specs.append(T.ModelOperatorSpec(kind, nu, 0.5, eps))
                    zs.append(z)
    return specs, zs


def test_batched_gy_matches_single_calls():
    specs, zs = _det_grid()
    batch = T.gy_det_ratio_oracles(specs, zs)
    single = np.array([T.gy_det_ratio_oracle(spec, z) for spec, z in zip(specs, zs)])
    assert batch.shape == (150,)
    assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-10


def test_mixed_batch_matches_single_calls():
    entries = [
        (T.ModelOperatorSpec("harmonic_H0", 1.5, 1.5, 0.1), 0.0),
        (T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.25), 1.0),
        (T.ModelOperatorSpec("psi_truncated", 2.0, 0.5, 0.25), 0.0),
        (T.ModelOperatorSpec("phi_truncated", 3.5, 1.5, 0.1), 2.0),
        (T.ModelOperatorSpec("harmonic_H0", 0.5, -0.5, 0.5), 0.0),
    ]
    batch = T.gy_det_ratio_oracles([s for s, _ in entries], [z for _, z in entries])
    assert batch[2] == 1.0  # z = 0 ratio, no integration
    for value, (spec, z) in zip(batch, entries):
        single = T.gy_det_ratio_oracle(spec, z)
        assert abs(value - single) <= 1e-10 * abs(single)
    assert batch[0] == pytest.approx(T.harmonic_det(1.5, 0.1), rel=1e-12)
    assert batch[3] == pytest.approx(T.model_det_ratio(entries[3][0], 2.0), rel=1e-10)
    assert T.gy_det_ratio_oracles([], []).shape == (0,)


@pytest.mark.parametrize(
    "bad",
    [
        (T.ModelOperatorSpec("harmonic_H0", 1.5, 1.5, 0.1), 1.0),
        (T.ModelOperatorSpec("harmonic_H0", 0.0, 0.0, 0.1), 0.0),
        (T.ModelOperatorSpec("psi_full", 1.0, 0.5), 1.0),
        (T.ModelOperatorSpec("phi_truncated", 2.0, 0.5, 0.25), -1.0),
    ],
    ids=["harmonic-z", "harmonic-alpha0", "full-kind", "negative-z"],
)
def test_one_bad_entry_raises_the_scalar_error(bad):
    spec, z = bad
    with pytest.raises(DomainError) as scalar:
        T.gy_det_ratio_oracle(spec, z)
    good = (T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.25), 1.0)
    with pytest.raises(DomainError) as batched:
        T.gy_det_ratio_oracles([good[0], spec, good[0]], [good[1], z, good[1]])
    assert str(batched.value) == str(scalar.value)


def test_batches_beyond_the_tolerance_floor_are_chunked():
    """A batch of 25 systems at rtol 1e-13 matches the one-system solves,
    with no warning."""
    nu = np.linspace(1.0, 6.0, 25)
    w2 = np.linspace(0.0, 4.0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, fp = T._integrate_model_ode(nu, w2, 1.0, 0.25, 1.0, 0.0, rtol=1e-13)
    for i in range(25):
        fi, fpi = T._integrate_model_ode(nu[i], w2[i], 1.0, 0.25, 1.0, 0.0, rtol=1e-13)
        assert f[i] == pytest.approx(fi[0], rel=1e-11)
        assert fp[i] == pytest.approx(fpi[0], rel=1e-11)


def test_gy_matches_the_closed_form_on_the_stress_grid():
    """Both truncated kinds over nu up to 20, z up to 20 and eps from 0.05 to
    0.9 (the closed form is finite on all 160 entries; the largest ratio
    is about e^331), all in one batch."""
    specs, zs = [], []
    for kind in ("psi_truncated", "phi_truncated"):
        for nu in (0.6, 2.0, 10.0, 20.0):
            for z in (0.1, 1.0, 4.0, 8.0, 20.0):
                for eps in (0.05, 0.1, 0.5, 0.9):
                    specs.append(T.ModelOperatorSpec(kind, nu, 0.5, eps))
                    zs.append(z)
    cf = np.array([T.model_det_ratio(spec, z) for spec, z in zip(specs, zs)])
    gy = T.gy_det_ratio_oracles(specs, zs)
    assert np.max(np.abs(gy - cf) / cf) <= 1e-12


def test_verify_det_grid_agrees_to_1e_12():
    assert cli._check_det_grid(cli._VerifyInputs()) <= 1e-12


def test_each_system_runs_on_its_own_mesh(monkeypatch):
    """verify's 159 Gelfand-Yaglom systems build the 1,865 Taylor steps of
    their own meshes, not 159 copies of the longest; and a system's result
    does not depend on its batch: nu = 20, z = 0.1, eps = 0.05, which the
    longest mesh of a batch used to carry, is solved alone to the closed
    form, bit for bit as in the stress batch."""
    built = []
    steps = T._step_propagators

    def counting(nu, w2, x, h):
        built.append(h.size)
        return steps(nu, w2, x, h)

    grid, harmonic = cli._det_grid_entries(), cli._harmonic_specs()
    specs = [spec for spec, _ in grid] + harmonic
    zs = [z for _, z in grid] + [0.0] * len(harmonic)
    monkeypatch.setattr(T, "_step_propagators", counting)
    T.gy_det_ratio_oracles(specs, zs)
    monkeypatch.undo()
    assert built == [1865]
    spec = T.ModelOperatorSpec("psi_truncated", 20.0, 0.5, 0.05)
    alone = T.gy_det_ratio_oracle(spec, 0.1)
    wide = T.ModelOperatorSpec("phi_truncated", 20.0, 0.5, 0.05)
    assert alone == T.gy_det_ratio_oracles([spec, wide], [0.1, 20.0])[0]
    assert abs(alone - T.model_det_ratio(spec, 0.1)) <= 1e-12 * alone


@pytest.mark.parametrize("t0", [30.0, 100.0])
def test_first_order_model_series_is_capped(t0):
    """The model integral's series of e^{-rate t}, rate = c + |alpha| = 1 on
    unit T^2 with sign +1, cancels as rate t0 grows (4.3e-6 off the
    production value at t0 = 30, an OverflowError at 100): past A_CAP the
    oracle is a DomainError naming rate t0, as the production A part is."""
    cs = build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]]})
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-10, zeta.plan_t0(cs)))
    with pytest.raises(DomainError, match=rf"\(c \+ \|alpha\|\) t0 = {t0:g} exceeds A_CAP = 8"):
        first_order_shifted(sl, +1, t0)


def test_overflowing_system_is_a_named_error_without_warnings():
    spec = T.ModelOperatorSpec("psi_truncated", 10.0, 0.5, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ODEIntegrationError) as err:
            T.gy_det_ratio_oracle(spec, 100.0)
    message = str(err.value)
    assert "nu=10, w^2=1e+06 on [1, 0.1]: the solution overflows binary64" in message
    assert "Taylor tail ratio" in message


@pytest.mark.parametrize(
    "w2,x_start,rtol",
    [(4.0, 1.0, 1e-30), (math.nan, 1.0, 1e-12), (4.0, -1.0, 1e-12)],
    ids=["unreachable-rtol", "nan-w2", "interval-through-0"],
)
def test_unresolved_system_is_a_named_error(w2, x_start, rtol):
    """No 30-term Taylor step reaches a tail of 1e-30 of its sum, and no mesh
    resolves a nan coefficient or the singular point x = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ODEIntegrationError) as err:
            T._integrate_model_ode(2.0, w2, x_start, 0.25, 1.0, 0.0, rtol=rtol)
    assert f"nu=2, w^2={w2:g} on [{x_start:g}, 0.25]: the Taylor series is not converged" in str(err.value)


def test_window_integral_matches_quadrature():
    branches = set()
    worst = 0.0
    for c in (0.5, -0.5, 1.5, -1.5, 2.5, -2.5):
        for u in np.geomspace(1e-4, 300.0, 40):
            for t0 in (0.3, 1.0, 2.0):
                a = c * math.sqrt(u)
                b = a + t0 / (2.0 * math.sqrt(u))
                branches.add("a>=0" if a >= 0 else ("b<=0" if b <= 0 else "a<0<b"))
                ref, _ = integrate.quad(
                    lambda t: math.exp(-c * t - t * t / (4.0 * u)),
                    0.0,
                    t0,
                    epsabs=0.0,
                    epsrel=1e-13,
                    limit=200,
                )
                worst = max(worst, abs(_window_integral(c, t0, u) - ref) / abs(ref))
    assert branches == {"a>=0", "b<=0", "a<0<b"}
    assert worst <= 1e-13


def test_window_integral_array_matches_scalar_calls():
    """The arrays over u, one per shift c, span all three branches and equal
    the per-element scalar calls bit for bit."""
    branches = set()
    u = np.geomspace(1e-4, 300.0, 200)
    for c in (0.5, -0.5, 2.5, -2.5):
        a = c * np.sqrt(u)
        b = a + 1.0 / (2.0 * np.sqrt(u))
        branches |= {"a>=0" if x >= 0 else ("b<=0" if y <= 0 else "a<0<b") for x, y in zip(a, b)}
        window = _window_integral(c, 1.0, u)
        assert window.shape == u.shape
        assert window.tolist() == [float(_window_integral(c, 1.0, x)) for x in u.tolist()]
    assert branches == {"a>=0", "b<=0", "a<0<b"}


def _nested_b1(fo) -> float:
    """B1 as the t quadrature of the subordinated remainder (the inner u
    quadrature runs inside the reference ``remainder_theta``)."""
    val, _ = integrate.quad(
        lambda t: math.exp(-fo.shifts[0] * t) * remainder_theta(fo, t) / t,
        0.0,
        fo.t0,
        epsabs=1e-11,
        epsrel=1e-10,
        limit=200,
    )
    return val


_GEOMETRIES = {
    "unit-t2": [[1.0, 0.0], [0.0, 1.0]],
    "sheared-t2": [[1.0, 0.5], [0.0, 1.0]],
    "unit-t4": np.eye(4).tolist(),
}


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize(
    "geometry,k",
    [("unit-t2", 0), ("unit-t2", 1), ("sheared-t2", 0), ("unit-t4", 0), ("unit-t4", 1)],
)
def test_swapped_b1_matches_nested_form(geometry, k, sign):
    basis = _GEOMETRIES[geometry]
    cs = build_cross_section({"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis})
    fo = first_order_shifted(coclosed_spectrum(cs, k, 400.0), sign)
    assert abs(fo.b1[0] - _nested_b1(fo)) <= 1e-13


def _quad_f1(fo) -> float:
    """F1 as the per-level quadrature of e^{-mu t} / t that the closed form
    replaced, over the same levels."""
    mu_all = fo._nu + fo.shifts[0]
    keep = mu_all * fo.t0 <= _HORIZON
    vals = []
    for mu, cnt in zip(mu_all[keep], fo._counts[keep]):
        upper = fo.t0 + (_HORIZON + 10.0) / mu
        v, _ = integrate.quad(
            lambda t: math.exp(-mu * t) / t, fo.t0, upper, epsabs=1e-12, epsrel=1e-11, limit=400
        )
        vals.append(float(cnt) * v)
    return math.fsum(vals)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
def test_closed_form_f1_matches_quadrature(geometry, sign):
    basis = _GEOMETRIES[geometry]
    cs = build_cross_section({"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis})
    for k in range(len(basis)):
        fo = first_order_shifted(coclosed_spectrum(cs, k, 400.0), sign)
        ref = _quad_f1(fo)
        assert abs(fo.f1[0] - ref) <= 1e-14 * ref


def _first_order(geometry, k=0, sign=+1):
    basis = _GEOMETRIES[geometry]
    cs = build_cross_section({"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis})
    return first_order_shifted(coclosed_spectrum(cs, k, 400.0), sign)


@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
def test_array_remainder_matches_the_scalar_reference(geometry):
    """The blocked array remainder, which drops the terms below e^-700,
    against the scalar sum over every enumerated term, on both sides of u_c."""
    fo = _first_order(geometry)
    u = np.concatenate([np.geomspace(1e-3, fo._u_c, 60), np.geomspace(fo._u_c * 1.001, fo._u_upper, 60)])
    got = fo._remainders(u)
    ref = np.array([second_order_remainder(fo, x) for x in u.tolist()])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 1e-300)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
def test_b1_evaluates_the_remainder_in_few_vectorised_calls(geometry, sign, monkeypatch):
    calls = []
    remainders = firstorder.FirstOrderZeta._remainders

    def counting(self, u):
        calls.append(u.size)
        return remainders(self, u)

    monkeypatch.setattr(firstorder.FirstOrderZeta, "_remainders", counting)
    _first_order(geometry, sign=sign)
    assert 1 <= len(calls) <= 20


@pytest.mark.parametrize("route", ["first-order B1", "production B"])
def test_quadrature_warns_when_the_panel_limit_is_hit(monkeypatch, route):
    """Both users of the shared Gauss-Kronrod engine report non-convergence."""
    if route == "first-order B1":
        monkeypatch.setitem(firstorder._QUAD, "limit", 3)
        run = functools.partial(_first_order, "sheared-t2")
    else:
        monkeypatch.setitem(zeta._QUAD_OPTS, "limit", 3)
        cs = build_cross_section({"family": "flat_torus", "dim_n": 2, "lattice_basis": _GEOMETRIES["sheared-t2"]})
        sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8, zeta.plan_t0(cs)))
        run = functools.partial(zeta.MellinSplit, sl, 1.0)
    with pytest.warns(integrate.IntegrationWarning, match="did not converge: error estimate"):
        run()


def test_more_starting_panels_than_the_limit_still_warn():
    """A quadrature that starts with more panels than ``limit`` never
    refines, so it warns even when its integrand is smooth."""
    with pytest.warns(integrate.IntegrationWarning, match="did not converge: error estimate"):
        zeta.quad_gk21(
            lambda t: np.exp(-t)[:, None], np.linspace(0.0, 1.0, 7), epsabs=1e-13, epsrel=1e-12, limit=3,
            label=lambda: "six panels",
        )


@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
def test_both_signs_share_one_b1_quadrature(geometry, monkeypatch):
    """The B1 values of an oracle with the rows +alpha and -alpha, from one
    two-component quadrature over one remainder, agree with the single-sign
    oracles within the quadrature tolerance; all three enumerate the same
    geometry."""
    basis = _GEOMETRIES[geometry]
    cs = build_cross_section({"family": "flat_torus", "dim_n": len(basis), "lattice_basis": basis})
    sl = coclosed_spectrum(cs, 0, 400.0)
    single = {sign: first_order_shifted(sl, sign) for sign in (+1, -1)}
    b1 = {sign: fo.b1[0] for sign, fo in single.items()}
    calls = []
    quad = firstorder.quad_gk21
    monkeypatch.setattr(firstorder, "quad_gk21", lambda *a, **k: calls.append(1) or quad(*a, **k))
    pair = firstorder.FirstOrderZeta(sl, (sl.alpha, -sl.alpha))
    assert np.array_equal(pair._eta, single[+1]._eta) and np.array_equal(pair._eta, single[-1]._eta)
    for row, sign in enumerate((+1, -1)):
        assert abs(pair.b1[row] - b1[sign]) <= 1e-13
    assert len(calls) == 1


def test_wronskian_draws_match_the_per_draw_sampling():
    """One batch of 200 uniforms gives the bits of the 200 alternating
    ``uniform`` calls, and the batched residuals those of the scalar ones."""
    nu, x = cli._wronskian_draws()
    draws = wronskian_draws_reference()
    assert list(zip(nu.tolist(), x.tolist())) == draws
    assert cli._check_wronskian(cli._VerifyInputs()) == max(bessel.wronskian_residual(n, y) for n, y in draws)


def _closed_form_grid():
    """The verify grid, both full kinds, and the stress grid of
    ``test_gy_matches_the_closed_form_on_the_stress_grid`` with a z = 0 entry."""
    specs, zs = _det_grid()
    for kind in ("psi_full", "phi_full"):
        for nu in (1.0, 3.5, 12.0):
            for z in (0.3, 1.3, 6.0):
                specs.append(T.ModelOperatorSpec(kind, nu, 0.5))
                zs.append(z)
    for kind in ("psi_truncated", "phi_truncated"):
        for nu in (0.6, 20.0):
            for z in (0.0, 8.0, 20.0):
                for eps in (0.05, 0.9):
                    specs.append(T.ModelOperatorSpec(kind, nu, 0.5, eps))
                    zs.append(z)
    return specs, zs


def test_batched_closed_form_matches_the_per_entry_form():
    specs, zs = _closed_form_grid()
    got = T.model_det_ratios(specs, zs)
    for value, spec, z in zip(got.tolist(), specs, zs):
        ref = 1.0 if z == 0.0 else model_det_ratio_reference(spec, z)
        assert abs(value - ref) <= 1e-15 * ref
        assert abs(T.model_det_ratio(spec, z) - ref) <= 1e-15 * ref
    assert T.model_det_ratios([], []).shape == (0,)


@pytest.mark.parametrize(
    "bad, error",
    [
        ((T.ModelOperatorSpec("psi_truncated", 0.5, 0.5, 0.25), 1.0), DomainError),
        ((T.ModelOperatorSpec("harmonic_H0", 1.5, 1.5, 0.1), 1.0), DomainError),
        ((T.ModelOperatorSpec("phi_truncated", 2.0, 0.5, 0.25), -1.0), DomainError),
        ((T.ModelOperatorSpec("psi_full", 1.0, 0.5), 1000.0), OverflowError),
        ((T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.1), 2000.0), OverflowError),
    ],
    ids=["pole", "harmonic", "negative-z", "full-overflow", "truncated-overflow"],
)
def test_batched_closed_form_names_the_first_failing_entry(bad, error):
    spec, z = bad
    with pytest.raises(error) as scalar:
        T.model_det_ratio(spec, z)
    good = T.ModelOperatorSpec("psi_truncated", 1.0, 0.5, 0.25)
    with pytest.raises(error) as batched:
        T.model_det_ratios([good, spec, spec], [1.0, z, z])
    assert str(batched.value) == f"{scalar.value} (entry 1: {spec}, z={z})"

"""The B and F parts of the Mellin split against scalar per-sigma and
per-level quadrature, independence of the request order, loud
non-convergence, and split-point independence on a skinny torus."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from conetorsion import zeta
from conetorsion.crosssection import CrossSection, build_cross_section, coclosed_spectrum

# fixed before the vector quadrature and the closed forms were written
ABS_BOUND = 1e-13
REL_BOUND = 1e-12

GEOMETRIES = {
    "unit-t2": np.eye(2),
    "sheared-t2": np.array([[1.0, 0.37], [0.0, 1.0]]),
    "diag-t2": np.diag([1.0, 0.1]),
    "32I-t2": 32.0 * np.eye(2),
    "unit-t4": np.eye(4),
}


def _torus(basis) -> CrossSection:
    basis = np.asarray(basis, dtype=float)
    return build_cross_section(
        {"family": "flat_torus", "dim_n": basis.shape[0], "lattice_basis": basis.tolist()}
    )


def _b_ref(ms: zeta.MellinSplit, sigma: float) -> float:
    """B(sigma) by one scalar adaptive quadrature."""
    return integrate.quad(
        lambda t: t ** (sigma - 1.0) * ms._remainder(t), 0.0, ms.t0, **zeta._QUAD_OPTS
    )[0]


def _f_ref(ms: zeta.MellinSplit, sigma: float) -> float:
    """F(sigma) by one scalar adaptive quadrature per level."""
    vals = []
    for mu, m in zip(ms._f_mu, ms._f_mult):
        upper = ms.t0 + (zeta._EXP_FLOOR + 10.0) / mu
        v, _ = integrate.quad(
            lambda t: t ** (sigma - 1.0) * math.exp(-mu * t), ms.t0, upper, **zeta._QUAD_OPTS
        )
        vals.append(float(m) * v)
    return math.fsum(vals)


def _sigmas(n: int) -> list[float]:
    return [-0.25, -5e-4] + [r / 2.0 for r in range(zeta.default_order(n) + 1)]


@pytest.mark.parametrize("t0", [2.0, 1.0, 0.3])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_b_and_f_match_scalar_quadrature(name, t0):
    cs = _torus(GEOMETRIES[name])
    # slices with equal (kappa, alpha^2, levels) share their integrands
    b_refs: dict = {}
    f_refs: dict = {}
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0=t0))
        ms = zeta.MellinSplit(sl, t0)
        for sigma in _sigmas(cs.dim_n):
            b_key = (ms.kappa, ms.a2, sigma)
            if b_key not in b_refs:
                b_refs[b_key] = _b_ref(ms, sigma)
            f_key = (ms.a2, ms._f_mult.tobytes(), sigma)
            if f_key not in f_refs:
                f_refs[f_key] = _f_ref(ms, sigma)
            for got, ref in ((ms.b_value(sigma)[0], b_refs[b_key]), (ms.f_value(sigma)[0], f_refs[f_key])):
                assert abs(got - ref) <= ABS_BOUND + REL_BOUND * abs(ref), (k, sigma, got, ref)


@pytest.mark.parametrize("name", ["sheared-t2", "unit-t4"])
def test_b_independent_of_request_order(name):
    cs = _torus(GEOMETRIES[name])
    sl = coclosed_spectrum(cs, 1, zeta.cutoff_for_tolerance(cs, 1, 1e-8))
    sigmas = _sigmas(cs.dim_n) + [0.3]
    forward = zeta.MellinSplit(sl)
    backward = zeta.MellinSplit(sl)
    ahead = [forward.b_value(s) for s in sigmas]
    behind = [backward.b_value(s) for s in reversed(sigmas)][::-1]
    assert ahead == behind


def test_b_non_convergence_warns(monkeypatch):
    cs = _torus(GEOMETRIES["sheared-t2"])
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8))
    monkeypatch.setitem(zeta._QUAD_OPTS, "limit", 1)
    ms = zeta.MellinSplit(sl)
    with pytest.warns(integrate.IntegrationWarning, match=r"\(0, 1\.0\].*sigma in \[0\.0, 0\.5.*error estimate"):
        ms.b_value(0.0)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_skinny_torus_split_point_invariance():
    """B = diag(1, 0.01), slice k = 0: zeta'(0) must not depend on t0.  A
    per-sigma scalar quadrature at t0 = 1 fails on the sharp remainder peak
    near t = p^2/4 ~ 2.5e-5 and returns a wrong B(0)."""
    cs = _torus(np.diag([1.0, 0.01]))
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-10, t0=0.1))
    wide, _ = zeta.MellinSplit(sl, 1.0).zeta_prime0()
    narrow, _ = zeta.MellinSplit(sl, 0.1).zeta_prime0()
    assert abs(wide - narrow) <= 1e-11

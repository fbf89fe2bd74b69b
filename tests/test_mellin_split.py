"""The A, B and F parts of the Mellin split: A against the exponential-series
loop, B and F against scalar per-sigma and per-level quadrature, B's error
estimate per (row, sigma) component, their independence of the request
order, their refusal of a sigma off the half-integer grid, loud
non-convergence, and split-point independence on a skinny torus."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from conetorsion import torsion as T
from conetorsion import zeta
from conetorsion.crosssection import CrossSection, build_cross_section, coclosed_spectrum
from conetorsion.errors import DomainError, ZetaPoleError
from reference_oracles import a_ref, b_ref, f_ref
from test_batched_b import BENCH

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


def _sigmas(n: int) -> list[float]:
    return [r / 2.0 for r in range(zeta.default_order(n) + 1)]


@pytest.mark.parametrize("t0", [2.0, 1.0, 0.3])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_b_and_f_match_scalar_quadrature(name, t0):
    cs = _torus(GEOMETRIES[name])
    # slices with equal (alpha^2, levels) share their integrands
    b_refs: dict = {}
    f_refs: dict = {}
    for k in range(cs.dim_n):
        sl = coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0=t0))
        ms = zeta.MellinSplit(sl, t0)
        for sigma in _sigmas(cs.dim_n):
            b_key = (float(ms.a2[0]), sigma)
            if b_key not in b_refs:
                b_refs[b_key] = b_ref(ms, sigma)
            f_key = (float(ms.a2[0]), ms.sl.counts.tobytes(), sigma)
            if f_key not in f_refs:
                f_refs[f_key] = f_ref(ms, sigma)
            for got, ref in ((ms.b_value(sigma)[0], b_refs[b_key]), (ms.f_value(sigma)[0], f_refs[f_key])):
                assert abs(got - ref) <= ABS_BOUND + REL_BOUND * abs(ref), (k, sigma, got, ref)


@pytest.mark.parametrize("name", ["sheared-t2", "unit-t4"])
def test_b_independent_of_request_order(name):
    cs = _torus(GEOMETRIES[name])
    sl = coclosed_spectrum(cs, 1, zeta.cutoff_for_tolerance(cs, 1, 1e-8, zeta.plan_t0(cs)))
    sigmas = _sigmas(cs.dim_n)
    forward = zeta.MellinSplit(sl, 1.0)
    backward = zeta.MellinSplit(sl, 1.0)
    ahead = [forward.b_value(s) for s in sigmas]
    behind = [backward.b_value(s) for s in reversed(sigmas)][::-1]
    assert ahead == behind


@pytest.mark.parametrize("name", ["sheared-t2", "unit-t4"])
def test_f_independent_of_request_order(name):
    """The first request fills the whole grid, so F is the same whichever
    end of the grid comes first."""
    cs = _torus(GEOMETRIES[name])
    sl = coclosed_spectrum(cs, 1, zeta.cutoff_for_tolerance(cs, 1, 1e-8, zeta.plan_t0(cs)))
    sigmas = _sigmas(cs.dim_n)
    forward = zeta.MellinSplit(sl, 1.0)
    backward = zeta.MellinSplit(sl, 1.0)
    ahead = [forward.f_value(s) for s in sigmas]
    behind = [backward.f_value(s) for s in reversed(sigmas)][::-1]
    assert ahead == behind


# each part's value at one grid sigma
READ = {
    "a_value": lambda ms, sigma: ms.a_value(sigma),
    "a_residue_and_finite": lambda ms, sigma: ms.a_residue_and_finite(sigma)[1],
    "b_value": lambda ms, sigma: ms.b_value(sigma)[0],
    "f_value": lambda ms, sigma: ms.f_value(sigma)[0],
}


@pytest.mark.parametrize("part", list(READ))
def test_off_grid_sigma_is_refused(part):
    """A, B and F exist on {0, 1/2, ..., J/2} alone: a sigma between its
    points, below it or past J/2 is a DomainError that names it."""
    cs = _torus(GEOMETRIES["sheared-t2"])
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8, zeta.plan_t0(cs)))
    ms = zeta.MellinSplit(sl, 1.0)
    top = zeta.default_order(cs.dim_n) / 2.0
    for sigma in (0.3, -0.25, top + 0.5):
        with pytest.raises(DomainError, match=rf"sigma = {sigma:g} is off the Mellin grid .*{top:g}"):
            READ[part](ms, sigma)
    on_grid = READ[part](ms, top)
    assert on_grid == pytest.approx(a_ref(ms, top), rel=2e-15) if part.startswith("a_") else on_grid > 0.0


@pytest.mark.parametrize("name", list(BENCH))
def test_a_table_matches_the_series_loop(name):
    """At every grid sigma of every slice of the benchmark geometries, at the
    planned t0, A refuses the poles, and off them the A table (heat
    coefficients summed by ``math.fsum``) equals ``a_ref``, the
    exponential-series loop it replaced.  The worst gap, 1.04e-15 relative on 0.25 I T^2 at sigma = 9/2, is the two
    roundings: an mpmath quadrature of the model integral puts the table
    6.2e-16 and the loop 4.2e-16 from it, on opposite sides."""
    cs = _torus(BENCH[name])
    t0 = zeta.plan_t0(cs)
    for k in range(cs.dim_n):
        ms = zeta.MellinSplit(coclosed_spectrum(cs, k, zeta.cutoff_for_tolerance(cs, k, 1e-8, t0)), t0)
        for r in range(zeta.default_order(cs.dim_n) + 1):
            if r % 2 == 0 and r <= cs.dim_n:  # the poles, integer sigma <= n/2
                with pytest.raises(ZetaPoleError):
                    ms.a_value(r / 2.0)
                continue
            got, ref = ms.a_value(r / 2.0), a_ref(ms, r / 2.0)
            assert abs(got - ref) <= 2e-15 * abs(ref), (k, r, got, ref)


def test_each_b_component_has_its_own_error_estimate():
    """On sheared-x2 T^4 the split's two rows share one B quadrature, and
    each (row, sigma) component carries its own QUADPACK estimate, summed
    over the final panels: ``b_err`` is a (rows x grid) table whose rows
    differ, each entry bounds its component's gap to scipy's ``quad_vec``
    at relative tolerance 1e-15, and ``b_value`` and ``pp_err`` read the
    entry of their own component."""
    cs = _torus(BENCH["t4-sheared-x2"])
    ms = T.build_splits(cs, T.NumericsParams(tolerance=1e-10))
    assert ms.b_err.shape == ms.b.shape == (2, zeta.default_order(4) + 1)
    assert not np.array_equal(ms.b_err[0], ms.b_err[1])
    powers = ms._grid - 1.0
    ref, _ = integrate.quad_vec(
        lambda t: t**powers * ms._remainders(np.array([t]))[0][:, None], 0.0, ms.t0, epsabs=1e-20, epsrel=1e-15
    )
    assert np.all(np.abs(ms.b - ref) <= ms.b_err)
    for row in (0, 1):
        for i, sigma in enumerate(ms._grid.tolist()):
            assert ms.b_value(sigma, row) == (ms.b[row, i], ms.b_err[row, i])
    assert not np.array_equal(ms.pp_err[0], ms.pp_err[1])


def test_b_non_convergence_warns(monkeypatch):
    cs = _torus(GEOMETRIES["sheared-t2"])
    sl = coclosed_spectrum(cs, 0, zeta.cutoff_for_tolerance(cs, 0, 1e-8, zeta.plan_t0(cs)))
    monkeypatch.setitem(zeta._QUAD_OPTS, "limit", 1)
    with pytest.warns(integrate.IntegrationWarning, match=r"\(0, 1\.0\].*sigma in \[0\.0, 0\.5.*error estimate"):
        zeta.MellinSplit(sl, 1.0)


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

"""The numpy E_1 and the half-integer upper incomplete gamma behind the
Mellin tail sum F, against mpmath at 40 digits."""

from __future__ import annotations

import mpmath
import numpy as np

from conetorsion import zeta


def _points() -> np.ndarray:
    """mu t0 over the F horizon [1e-4, 50], dense around the E_1 switch at 1."""
    one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    return np.concatenate([np.geomspace(1e-4, 50.0, 400), np.linspace(0.9, 1.1, 81), one])


def _rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / ref))


def test_exp1_matches_mpmath():
    x = _points()
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.e1(v)) for v in x.tolist()])
    assert _rel_error(zeta.exp1(x), ref) <= 2e-15


def test_upper_gamma_grid_matches_mpmath():
    x = _points()
    r_max = zeta.default_order(6)
    grid = zeta.upper_gamma_grid(x, r_max)
    assert len(grid) == r_max + 1
    assert np.array_equal(grid[0], zeta.exp1(x))
    with mpmath.workdps(40):
        for r in range(1, r_max + 1):
            ref = np.array([float(mpmath.gammainc(mpmath.mpf(r) / 2, v)) for v in x.tolist()])
            assert _rel_error(grid[r], ref) <= 1e-14, r

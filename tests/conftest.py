from __future__ import annotations

import numpy as np
import pytest

from conetorsion.crosssection import build_cross_section, coclosed_spectrum
from conetorsion.zeta import MellinSplit, cutoff_for_tolerance, plan_t0


@pytest.fixture(scope="session")
def unit_t2():
    return build_cross_section(
        {"family": "flat_torus", "dim_n": 2, "lattice_basis": [[1, 0], [0, 1]]}
    )


@pytest.fixture(scope="session")
def unit_t4():
    return build_cross_section(
        {"family": "flat_torus", "dim_n": 4, "lattice_basis": np.eye(4).tolist()}
    )


@pytest.fixture(scope="session")
def t2_slices(unit_t2):
    return {
        k: coclosed_spectrum(unit_t2, k, cutoff_for_tolerance(unit_t2, k, 1e-12, plan_t0(unit_t2)))
        for k in range(2)
    }


@pytest.fixture(scope="session")
def t2_splits(unit_t2, t2_slices):
    """One Mellin split per slice of ``t2_slices``, at the planned t0."""
    return {k: MellinSplit(sl, plan_t0(unit_t2)) for k, sl in t2_slices.items()}

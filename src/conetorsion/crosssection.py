"""Model cross-sections and their coclosed form-Laplacian spectra.

The production family is the flat torus T^n = R^n / (B Z^n) with even n.  For
a dual-lattice vector m != 0 the Laplacian on coclosed k-forms contributes
the eigenvalue eta = 4 pi^2 |B^{-T} m|^2 with multiplicity rank * C(n-1, k);
the m = 0 modes are harmonic, are excluded from the spectrum, and are counted
separately through the Betti numbers rank * C(n, k).  The per-point coclosed
multiplicity is not assumed: :func:`brute_force_form_laplacian` assembles the
Hodge Laplacian on a truncated Fourier basis and rediscovers it numerically.

The round-sphere family is accepted by the constructor but is experimental:
spectrum requests are rejected unless the caller supplies an explicit
spectrum table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import eigh, null_space

from .errors import ConfigError, DomainError, ExperimentalUnsupportedError

GROUP_TOL = 1e-12  # relative grouping tolerance for equal eigenvalues

FLAT_TORUS = "flat_torus"
ROUND_SPHERE = "round_sphere"


def _ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class CrossSection:
    """Descriptor of the closed even-dimensional cross-section N."""

    family: str
    dim_n: int
    bundle_rank: int = 1
    lattice_basis: Optional[np.ndarray] = None
    radius: Optional[float] = None
    volume: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.family not in (FLAT_TORUS, ROUND_SPHERE):
            raise ConfigError("cross_section.family", f"unknown family {self.family!r}")
        if self.dim_n < 2 or self.dim_n % 2 != 0:
            raise ConfigError("cross_section.dim_n", "must be an even integer >= 2")
        if self.bundle_rank < 1:
            raise ConfigError("cross_section.bundle_rank", "must be a positive integer")
        if self.family == FLAT_TORUS:
            if self.lattice_basis is None:
                raise ConfigError("cross_section.lattice_basis", "required for flat_torus")
            basis = np.asarray(self.lattice_basis, dtype=float)
            if basis.shape != (self.dim_n, self.dim_n):
                raise ConfigError(
                    "cross_section.lattice_basis",
                    f"must be {self.dim_n}x{self.dim_n}, got {basis.shape}",
                )
            det = float(np.linalg.det(basis))
            if not math.isfinite(det) or abs(det) < 1e-12:
                raise ConfigError("cross_section.lattice_basis", "matrix is singular")
            object.__setattr__(self, "lattice_basis", basis)
            object.__setattr__(self, "volume", abs(det))
        else:
            if self.radius is None or self.radius <= 0:
                raise ConfigError("cross_section.radius", "required and positive for round_sphere")
            n = self.dim_n
            vol = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * self.radius**n
            object.__setattr__(self, "volume", vol)
        object.__setattr__(self, "_caches", {})
        object.__setattr__(self, "_lock", threading.Lock())

    # -- topology ---------------------------------------------------------

    def betti(self, k: int) -> int:
        if k < 0 or k > self.dim_n:
            return 0
        if self.family == FLAT_TORUS:
            return self.bundle_rank * math.comb(self.dim_n, k)
        return self.bundle_rank if k in (0, self.dim_n) else 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(self.dim_n + 1))

    def alpha(self, k: int) -> Fraction:
        """Shift (n-1)/2 - k, a half-integer for even n."""
        return Fraction(self.dim_n - 1, 2) - k

    def coclosed_point_multiplicity(self, k: int) -> int:
        """Coclosed multiplicity per nonzero lattice point: rank * C(n-1, k)."""
        return self.bundle_rank * math.comb(self.dim_n - 1, k)

    # -- lattice geometry (flat torus only) -------------------------------

    def _require_torus(self):
        if self.family != FLAT_TORUS:
            raise ExperimentalUnsupportedError(
                "round_sphere is experimental: supply a spectrum table"
            )

    def dual_basis(self) -> np.ndarray:
        self._require_torus()
        return np.linalg.inv(np.asarray(self.lattice_basis)).T

    def min_primal_length(self) -> float:
        lens, _ = self.primal_norms(max_sq=None, min_count=1)
        return math.sqrt(float(lens[0]))

    def first_eta(self) -> float:
        eta, _ = self.lattice_eta_levels(cutoff=None, min_count=1)
        return float(eta[0])

    def _enumerate(self, mat: np.ndarray, radius: float) -> np.ndarray:
        """Squared norms |mat @ m|^2 over integer m != 0 with |mat @ m| <= radius.

        Scans the bounding box of the ball; chunked along the leading axis so
        fine cutoffs cannot exhaust memory.
        """
        n = self.dim_n
        inv = np.linalg.inv(mat)
        bounds = [int(math.floor(radius * float(np.linalg.norm(inv[i, :])) + 1e-9)) for i in range(n)]
        tail_axes = [np.arange(-b, b + 1) for b in bounds[1:]]
        tail_grid = np.meshgrid(*tail_axes, indexing="ij") if tail_axes else []
        tail = (
            np.stack([g.ravel() for g in tail_grid], axis=1).astype(float)
            if tail_axes
            else np.zeros((1, 0))
        )
        lead = np.arange(-bounds[0], bounds[0] + 1, dtype=float)
        chunk = max(1, int(4_000_000 // max(tail.shape[0], 1)))
        pieces = []
        r2 = radius * radius * (1 + 1e-12)
        for start in range(0, lead.size, chunk):
            block = lead[start : start + chunk]
            m = np.concatenate(
                [
                    np.repeat(block, tail.shape[0])[:, None],
                    np.tile(tail, (block.size, 1)),
                ],
                axis=1,
            )
            v = m @ mat.T
            sq = np.einsum("ij,ij->i", v, v)
            keep = (sq <= r2) & (sq > 0)
            pieces.append(sq[keep])
        return np.sort(np.concatenate(pieces)) if pieces else np.empty(0)

    @staticmethod
    def _group(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct levels of sorted ``values`` with their counts.

        A new level starts wherever the gap to the previous value exceeds
        GROUP_TOL * (1 + previous); each level is the mean of its members.
        """
        if values.size == 0:
            return np.empty(0), np.empty(0, dtype=int)
        gap = np.diff(values) > GROUP_TOL * (1.0 + values[:-1])
        starts = np.flatnonzero(np.concatenate(([True], gap)))
        counts = np.diff(np.append(starts, values.size))
        return np.add.reduceat(values, starts) / counts, counts

    def _cached_levels(self, key, mat, radius):
        with self._lock:
            cached = self._caches.get(key)
            if cached is not None and cached[0] >= radius * (1 - 1e-15):
                return cached
        sq = self._enumerate(mat, radius)
        grouped = self._group(sq)
        with self._lock:
            self._caches[key] = (radius, grouped)
        return radius, grouped

    def lattice_eta_levels(
        self, cutoff: Optional[float], min_count: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eta = 4 pi^2 |B^{-T} m|^2 <= cutoff with lattice-point counts."""
        self._require_torus()
        dual = self.dual_basis()
        if cutoff is None:
            radius = 1.1 * float(np.min(np.linalg.norm(dual, axis=0))) * math.sqrt(min_count + 1)
        else:
            radius = math.sqrt(max(cutoff, 0.0)) / (2.0 * math.pi)
        while True:
            _, (sq, counts) = self._cached_levels("dual", dual, radius)
            if cutoff is not None or sq.size >= min_count:
                break
            radius *= 1.5
        eta = (2.0 * math.pi) ** 2 * sq
        if cutoff is not None:
            keep = eta <= cutoff * (1 + 1e-12)
            eta, counts = eta[keep], counts[keep]
        return eta, counts

    def primal_norms(
        self, max_sq: Optional[float], min_count: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct squared lengths of nonzero primal lattice vectors."""
        self._require_torus()
        basis = np.asarray(self.lattice_basis)
        if max_sq is None:
            radius = 1.1 * float(np.min(np.linalg.norm(basis, axis=1))) * math.sqrt(min_count + 1)
        else:
            radius = math.sqrt(max_sq)
        while True:
            _, (sq, counts) = self._cached_levels("primal", basis.T, radius)
            if max_sq is not None or sq.size >= min_count:
                break
            radius *= 1.5
        if max_sq is not None:
            keep = sq <= max_sq * (1 + 1e-12)
            sq, counts = sq[keep], counts[keep]
        return sq, counts

    def dual_cell_diameter(self) -> float:
        dual = self.dual_basis()
        return float(np.sum(np.linalg.norm(dual, axis=0)))


def build_cross_section(config: dict) -> CrossSection:
    """Construct a CrossSection from a parsed configuration block."""
    if not isinstance(config, dict):
        raise ConfigError("cross_section", "must be an object")
    family = config.get("family")
    if family is None:
        raise ConfigError("cross_section.family", "missing")
    try:
        dim_n = int(config["dim_n"])
    except KeyError:
        raise ConfigError("cross_section.dim_n", "missing") from None
    except (TypeError, ValueError):
        raise ConfigError("cross_section.dim_n", "must be an integer") from None
    rank = config.get("bundle_rank", 1)
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ConfigError("cross_section.bundle_rank", "must be an integer")
    basis = config.get("lattice_basis")
    if basis is not None:
        try:
            basis = np.asarray(basis, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("cross_section.lattice_basis", "must be a numeric matrix") from None
    radius = config.get("radius")
    known = {"family", "dim_n", "bundle_rank", "lattice_basis", "radius"}
    for key in config:
        if key not in known:
            raise ConfigError(f"cross_section.{key}", "unknown field")
    return CrossSection(
        family=family, dim_n=dim_n, bundle_rank=rank, lattice_basis=basis, radius=radius
    )


def betti_numbers(cs: CrossSection) -> tuple[list[int], int]:
    """All Betti numbers b_0..b_n of (N, E_N) and the Euler characteristic."""
    betti = [cs.betti(k) for k in range(cs.dim_n + 1)]
    return betti, sum((-1) ** k * b for k, b in enumerate(betti))


# ---------------------------------------------------------------------------
# Heat-trace model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatModel:
    """Small-time model of the harmonic-subtracted coclosed trace.

    Theta_k(t) = kappa * (theta_L(t) - 1) * exp(-alpha^2 t) where theta_L is
    the full dual-lattice theta function.  Up to a lattice remainder that is
    exponentially small as t -> 0+, this equals

        kappa * (V_n t^{-n/2} - 1) * exp(-alpha^2 t),   V_n = Vol/(4 pi)^{n/2}.

    ``coefficient(j)`` is the exact coefficient of t^{j - n/2} in the power
    expansion of the model part.
    """

    kappa: int
    volume: float
    n: int
    alpha: float

    @property
    def v_n(self) -> float:
        return self.volume / (4.0 * math.pi) ** (self.n / 2.0)

    def coefficient(self, j: int) -> float:
        h = self.n // 2
        a2 = self.alpha * self.alpha
        c = self.v_n * (-a2) ** j / math.factorial(j)
        if j >= h:
            c -= (-a2) ** (j - h) / math.factorial(j - h)
        return self.kappa * c

    @property
    def powers(self) -> list[int]:
        return [j - self.n // 2 for j in range(self.n + 1)]

    @property
    def coefficients(self) -> list[float]:
        return [self.coefficient(j) for j in range(self.n + 1)]

    def truncated_expansion(self, t: float) -> float:
        return sum(c * t**p for c, p in zip(self.coefficients, self.powers))

    def series_remainder_bound(self, t: float) -> float:
        """Bound for the dropped exponential-series tail beyond order t^{n/2}."""
        h = self.n // 2
        a2t = self.alpha * self.alpha * t
        lead = self.v_n * t ** (-h) * a2t ** (self.n + 1) / math.factorial(self.n + 1)
        sub = a2t ** (h + 1) / math.factorial(h + 1)
        return self.kappa * (lead + sub) * math.exp(a2t)

    def model_part(self, t: float) -> float:
        return self.kappa * (self.v_n * t ** (-self.n / 2.0) - 1.0) * math.exp(-self.alpha**2 * t)


@dataclass(frozen=True)
class WeylTail:
    """Weyl-law counting model with a rigorous lattice-boundary error bound."""

    kappa: int
    volume: float
    n: int
    cell_diameter: float

    @property
    def weyl_constant(self) -> float:
        # N(lam) ~ c_W lam^{n/2} = kappa Vol lam^{n/2} / ((4 pi)^{n/2} Gamma(n/2+1))
        return self.kappa * self.volume / ((4.0 * math.pi) ** (self.n / 2.0) * math.gamma(self.n / 2.0 + 1.0))

    def expected_count(self, cutoff: float) -> float:
        return self.weyl_constant * cutoff ** (self.n / 2.0)

    def count_bound(self, cutoff: float) -> float:
        r = math.sqrt(max(cutoff, 0.0)) / (2.0 * math.pi)
        d = self.cell_diameter
        omega = _ball_volume(self.n)
        hi = (r + d) ** self.n
        lo = max(r - d, 0.0) ** self.n
        return self.kappa * self.volume * omega * (hi - lo) + self.kappa

    def density_constant(self) -> float:
        """Coefficient of V^{n-1} dV in the level density measured in nu."""
        return self.n * self.kappa * self.volume * _ball_volume(self.n) / (2.0 * math.pi) ** self.n


# ---------------------------------------------------------------------------
# Spectral slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenLevel:
    eta: float
    mult: int


@dataclass(eq=False)
class SpectralSlice:
    """Enumerated nonzero coclosed spectrum of degree k with its heat model."""

    cross_section: CrossSection
    k: int
    alpha: float
    cutoff: float
    betti_k: int
    kappa: int
    eta: np.ndarray
    mult: np.ndarray
    heat: HeatModel
    tail: WeylTail
    alpha_exact: Optional[Fraction] = None

    @property
    def levels(self) -> list[EigenLevel]:
        return [EigenLevel(float(e), int(m)) for e, m in zip(self.eta, self.mult)]

    def nu(self) -> np.ndarray:
        return np.sqrt(self.eta + self.alpha * self.alpha)

    def heat_remainder_bound(self, t: float) -> float:
        """Bound for |Theta_k(t) - truncated expansion|.

        Combines the dropped exponential-series tail with the lattice
        remainder kappa V_n t^{-n/2} e^{-alpha^2 t} S_P(t), which is
        exponentially small as t -> 0 but order one at t ~ 1.
        """
        series = self.heat.series_remainder_bound(t)
        if self.cross_section.family != FLAT_TORUS:
            return series
        sq, counts = self.cross_section.primal_norms(max_sq=4.0 * t * 60.0)
        s_p = float(np.sum(np.exp(-sq / (4.0 * t)) * counts)) if sq.size else 0.0
        lattice = self.kappa * self.heat.v_n * t ** (-self.heat.n / 2.0) * math.exp(
            -self.alpha**2 * t
        ) * s_p
        return series + lattice * (1.0 + 1e-9) + 1e-15

    def with_alpha(self, a: float, a_exact: Optional[Fraction] = None) -> "SpectralSlice":
        """Same spectrum with a different shift (used by the scaling study)."""
        return SpectralSlice(
            cross_section=self.cross_section,
            k=self.k,
            alpha=float(a),
            cutoff=self.cutoff,
            betti_k=self.betti_k,
            kappa=self.kappa,
            eta=self.eta,
            mult=self.mult,
            heat=HeatModel(self.kappa, self.heat.volume, self.heat.n, float(a)),
            tail=self.tail,
            alpha_exact=a_exact,
        )

    def validate(self):
        nu = self.nu()
        if np.any(self.eta <= 0):
            raise AssertionError("zero modes must be excluded from a SpectralSlice")
        if np.any(np.diff(nu) <= 0):
            raise AssertionError("levels must be strictly increasing")


def coclosed_spectrum(
    cs: CrossSection,
    k: int,
    cutoff: float,
    spectrum_table: Optional[Iterable[tuple[float, int]]] = None,
) -> SpectralSlice:
    """Enumerate the nonzero coclosed k-form spectrum up to ``cutoff``.

    For the experimental sphere family a `(eta, mult)` table must be supplied;
    multiplicities in the table are taken as already including the bundle rank.
    """
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    if cutoff < 0:
        raise DomainError("cutoff must be >= 0")
    alpha = cs.alpha(k)
    if cs.family == ROUND_SPHERE:
        if spectrum_table is None:
            raise ExperimentalUnsupportedError(
                "round_sphere is experimental: supply spectrum_table=[(eta, mult), ...]"
            )
        pairs = sorted((float(e), int(m)) for e, m in spectrum_table if float(e) <= cutoff)
        eta = np.asarray([p[0] for p in pairs])
        mult = np.asarray([p[1] for p in pairs], dtype=int)
        kappa = cs.coclosed_point_multiplicity(k)
    else:
        kappa = cs.coclosed_point_multiplicity(k)
        eta, counts = cs.lattice_eta_levels(cutoff)
        mult = counts * kappa
    heat = HeatModel(kappa, cs.volume, n, float(alpha))
    cell = cs.dual_cell_diameter() if cs.family == FLAT_TORUS else 0.0
    tail = WeylTail(kappa, cs.volume, n, cell)
    sl = SpectralSlice(
        cross_section=cs,
        k=k,
        alpha=float(alpha),
        cutoff=float(cutoff),
        betti_k=cs.betti(k),
        kappa=kappa,
        eta=eta,
        mult=mult,
        heat=heat,
        tail=tail,
        alpha_exact=alpha,
    )
    sl.validate()
    return sl


def theta_heat_coeffs(cs: CrossSection, k: int) -> HeatModel:
    """Exact small-time expansion data for the harmonic-subtracted trace.

    The subtracted constant is the per-point coclosed multiplicity
    rank * C(n-1, k) (the m = 0 term of the dual theta function), which
    coincides with b_k only in degree 0; slice duality and the brute-force
    oracle pin this down.
    """
    if cs.family != FLAT_TORUS:
        raise ExperimentalUnsupportedError(
            "heat coefficients are only available for the flat torus family"
        )
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    return HeatModel(cs.coclosed_point_multiplicity(k), cs.volume, n, float(cs.alpha(k)))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _ext_matrix(w: np.ndarray, k: int) -> np.ndarray:
    """Matrix of exterior multiplication by the covector w on k-forms."""
    n = w.size
    rows = list(combinations(range(n), k + 1))
    cols = list(combinations(range(n), k))
    row_index = {subset: i for i, subset in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)))
    for ci, subset in enumerate(cols):
        members = set(subset)
        for j in range(n):
            if j in members:
                continue
            merged = tuple(sorted(subset + (j,)))
            sign = (-1) ** merged.index(j)
            mat[row_index[merged], ci] += sign * w[j]
    return mat


MAX_BRUTE_MODES = 40000


def brute_force_form_laplacian(
    cs: CrossSection, k: int, fourier_cutoff: int
) -> list[EigenLevel]:
    """Independent oracle: diagonalize the Hodge Laplacian on a truncated
    Fourier x Lambda^k basis and keep the coclosed nonzero spectrum.

    ``fourier_cutoff`` bounds the lattice index box (|m_i| <= cutoff).  Works
    mode by mode: for each m the Laplacian block is assembled from exterior
    multiplication by the dual covector and its transpose, diagonalized with
    ``eigh``, and restricted to the kernel of the codifferential block.
    """
    cs._require_torus()
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    if fourier_cutoff < 1 or fourier_cutoff > 6:
        raise DomainError("fourier_cutoff must lie in 1..6 (dense diagonalization)")
    total_modes = (2 * fourier_cutoff + 1) ** n * math.comb(n, k)
    if total_modes > MAX_BRUTE_MODES:
        raise DomainError(
            f"truncated basis has {total_modes} modes (> {MAX_BRUTE_MODES}); reduce the cutoff"
        )
    dual = cs.dual_basis()
    axes = [range(-fourier_cutoff, fourier_cutoff + 1)] * n
    eigs: list[float] = []
    grids = np.meshgrid(*[np.arange(-fourier_cutoff, fourier_cutoff + 1)] * n, indexing="ij")
    ms = np.stack([g.ravel() for g in grids], axis=1)
    for m in ms:
        if not np.any(m):
            continue
        w = 2.0 * math.pi * (dual @ m.astype(float))
        ek = _ext_matrix(w, k)  # d_k block / i
        ekm1 = _ext_matrix(w, k - 1) if k >= 1 else np.zeros((math.comb(n, k), 1))
        lap = ek.T @ ek + ekm1 @ ekm1.T
        if k >= 1:
            coclosed_basis = null_space(ekm1.T)
        else:
            coclosed_basis = np.eye(math.comb(n, k))
        if coclosed_basis.shape[1] == 0:
            continue
        sub = coclosed_basis.T @ lap @ coclosed_basis
        vals = eigh(sub, eigvals_only=True)
        eigs.extend(float(v) for v in vals if v > 1e-10)
    eigs_arr = np.sort(np.asarray(eigs))
    vals, counts = CrossSection._group(eigs_arr)
    rank = cs.bundle_rank
    return [EigenLevel(float(v), int(c) * rank) for v, c in zip(vals, counts)]

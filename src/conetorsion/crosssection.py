"""Model cross-sections and their coclosed form-Laplacian spectra.

The cross-section is the flat torus T^n = R^n / (B Z^n) with even n.  For
a dual-lattice vector m != 0 the Laplacian on coclosed k-forms contributes
the eigenvalue eta = 4 pi^2 |B^{-T} m|^2 with the weight rank * C(n-1, k)
(``coclosed_point_multiplicity``), which callers apply once to per-point
values: every degree shares the levels and their lattice counts.  The m = 0
modes are harmonic, are excluded, and are counted through the Betti numbers
rank * C(n, k).  The per-point coclosed multiplicity is not assumed: the
brute-force Hodge Laplacian of ``tests/reference_oracles.py``, assembled on
a truncated Fourier basis, rediscovers it numerically, and the heat-model
and Weyl-count bounds that the tests hold the enumerated spectra to live
there too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError

GROUP_TOL = 1e-12  # relative grouping tolerance for equal eigenvalues

# Most lattice points one enumeration window may hold.  The sorted squared
# norms cost 8 bytes per point twice over (blocks, then their concatenation),
# so the limit bounds that memory at about 1.6 GB; at the planned split point
# unit T^6 and T^8 hold under 1e6 points, and unit T^14 is refused.
MAX_WINDOW_POINTS = 1e8
# Most rows one expansion step of the enumeration builds, also on a single line.
_BLOCK_ROWS = 1 << 18
# Sorted values whose gaps one step of the level grouping tests at once.
_GROUP_BLOCK = 1 << 16
# e^{-700} ~ 1e-304: theta-sum terms smaller than this cannot change a
# binary64 result, and skipping them keeps the exponentials out of the
# subnormal range
THETA_CUT = 700.0
# (node x level) entries one block of a theta sum may hold: 2 MiB of float64
# temporaries whatever the window
_THETA_BLOCK = 1 << 18

# the fields of a cross_section block (docs/config.schema.json)
CROSS_SECTION_FIELDS = frozenset({"family", "dim_n", "bundle_rank", "lattice_basis"})


def _log_ball_volume(n: int) -> float:
    """log of the volume pi^{n/2} / Gamma(n/2 + 1) of the unit n-ball."""
    return n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)


def theta_sums(levels: np.ndarray, counts: np.ndarray, spreads: np.ndarray, log_scale=0.0) -> np.ndarray:
    """sum_j counts_j e^{-levels_j / spreads_i} at every node i over the prefix
    of the sorted ``levels`` whose terms, scaled by e^{log_scale_i} (a scalar
    or one per node), reach e^{-THETA_CUT}.  The nodes run in order of prefix
    length, in blocks of at most _THETA_BLOCK (node x level) entries; within a
    block, the levels past a node's own prefix are masked out of its sum."""
    prefix = np.searchsorted(levels, (THETA_CUT + log_scale) * spreads, side="right")
    order = np.argsort(prefix, kind="stable")
    widths = prefix[order]
    out = np.zeros(spreads.shape)
    i = int(np.searchsorted(widths, 0, side="right"))
    while i < order.size:
        # the block's width is that of its last node; widths ascend
        fits = np.arange(1, order.size - i + 1) * widths[i:] <= _THETA_BLOCK
        j = i + max(1, int(np.count_nonzero(fits)))
        rows = order[i:j]
        width = int(widths[j - 1])
        terms = -levels[:width] / spreads[rows, None]
        terms[np.arange(width) >= widths[i:j, None]] = -np.inf
        np.exp(terms, out=terms)
        terms *= counts[:width]
        out[rows] = terms.sum(axis=1)
        del terms  # free this block before the next one is allocated
        i = j
    return out


def _estimate_points(mat: np.ndarray, radius: float, window: str) -> float:
    """omega_n radius^n / |det mat|, the points of the lattice mat Z^n in the
    ball, formed in logs; raises ConfigError, naming ``window``, above
    MAX_WINDOW_POINTS."""
    n = mat.shape[0]
    log_radius = math.log(radius) if radius > 0.0 else -math.inf
    log_estimate = _log_ball_volume(n) + n * log_radius - float(np.linalg.slogdet(mat)[1])
    if not log_estimate <= math.log(MAX_WINDOW_POINTS):
        about = f"{math.exp(log_estimate):.3g}" if log_estimate < 700.0 else f"10^{log_estimate / math.log(10.0):.0f}"
        raise ConfigError(
            "cross_section.lattice_basis",
            f"the {window} window (radius {radius:.6g}) holds about {about} "
            f"lattice points, above the limit {MAX_WINDOW_POINTS:.3g}",
        )
    return math.exp(log_estimate)


@dataclass(frozen=True, eq=False)
class CrossSection:
    """The flat torus R^n / (B Z^n), B = ``lattice_basis``, carrying a flat
    bundle of rank ``bundle_rank``."""

    dim_n: int
    lattice_basis: np.ndarray
    bundle_rank: int = 1
    volume: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.dim_n < 2 or self.dim_n % 2 != 0:
            raise ConfigError("cross_section.dim_n", "must be an even integer >= 2")
        if self.bundle_rank < 1:
            raise ConfigError("cross_section.bundle_rank", "must be a positive integer")
        basis = np.asarray(self.lattice_basis, dtype=float)
        if basis.shape != (self.dim_n, self.dim_n):
            raise ConfigError(
                "cross_section.lattice_basis",
                f"must be {self.dim_n}x{self.dim_n}, got {basis.shape}",
            )
        # every Betti number and weight rank * C(n, k) converts to a double;
        # after the shape check, so a huge dim_n with a small basis never
        # reaches the binomial
        if self.bundle_rank * math.comb(self.dim_n, self.dim_n // 2) > sys.float_info.max:
            raise ConfigError(
                "cross_section.bundle_rank",
                f"rank * C(n, n/2) must be a finite double at n = {self.dim_n}",
            )
        # |det| against the Hadamard bound, the product of the column lengths
        with np.errstate(over="ignore", invalid="ignore"):
            det = float(np.linalg.det(basis))
        if not math.isfinite(det):
            raise ConfigError("cross_section.lattice_basis", "determinant is not finite")
        if abs(det) <= 1e-12 * float(np.prod(np.hypot.reduce(basis, axis=0))):
            raise ConfigError("cross_section.lattice_basis", "matrix is singular")
        object.__setattr__(self, "lattice_basis", basis)
        object.__setattr__(self, "volume", abs(det))
        object.__setattr__(self, "_caches", {})

    # -- topology ---------------------------------------------------------

    def betti(self, k: int) -> int:
        if k < 0 or k > self.dim_n:
            return 0
        return self.bundle_rank * math.comb(self.dim_n, k)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(self.dim_n + 1))

    def alpha(self, k: int) -> Fraction:
        """Shift (n-1)/2 - k, a half-integer for even n."""
        return Fraction(self.dim_n - 1, 2) - k

    def coclosed_point_multiplicity(self, k: int) -> int:
        """Coclosed multiplicity per nonzero lattice point: rank * C(n-1, k)."""
        return self.bundle_rank * math.comb(self.dim_n - 1, k)

    # -- lattice geometry -------------------------------------------------

    def dual_basis(self) -> np.ndarray:
        return np.linalg.inv(self.lattice_basis).T

    # The ball of radius 1.1 times the shortest basis vector (a hypot, which
    # neither overflows nor underflows) holds that basis vector, so it also
    # holds the shortest lattice vector and its shell.

    def min_primal_length(self) -> float:
        shortest = float(np.min(np.hypot.reduce(self.lattice_basis, axis=0)))
        sq, _ = self.primal_norms((1.1 * shortest) ** 2)
        return math.sqrt(float(sq[0]))

    def first_eta_bound(self) -> float:
        """(2 pi 1.1 |shortest column of B^{-T}|)^2 >= 1.21 first eta, found
        without enumeration."""
        shortest = float(np.min(np.hypot.reduce(self.dual_basis(), axis=0)))
        return (2.0 * math.pi * 1.1 * shortest) ** 2

    def first_eta(self) -> float:
        eta, _ = self.lattice_eta_levels(self.first_eta_bound())
        return float(eta[0])

    def _enumerate(self, mat: np.ndarray, radius: float, window: str = "lattice") -> np.ndarray:
        """Squared norms |mat @ m|^2 over integer m != 0 with |mat @ m| <= radius.

        Visits only the integer vectors inside the ball (Fincke-Pohst).  With
        mat = Q R, so that mat^T mat = R^T R with R upper triangular, the
        coordinates are fixed from the last to the first, and each partial
        vector admits the integers m_i with |R_ii (m_i - c_i)| <= sqrt(rem),
        where c_i = -sum_{j>i} R_ij m_j / R_ii, rem = radius^2 (1 + 1e-12)
        minus the partial sum, and each end is widened by 1e-9.  R comes from
        a QR factorisation of mat rather than a Cholesky factorisation of the
        Gram matrix, so a near-singular basis neither loses twice the digits
        nor fails to factor.  The candidates are a superset of the ball and pass the same
        filter as a scan of the bounding box would, so the sorted result is
        bit-identical to that scan.  The expansion runs depth-first in blocks
        of at most _BLOCK_ROWS rows: a stack entry holds partial vectors with
        the joined ranges of their candidates and a start into them, and a
        step builds the candidates start .. start + _BLOCK_ROWS, however few
        partial vectors hold them (one skewed line may hold millions), and
        pushes the rest back beneath this block's children.

        Raises ConfigError, naming ``window``, when the ball would hold more
        than MAX_WINDOW_POINTS points: up front from the estimate
        omega_n radius^n / |det mat|, and again if the enumeration passes the
        limit (the estimate undercounts a ball thinner than the lattice
        spacing in some direction).  A single partial vector with more than
        MAX_WINDOW_POINTS candidates is refused while its count is still a
        float, before any allocation.
        """
        n = self.dim_n
        estimate = _estimate_points(mat, radius, window)
        r_fac = np.linalg.qr(mat, mode="r")
        r_fac *= np.sign(np.diag(r_fac))[:, None]
        r2 = radius * radius * (1 + 1e-12)
        pieces = []
        kept = 0

        def lines(m, part, i):
            """Stack entry of the partial vectors ``m`` (coordinates > i fixed,
            the rest 0) with their partial sums ``part`` of R_jj^2 (m_j - c_j)^2:
            each row's admissible m_i from lo, and where its candidates start
            and end in the joined ranges of all rows."""
            rii = r_fac[i, i]
            c = -(m @ r_fac[i]) / rii
            half = np.sqrt(np.maximum(r2 - part, 0.0)) / rii
            lo = np.ceil(c - half - 1e-9)
            counts = np.maximum(np.floor(c + half + 1e-9) - lo + 1.0, 0.0)
            if not counts.max() <= MAX_WINDOW_POINTS:
                raise ConfigError(
                    "cross_section.lattice_basis",
                    f"the {window} window (radius {radius:.6g}) puts more than "
                    f"{MAX_WINDOW_POINTS:.3g} candidates on one line",
                )
            counts = counts.astype(np.intp)
            ends = np.cumsum(counts)
            return m, part, i, c, lo, ends - counts, ends

        # (entry, start): the next step builds the entry's candidates
        # start .. start + _BLOCK_ROWS
        stack = [(lines(np.zeros((1, n)), np.zeros(1), n - 1), 0)]
        while stack:
            entry, start = stack.pop()
            m, part, i, c, lo, firsts, ends = entry
            total = int(ends[-1])
            if total == 0:
                continue
            stop = min(start + _BLOCK_ROWS, total)
            if stop < total:
                # the rest, beneath this block's children
                stack.append((entry, stop))
            # rows a .. b - 1 hold this block's candidates
            a = int(np.searchsorted(ends, start, side="right"))
            b = int(np.searchsorted(ends, stop - 1, side="right")) + 1
            src = np.repeat(np.arange(a, b), np.minimum(ends[a:b], stop) - np.maximum(firsts[a:b], start))
            mi = lo[src] + (np.arange(start, stop) - firsts[src])
            m = m[src]
            m[:, i] = mi
            if i > 0:
                stack.append((lines(m, part[src] + (r_fac[i, i] * (mi - c[src])) ** 2, i - 1), 0))
                continue
            v = m @ mat.T
            sq = np.einsum("ij,ij->i", v, v)
            keep = (sq <= r2) & (sq > 0)
            pieces.append(sq[keep])
            kept += pieces[-1].size
            if kept > MAX_WINDOW_POINTS:
                raise ConfigError(
                    "cross_section.lattice_basis",
                    f"the {window} window (radius {radius:.6g}) holds more than "
                    f"{MAX_WINDOW_POINTS:.3g} lattice points (estimate {estimate:.3g})",
                )
        out = np.concatenate(pieces)
        out.sort()
        return out

    @staticmethod
    def _group(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct levels of sorted ``values`` with their counts.

        A new level starts wherever the gap to the previous value exceeds
        GROUP_TOL * previous, at every scale; each level is the mean of its
        members.
        The gaps are tested in blocks of _GROUP_BLOCK values, so no temporary
        is as large as ``values``.
        """
        if values.size == 0:
            return np.empty(0), np.empty(0, dtype=int)
        starts = [np.zeros(1, dtype=np.intp)]
        for lo in range(1, values.size, _GROUP_BLOCK):
            cur = values[lo : lo + _GROUP_BLOCK]
            prev = values[lo - 1 : lo - 1 + cur.size]
            starts.append(np.flatnonzero(cur - prev > GROUP_TOL * prev) + lo)
        starts = np.concatenate(starts)
        counts = np.diff(np.append(starts, values.size))
        return np.add.reduceat(values, starts) / counts, counts

    def _window(self, key: str, bound: float) -> tuple[np.ndarray, float]:
        """Basis and radius of the dual window eta <= bound ("dual") or of the
        primal window |B m|^2 <= bound ("primal")."""
        if key == "dual":
            return self.dual_basis(), math.sqrt(max(bound, 0.0)) / (2.0 * math.pi)
        return self.lattice_basis, math.sqrt(bound)

    def check_window(self, key: str, bound: float) -> None:
        """Raise the ConfigError that enumerating the window would raise up
        front, without enumerating it."""
        _estimate_points(*self._window(key, bound), key)

    def _cached_levels(self, key, bound):
        mat, radius = self._window(key, bound)
        cached = self._caches.get(key)
        if cached is not None and cached[0] >= radius * (1 - 1e-15):
            return cached[1]
        grouped = self._group(self._enumerate(mat, radius, key))
        self._caches[key] = (radius, grouped)
        return grouped

    def lattice_eta_levels(self, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eta = 4 pi^2 |B^{-T} m|^2 <= cutoff with lattice-point counts."""
        sq, counts = self._cached_levels("dual", cutoff)
        eta = (2.0 * math.pi) ** 2 * sq
        keep = eta <= cutoff * (1 + 1e-12)
        return eta[keep], counts[keep]

    def primal_norms(self, max_sq: float) -> tuple[np.ndarray, np.ndarray]:
        """Distinct squared lengths |B m|^2 <= max_sq of nonzero primal lattice vectors."""
        sq, counts = self._cached_levels("primal", max_sq)
        keep = sq <= max_sq * (1 + 1e-12)
        return sq[keep], counts[keep]

    def log_weyl_density(self) -> float:
        """log Res_{s=n} zeta, the log of the coefficient of V^{n-1} dV in
        the Weyl density of the coclosed levels per lattice point measured
        in nu, the same in every degree, formed in logs for planning the
        cutoffs: finite at every dimension, where ``HeatModel.residue(n)``,
        which the K-tail bounds read, overflows past n = 340."""
        n = self.dim_n
        return math.log(n) + math.log(self.volume) + _log_ball_volume(n) - n * math.log(2.0 * math.pi)


def build_cross_section(config: dict) -> CrossSection:
    """Construct a CrossSection from a parsed configuration block."""
    if not isinstance(config, dict):
        raise ConfigError("cross_section", "must be an object")
    family = config.get("family")
    if family != "flat_torus":
        raise ConfigError("cross_section.family", f"must be 'flat_torus', got {family!r}")
    if "dim_n" not in config:
        raise ConfigError("cross_section.dim_n", "missing")
    dim_n = config["dim_n"]
    if not isinstance(dim_n, int) or isinstance(dim_n, bool):
        raise ConfigError("cross_section.dim_n", "must be an integer")
    rank = config.get("bundle_rank", 1)
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ConfigError("cross_section.bundle_rank", "must be an integer")
    basis = config.get("lattice_basis")
    if basis is None:
        raise ConfigError("cross_section.lattice_basis", "missing")
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise ConfigError("cross_section.lattice_basis", "must be a numeric matrix")
    for i, row in enumerate(basis):
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ConfigError(f"cross_section.lattice_basis[{i}][{j}]", "must be a number")
    try:
        basis = np.asarray(basis, dtype=float)
    except (ValueError, OverflowError):  # ragged rows; an integer beyond binary64
        raise ConfigError("cross_section.lattice_basis", "must be a numeric matrix") from None
    for key in config:
        if key not in CROSS_SECTION_FIELDS:
            raise ConfigError(f"cross_section.{key}", "unknown field")
    return CrossSection(dim_n=dim_n, lattice_basis=basis, bundle_rank=rank)


# ---------------------------------------------------------------------------
# Heat-trace model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatModel:
    """Small-time model of the harmonic-subtracted coclosed trace of one
    lattice point, the trace of a degree divided by its weight.

    Theta(t) = (theta_L(t) - 1) * exp(-alpha^2 t) where theta_L is the full
    dual-lattice theta function.  Up to a lattice remainder that is
    exponentially small as t -> 0+, this equals

        (V_n t^{-n/2} - 1) * exp(-alpha^2 t),   V_n = Vol/(4 pi)^{n/2}.

    ``coefficient(j)`` is the exact coefficient of t^{j - n/2} in the power
    expansion of the model part, for every j >= 0; ``residue(s)`` reads the
    residue of the slice zeta function off it.
    """

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
        return c

    def residue(self, s: int) -> float:
        """Res_{s} zeta_{k,N} = 2 coefficient(n/2 - s/2) / Gamma(s/2) at even
        2 <= s <= n; zero at every other integer s."""
        if s % 2 != 0 or not 2 <= s <= self.n:
            return 0.0
        return 2.0 * self.coefficient((self.n - s) // 2) / math.gamma(s // 2)

    @property
    def powers(self) -> list[int]:
        return [j - self.n // 2 for j in range(self.n + 1)]

    @property
    def coefficients(self) -> list[float]:
        return [self.coefficient(j) for j in range(self.n + 1)]


# ---------------------------------------------------------------------------
# Spectral slices
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SpectralSlice:
    """Enumerated nonzero coclosed spectrum of degree k: the dual-lattice
    levels eta with their lattice-point ``counts``, which every degree
    shares, and the shift alpha of degree k; its heat model is
    ``theta_heat_coeffs(cross_section, k)``.
    """

    cross_section: CrossSection
    k: int
    alpha: float
    cutoff: float
    eta: np.ndarray
    counts: np.ndarray

    def nu(self) -> np.ndarray:
        return np.sqrt(self.eta + self.alpha * self.alpha)

    def validate(self):
        nu = self.nu()
        if np.any(self.eta <= 0):
            raise AssertionError("zero modes must be excluded from a SpectralSlice")
        if np.any(np.diff(nu) <= 0):
            raise AssertionError("levels must be strictly increasing")


def coclosed_spectrum(cs: CrossSection, k: int, cutoff: float) -> SpectralSlice:
    """Enumerate the nonzero coclosed k-form spectrum up to ``cutoff``, per
    lattice point: degree k weighs each count by
    ``cs.coclosed_point_multiplicity(k)``."""
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    if cutoff < 0:
        raise DomainError("cutoff must be >= 0")
    eta, counts = cs.lattice_eta_levels(cutoff)
    sl = SpectralSlice(cs, k, float(cs.alpha(k)), float(cutoff), eta, counts)
    sl.validate()
    return sl


def theta_heat_coeffs(cs: CrossSection, k: int) -> HeatModel:
    """Exact small-time expansion data for the harmonic-subtracted trace of
    degree k per lattice point.

    The subtracted constant is 1, the m = 0 term of the dual theta function;
    the trace of degree k is this model times the weight rank * C(n-1, k),
    which coincides with b_k only in degree 0; slice duality and the
    brute-force oracle pin this down.
    """
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    return HeatModel(cs.volume, n, float(cs.alpha(k)))

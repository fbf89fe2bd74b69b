"""Meromorphic continuation of the shifted spectral zeta functions.

For a slice of degree k with shift a = alpha_k the object of interest is

    zeta_{k,N}(s) = sum_eta m(eta) nu(eta)^(-s),   nu = sqrt(eta + a^2),

together with the shifted variants sum m (nu +- a)^(-s).  The continuation
runs through the Mellin split of zeta(s/2, Delta + a^2): the integral over
(0, t0] of the exact heat model integrates to an explicit meromorphic
series, the exponentially small lattice remainder is handled by one vector
quadrature over a fixed set of sigma, and the integral over [t0, inf) is a
per-level sum of upper incomplete gamma functions.  Values and
derivatives at s = 0, residues at even s, and finite parts (PP values) at
integer s all come out of one component decomposition

    zeta(s) = M(s/2) / Gamma(s/2),    M = A + B + F,

where only A carries poles and those are explicit.

The shifted derivatives at zero are assembled from the absolutely convergent
series

    K(0, c) = sum m(eta) [ -log(1 + c/nu) - sum_{r<=J} (-c)^r / (r nu^r) ]

via

    zeta'(0, c) = zeta'(0) + K(0, c)
                + sum_{r<=J} ((-c)^r / r) (Res_{s=r} zeta * H_{r-1} + PP zeta(r)),

an identity valid for every subtraction order J >= n; H_{r-1} is the harmonic
number, which is gamma + digamma(r) with the Euler constants cancelled
exactly.  Raising J accelerates the K series from O(nu^{-(n+1)}) to
O(nu^{-(J+1)}) term decay, which is what makes desk-scale cutoffs sufficient.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import integrate
from scipy.special import digamma, exp1, gamma, gammaincc, rgamma

from .crosssection import CrossSection, SpectralSlice, WeylTail
from .errors import (
    CutoffInsufficientError,
    DomainError,
    ExperimentalUnsupportedError,
    ZetaPoleError,
)
from .olver import harmonic_number

EULER_GAMMA = 0.5772156649015328606

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)
_EXP_FLOOR = 50.0  # e^{-50} ~ 2e-22: summation horizon for exponential tails


def default_order(n: int) -> int:
    """Default K-series subtraction order for dimension n."""
    return n + 6


# ---------------------------------------------------------------------------
# Mellin split
# ---------------------------------------------------------------------------


class MellinSplit:
    """Continuation engine for one spectral slice.

    B, the lattice remainder on (0, t0], comes from one adaptive
    Gauss-Kronrod vector quadrature (absolute tolerance 1e-13, relative
    1e-12 in the max norm) that yields every sigma of the fixed grid
    {0, 1/2, ..., default_order(n)/2} at once; a sigma off the grid is a
    one-element quadrature of its own.  F, the spectral sum on [t0, inf), is
    the closed form sum m mu^(-sigma) Gamma(sigma, mu t0).  Level sums run in
    sorted order through ``math.fsum``, and no value depends on the order of
    requests, so results are reproducible bit for bit regardless of the
    worker count.
    """

    def __init__(self, sl: SpectralSlice, t0: float = 1.0):
        if sl.cross_section.family != "flat_torus":
            raise ExperimentalUnsupportedError(
                "zeta continuation requires the flat-torus heat model"
            )
        self.sl = sl
        self.t0 = float(t0)
        self.n = sl.cross_section.dim_n
        self.h = self.n // 2
        self.kappa = sl.kappa
        self.a2 = sl.alpha * sl.alpha
        self.v_n = sl.heat.v_n
        self._lock = threading.Lock()
        self._b_cache: Dict[float, tuple[float, float]] = {}
        self._f_cache: Dict[float, tuple[float, float]] = {}
        self._b_grid = np.arange(default_order(self.n) + 1) / 2.0
        # exponential series length for the A-part
        x = self.a2 * self.t0
        terms = 8
        while x**terms / math.factorial(terms) > 1e-24 and terms < 400:
            terms += 1
        self._series_len = terms + self.h + 4
        # primal norms for the lattice remainder on (0, t0]
        max_sq = 4.0 * self.t0 * (_EXP_FLOOR + 8.0)
        self._p_sq, self._p_counts = sl.cross_section.primal_norms(max_sq)
        # levels that matter on [t0, inf)
        mu = sl.eta + self.a2
        keep = mu * self.t0 <= _EXP_FLOOR
        self._f_mu = mu[keep]
        self._f_mult = sl.mult[keep]
        # the enumeration must extend past the summation horizon, otherwise
        # the tail sum silently misses levels
        self._f_complete = (sl.cutoff + self.a2) * self.t0 >= _EXP_FLOOR

    # -- A: exact heat-model part -----------------------------------------

    def _a_terms(self):
        """Yield (coefficient, power q) with model integrand coeff * t^{q-1+s}."""
        for i in range(self._series_len):
            c = (-self.a2) ** i / math.factorial(i)
            yield self.kappa * self.v_n * c, i - self.h
            yield -self.kappa * c, i

    def a_value(self, sigma: float) -> float:
        total = 0.0
        for coef, q in self._a_terms():
            d = sigma + q
            if abs(d) < 1e-13:
                raise ZetaPoleError(f"sigma={sigma} hits a heat-expansion pole")
            total += coef * self.t0**d / d
        return total

    def a_residue_and_finite(self, sigma0: float) -> tuple[float, float]:
        """Residue and finite part of A at sigma0 (exact pole extraction)."""
        res = 0.0
        fin = 0.0
        logt0 = math.log(self.t0)
        for coef, q in self._a_terms():
            d = sigma0 + q
            if abs(d) < 1e-9:
                res += coef
                fin += coef * logt0
            else:
                fin += coef * self.t0**d / d
        return res, fin

    # -- B: lattice remainder on (0, t0] ----------------------------------

    def _remainder(self, t: float) -> float:
        if self._p_sq.size == 0 or t <= 0.0:
            return 0.0
        expo = self._p_sq / (4.0 * t)
        vals = np.exp(-np.minimum(expo, 745.0)) * self._p_counts
        s_p = float(vals.sum())
        return self.kappa * self.v_n * t ** (-self.h) * math.exp(-self.a2 * t) * s_p

    def _b_quad(self, sigmas: np.ndarray) -> tuple[np.ndarray, float]:
        """B at every entry of ``sigmas`` from one vector quadrature, so each
        node evaluates the lattice remainder once for all of them."""
        val, err, info = integrate.quad_vec(
            lambda t: t ** (sigmas - 1.0) * self._remainder(t),
            0.0,
            self.t0,
            norm="max",
            full_output=True,
            **_QUAD_OPTS,
        )
        if not info.success:
            warnings.warn(
                f"B quadrature on (0, {self.t0}] did not converge for sigma in "
                f"{sigmas.tolist()}: error estimate {err:.3e}",
                integrate.IntegrationWarning,
                stacklevel=3,
            )
        return val, float(err)

    def b_value(self, sigma: float) -> tuple[float, float]:
        """B(sigma) = int_0^t0 t^(sigma-1) R(t) dt with its error estimate.

        The first call fills the whole grid ``_b_grid``; the error estimate
        is the max-norm estimate of the quadrature that produced the value.
        """
        key = round(sigma, 12)
        with self._lock:
            if not self._b_cache:
                vals, err = self._b_quad(self._b_grid)
                for s, v in zip(self._b_grid.tolist(), vals.tolist()):
                    self._b_cache[round(s, 12)] = (v, err)
            if key in self._b_cache:
                return self._b_cache[key]
        vals, err = self._b_quad(np.array([float(sigma)]))
        found = (float(vals[0]), err)
        with self._lock:
            self._b_cache[key] = found
        return found

    # -- F: spectral sum on [t0, inf) --------------------------------------

    def f_value(self, sigma: float) -> tuple[float, float]:
        """F(sigma) = sum m int_t0^inf t^(sigma-1) e^(-mu t) dt with an error
        estimate, over the levels with mu t0 <= _EXP_FLOOR.

        Each level integral is mu^(-sigma) Gamma(sigma, mu t0) (DLMF 8.2):
        ``gammaincc * gamma`` for sigma > 0 and ``exp1`` at sigma = 0.  The
        terms are positive, and the error estimate allows 1e-13 relative,
        above the 3e-14 worst relative error of ``gammaincc * gamma``
        against mpmath for 0 < sigma <= 5 and 1e-3 <= mu t0 <= 50.
        ``gammaincc`` is undefined for sigma < 0, so there each level is
        integrated by adaptive quadrature.
        """
        if not self._f_complete:
            raise CutoffInsufficientError(
                "slice cutoff too small for the Mellin tail sum",
                required_cutoff=_EXP_FLOOR / self.t0,
            )
        key = round(sigma, 12)
        with self._lock:
            if key in self._f_cache:
                return self._f_cache[key]
        if sigma < 0.0:
            vals = []
            errs = []
            for mu, m in zip(self._f_mu, self._f_mult):
                upper = self.t0 + (_EXP_FLOOR + 10.0) / mu
                v, e = integrate.quad(
                    lambda t: t ** (sigma - 1.0) * math.exp(-mu * t), self.t0, upper, **_QUAD_OPTS
                )
                vals.append(float(m) * v)
                errs.append(float(m) * e)
            val = math.fsum(vals)
            err = math.fsum(errs) + 1e-22
        else:
            x = self._f_mu * self.t0
            if sigma == 0.0:
                level = exp1(x)
            else:
                level = self._f_mu**-sigma * gammaincc(sigma, x) * float(gamma(sigma))
            val = math.fsum((self._f_mult * level).tolist())
            err = 1e-13 * val + 1e-22
        with self._lock:
            self._f_cache[key] = (val, err)
        return val, err

    # -- assembled quantities ----------------------------------------------

    def value(self, s: float) -> float:
        """zeta_{k,N}(s) away from poles (s > -1, s != 0)."""
        if s <= -1.0:
            raise DomainError("zeta values are supported for s > -1 only")
        if s == 0.0:
            raise DomainError("use zeta0_and_prime0 at s = 0")
        sigma = 0.5 * s
        a = self.a_value(sigma)
        b, _ = self.b_value(sigma)
        f, _ = self.f_value(sigma)
        return (a + b + f) * float(rgamma(sigma))

    def residue_s(self, r: int) -> float:
        """Residue of zeta_{k,N} at integer s = r (zero at odd r)."""
        if r % 2 != 0 or r <= 0 or r > self.n:
            return 0.0
        sigma0 = r / 2.0
        rho, _ = self.a_residue_and_finite(sigma0)
        return 2.0 * rho * float(rgamma(sigma0))

    def pp_s(self, r: int) -> tuple[float, float]:
        """PP value of zeta_{k,N} at integer s = r (plain value off poles)."""
        if r <= 0:
            raise DomainError("PP values are defined for integer s >= 1")
        sigma0 = r / 2.0
        if r % 2 == 0 and r <= self.n:
            rho, fin = self.a_residue_and_finite(sigma0)
            b, be = self.b_value(sigma0)
            f, fe = self.f_value(sigma0)
            m0 = fin + b + f
            pp = (m0 - rho * float(digamma(sigma0))) * float(rgamma(sigma0))
            return pp, (be + fe) * float(rgamma(sigma0))
        a = self.a_value(sigma0)
        b, be = self.b_value(sigma0)
        f, fe = self.f_value(sigma0)
        return (a + b + f) * float(rgamma(sigma0)), (be + fe) * float(rgamma(sigma0))

    def zeta0(self) -> float:
        rho, _ = self.a_residue_and_finite(0.0)
        return rho

    def zeta_prime0(self) -> tuple[float, float]:
        rho, fin = self.a_residue_and_finite(0.0)
        b, be = self.b_value(0.0)
        f, fe = self.f_value(0.0)
        m0 = fin + b + f
        return 0.5 * (m0 + EULER_GAMMA * rho), 0.5 * (be + fe)


_SPLIT_LOCK = threading.Lock()


def mellin_split(sl: SpectralSlice, t0: float = 1.0) -> MellinSplit:
    """Lazily built continuation engine, cached on the slice itself."""
    with _SPLIT_LOCK:
        cache = getattr(sl, "_mellin_splits", None)
        if cache is None:
            cache = {}
            object.__setattr__(sl, "_mellin_splits", cache)
        found = cache.get(t0)
        if found is None:
            found = MellinSplit(sl, t0)
            cache[t0] = found
        return found


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def zeta_residues(sl: SpectralSlice) -> Dict[int, float]:
    """Map r -> Res_{s=2r} zeta_{k,N}(s) for r = 1..n/2, from the heat model."""
    return {r: mellin_split(sl).residue_s(2 * r) for r in range(1, sl.cross_section.dim_n // 2 + 1)}


def zeta_mellin(sl: SpectralSlice, s: float, pp: bool = False) -> float:
    """Evaluate zeta_{k,N}(s); at an even-integer pole return the PP value
    when ``pp`` is set, otherwise raise :class:`ZetaPoleError`."""
    ms = mellin_split(sl)
    nearest = round(s)
    if abs(s - nearest) < 1e-12 and nearest % 2 == 0 and 2 <= nearest <= sl.cross_section.dim_n:
        if not pp:
            raise ZetaPoleError(f"s={s} is a pole of zeta_k; request pp=True for the PP value")
        return ms.pp_s(int(nearest))[0]
    if abs(s - nearest) < 1e-12 and nearest >= 1:
        return ms.pp_s(int(nearest))[0]
    return ms.value(s)


def zeta0_and_prime0(sl: SpectralSlice) -> tuple[float, float]:
    ms = mellin_split(sl)
    return ms.zeta0(), ms.zeta_prime0()[0]


def _k_tail_bound(tail: WeylTail, c: float, nu_max: float, order: int) -> float:
    """Weyl-density bound on the dropped K-series tail beyond nu_max."""
    n = tail.n
    if nu_max <= abs(c) or order + 1 <= n:
        return math.inf
    dens = tail.density_constant()
    geo = 1.0 / (1.0 - abs(c) / nu_max)
    power = order + 1 - n
    return dens * abs(c) ** (order + 1) / (order + 1) * geo * nu_max ** (-power) / power


def _k_direct(sl: SpectralSlice, c: float, order: int) -> tuple[float, float]:
    """Direct evaluation of the order-``order`` K series over the slice levels.

    The generic term -log(1+x) - sum_{r<=J}(-x)^r/r is summed as the explicit
    tail sum_{r>J}(-x)^r/r, avoiding the catastrophic cancellation of the
    log-minus-Taylor form.
    """
    if c == 0.0:
        return 0.0, 0.0
    nu = sl.nu()
    if nu.size == 0:
        return 0.0, math.inf
    x = c / nu
    xmax = float(np.max(np.abs(x)))
    if xmax >= 0.95:
        raise DomainError(f"|c|/nu too close to 1 (max {xmax:.3f}); K series unreliable")
    extra = min(400, max(8, int(math.ceil(-_EXP_FLOOR / math.log(max(xmax, 1e-12))))))
    powers = np.power.outer(-x, np.arange(order + 1, order + 1 + extra))
    series = powers / np.arange(order + 1, order + 1 + extra)
    terms = series.sum(axis=1) * sl.mult
    value = math.fsum(terms.tolist())
    bound = _k_tail_bound(sl.tail, c, float(nu[-1]), order)
    return value, bound


def k_series(
    sl: SpectralSlice,
    sign: int,
    order: Optional[int] = None,
    tol: Optional[float] = None,
) -> float:
    """K(0, sign*alpha_k) at subtraction order n (the convergent correction
    series of the shifted-derivative decomposition).

    Internally an accelerated order-J form is summed and the orders between
    n and J are restored through Mellin values of zeta_{k,N}(r), so the
    result meets ``tol`` at desk-scale cutoffs.  If even the accelerated tail
    bound exceeds ``tol`` a :class:`CutoffInsufficientError` names the
    required cutoff.
    """
    n = sl.cross_section.dim_n
    c = sign * sl.alpha
    if c == 0.0:
        return 0.0
    big = order if order is not None else default_order(n)
    if big < n:
        raise DomainError(f"subtraction order must be >= n = {n}")
    val, bound = _k_direct(sl, c, big)
    tol = tol if tol is not None else 1e-10
    if bound > tol:
        nu_max = float(sl.nu()[-1]) if sl.eta.size else 1.0
        needed_nu = nu_max * (bound / tol) ** (1.0 / (big + 1 - n))
        raise CutoffInsufficientError(
            f"K-series tail bound {bound:.3e} exceeds tolerance {tol:.1e}",
            required_cutoff=needed_nu**2 - sl.alpha**2,
        )
    ms = mellin_split(sl)
    correction = math.fsum(
        (-c) ** r / r * ms.pp_s(r)[0] for r in range(n + 1, big + 1)
    )
    return val + correction


def _k_at_order(sl: SpectralSlice, c: float, order: int) -> tuple[float, float]:
    """Accelerated K(0, c) at an arbitrary subtraction order >= n."""
    n = sl.cross_section.dim_n
    big = max(order, default_order(n))
    val, bound = _k_direct(sl, c, big)
    ms = mellin_split(sl)
    corr = [(-c) ** r / r * ms.pp_s(r)[0] for r in range(order + 1, big + 1)]
    return val + math.fsum(corr), bound


def shifted_zeta0(sl: SpectralSlice, sign: int) -> float:
    """zeta_{k,N}(0, sign*alpha) = zeta(0) + sum_r ((-c)^r/r) Res_{s=r} zeta."""
    n = sl.cross_section.dim_n
    c = sign * sl.alpha
    ms = mellin_split(sl)
    return ms.zeta0() + math.fsum((-c) ** r / r * ms.residue_s(r) for r in range(1, n + 1))


def shifted_zeta_prime0(
    sl: SpectralSlice, sign: int, order: Optional[int] = None
) -> tuple[float, float]:
    """zeta'_{k,N}(0, sign*alpha) with an error estimate.

    Uses the decomposition at subtraction order ``order`` (default n + 6);
    the result is order-independent, which the test suite exploits as a
    consistency check.
    """
    n = sl.cross_section.dim_n
    c = sign * sl.alpha
    ms = mellin_split(sl)
    zp, zp_err = ms.zeta_prime0()
    if c == 0.0:
        return zp, zp_err
    j = order if order is not None else default_order(n)
    if j < n:
        raise DomainError(f"subtraction order must be >= n = {n}")
    kval, kbound = _k_at_order(sl, c, j)
    terms = []
    errs = [zp_err, min(kbound, 1.0)]
    for r in range(1, j + 1):
        res = ms.residue_s(r)
        pp, pe = ms.pp_s(r)
        hr = float(harmonic_number(r - 1))
        terms.append((-c) ** r / r * (res * hr + pp))
        errs.append(abs(c) ** r / r * pe)
    return zp + kval + math.fsum(terms), math.fsum(errs)


@dataclass
class ZetaEval:
    """Continuation artifacts for one slice."""

    slice_ref: SpectralSlice
    residues: Dict[int, float]
    zeta0: float
    zeta_prime0: float
    pp_values: Dict[int, float]
    shifted0: Dict[int, float]
    shifted_prime0: Dict[int, float]
    err: Dict[str, float] = field(default_factory=dict)


def build_zeta_eval(sl: SpectralSlice, order: Optional[int] = None) -> ZetaEval:
    """Assemble every continuation artifact of a slice."""
    n = sl.cross_section.dim_n
    ms = mellin_split(sl)
    residues = zeta_residues(sl)
    z0 = ms.zeta0()
    zp, zp_err = ms.zeta_prime0()
    pp = {}
    pp_err = 0.0
    for r in range(1, n + 1):
        v, e = ms.pp_s(r)
        pp[r] = v
        pp_err = max(pp_err, e)
    shifted0 = {sign: shifted_zeta0(sl, sign) for sign in (+1, -1)}
    sp = {}
    sp_err = 0.0
    for sign in (+1, -1):
        v, e = shifted_zeta_prime0(sl, sign, order=order)
        sp[sign] = v
        sp_err = max(sp_err, e)
    eps = 1e-15
    err = {
        "residues": eps * max((abs(v) for v in residues.values()), default=0.0),
        "zeta0": eps * abs(z0),
        "zeta_prime0": zp_err + eps * abs(zp),
        "pp_values": pp_err,
        "shifted0": eps * max(abs(v) for v in shifted0.values()),
        "shifted_prime0": sp_err,
    }
    return ZetaEval(
        slice_ref=sl,
        residues=residues,
        zeta0=z0,
        zeta_prime0=zp,
        pp_values=pp,
        shifted0=shifted0,
        shifted_prime0=sp,
        err=err,
    )


def cutoff_for_tolerance(
    cs: CrossSection, k: int, tol: float, order: Optional[int] = None, t0: float = 1.0
) -> float:
    """Eigenvalue cutoff so the order-J K-series tail stays below ``tol``.

    Inverts the Weyl tail bound for the slowest-converging downstream series
    and never returns less than the window needed by the Mellin tail sum.
    """
    n = cs.dim_n
    j = order if order is not None else default_order(n)
    alpha = abs(float(cs.alpha(k)))
    tail = WeylTail(cs.coclosed_point_multiplicity(k), cs.volume, n, cs.dual_cell_diameter())
    power = j + 1 - n
    base = tail.density_constant() * alpha ** (j + 1) / ((j + 1) * power * tol)
    v = max(2.0 * alpha + 1.0, base ** (1.0 / power))
    for _ in range(3):
        geo = 1.0 / max(1.0 - alpha / v, 0.5)
        v = max(2.0 * alpha + 1.0, (base * geo) ** (1.0 / power))
    lam = v * v - alpha * alpha
    return max(lam, (_EXP_FLOOR + 5.0) / t0, 1.2 * cs.first_eta())

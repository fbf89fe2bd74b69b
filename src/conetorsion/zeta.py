"""Meromorphic continuation of the shifted spectral zeta functions.

For a slice of degree k with shift a = alpha_k the object of interest is

    zeta_{k,N}(s) = sum_eta m(eta) nu(eta)^(-s),   nu = sqrt(eta + a^2),

together with the shifted variants sum m (nu +- a)^(-s).  The continuation
runs through the Mellin split of zeta(s/2, Delta + a^2): the integral over
(0, t0] of the exact heat model integrates to an explicit meromorphic
series, the exponentially small lattice remainder is integrated for every
sigma at once by a globally adaptive Gauss-Kronrod rule (``quad_gk21``,
which the first-order oracle also runs) that evaluates the remainder at all
new nodes of a refinement round in one vectorised pass, and the integral
over [t0, inf) is a per-level sum of upper incomplete gamma functions, which
have closed forms (E_1, erfc and exp, then an upward recurrence), so the
continuation needs numpy and ``math`` alone.  Values and derivatives at
s = 0, residues at even s, and finite parts (PP values) at integer s all
come out of one component decomposition

    zeta(s) = M(s/2) / Gamma(s/2),    M = A + B + F,

where only A carries poles and those are explicit.  The decomposition is
only ever read on the half-integer grid sigma in {0, 1/2, ..., J/2}, and A,
B and F exist there alone.  Each slice's :class:`MellinSplit` tabulates
every component once: the A table (residue, finite part and pole flag at
each grid sigma, from the coefficients of ``HeatModel``) is built with the
split, and the B and F grids and the row of PP values at s = 1..J are
filled on their first request.  Every residue of zeta is
``HeatModel.residue``, here as in the Res term of the torsion.

The shifted derivatives at zero are assembled from the absolutely convergent
series

    K(0, c) = sum m(eta) [ -log(1 + c/nu) - sum_{r<=J} (-c)^r / (r nu^r) ]

via

    zeta'(0, c) = zeta'(0) + K(0, c)
                + sum_{r<=J} ((-c)^r / r) (Res_{s=r} zeta * H_{r-1} + PP zeta(r)),

an identity valid for every subtraction order J >= n; H_{r-1} is the harmonic
number, which is gamma + digamma(r) with the Euler constants cancelled
exactly; the same identity gives digamma at the integer poles of the PP
values.  Raising J accelerates the K series from O(nu^{-(n+1)}) to
O(nu^{-(J+1)}) term decay, which is what makes desk-scale cutoffs sufficient.
The one order is J = ``default_order(n)`` = n + 10, the order slice cutoffs
are planned for.  One evaluator, ``_k_direct``, sums K: levels with
|c|/nu > 1/2 by ``log1p`` minus the Taylor head, the rest by the Horner
tail.  As nu > |c|, no shift is refused.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .crosssection import CrossSection, HeatModel, SpectralSlice
from .errors import CutoffInsufficientError, DomainError, ZetaPoleError
from .olver import harmonic_number

EULER_GAMMA = 0.5772156649015328606
DEFAULT_TOLERANCE = 1e-10

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)
_EXP_FLOOR = 50.0  # e^{-50} ~ 2e-22: summation horizon for exponential tails
# Largest alpha^2 t0 a Mellin split accepts: the A part's series of
# e^{-alpha^2 t} cancels as alpha^2 t0 grows (on 32 I T^2 at J = n + 10 the
# error is 6e-14 at alpha^2 t0 = 0.25 and 1.7e-12 at 8)
A_CAP = 8.0
# t0 = _T0_VOLUME Vol^{2/n} makes the primal estimate omega (4 t0 (50 + 8))^{n/2} / Vol
# equal the dual one omega (55 / (4 pi^2 t0))^{n/2} Vol
_T0_VOLUME = 0.0775
# e^{-700} ~ 1e-304: lattice-remainder terms smaller than this cannot change a
# binary64 B, and skipping them keeps the exponentials out of the subnormal range
_REMAINDER_CUT = 700.0
# the starting breaks of a remainder quadrature begin where the first primal
# shell's term e^{-|p|^2/(4t)} reaches e^{-(_REMAINDER_CUT + _SHELL_MARGIN)}
# and grow by _BREAK_RATIO
_SHELL_MARGIN = 50.0
_BREAK_RATIO = 4.0
# (node x level) entries one block of the batched lattice remainder may hold:
# 2 MiB of float64 temporaries whatever the primal window
_BLOCK_SIZE = 1 << 18

# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): Kronrod nodes and
# weights, and the weights of the embedded 10-point Gauss rule, whose nodes
# are the odd-indexed Kronrod nodes
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK21_X = np.concatenate([_GK21_X, -_GK21_X[-2::-1]])
_GK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK21_WK = np.concatenate([_GK21_WK, _GK21_WK[-2::-1]])
_GK21_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK21_WG = np.concatenate([_GK21_WG, _GK21_WG[::-1]])
# panels one refinement round may split
_ROUND_PANELS = 128
# 1 / ((k+1) (k+1)!): the E_1 power series over x, to below 1e-19 relative at x = 1
_E1_SERIES = [1.0 / ((k + 1) * math.factorial(k + 1)) for k in range(20)]


def _gk21_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod-21 of the vector integrand ``f`` on the panels
    [lo_i, hi_i], with QUADPACK's error and rounding estimates in the max
    norm over the integrand's components.
    Returns (integrals (panels x components), errors, rounding errors)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    t = c[:, None] + h[:, None] * _GK21_X
    fv = f(t.ravel()).reshape(t.shape + (-1,))
    s_k = np.einsum("j,pjk->pk", _GK21_WK, fv)
    s_g = np.einsum("j,pjk->pk", _GK21_WG, fv[:, 1::2])
    s_abs = np.einsum("j,pjk->pk", _GK21_WK, np.abs(fv))
    s_dev = np.einsum("j,pjk->pk", _GK21_WK, np.abs(fv - 0.5 * s_k[:, None, :]))
    h = h[:, None]
    err = np.max(np.abs((s_k - s_g) * h), axis=1)
    dabs = np.max(np.abs(s_dev * h), axis=1)
    scaled = (dabs != 0.0) & (err != 0.0)
    err[scaled] = dabs[scaled] * np.minimum(1.0, (200.0 * err[scaled] / dabs[scaled]) ** 1.5)
    rounding = np.max(np.abs(50.0 * np.finfo(float).eps * h * s_abs), axis=1)
    err = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
    return h * s_k, err, rounding


def quad_gk21(
    f, breaks, epsabs: float, epsrel: float, limit: int, label: Callable[[], str]
) -> tuple[np.ndarray, float]:
    """Integral over [breaks[0], breaks[-1]] of the vector integrand ``f``,
    which maps a 1-d array of nodes to a (nodes x components) array, by
    globally adaptive Gauss-Kronrod-21 in the scheme of scipy's ``quad_vec``.

    The panels start at ``breaks``.  Each round bisects the worst panels (at
    most _ROUND_PANELS) until the rest carry under an eighth of the
    tolerance, and evaluates ``f`` at the 21 nodes of every new panel in one
    call.  It stops once the total error estimate is under an eighth of
    max(epsabs, epsrel |integral|_max), or below the summed rounding
    estimate (not converged), or at ``limit`` panels; a quadrature that did
    not converge warns with ``label()`` (IntegrationWarning); the label is
    only built then, as the quadrature runs on the hot path.  Returns the
    integral of every component and the max-norm error estimate.
    """
    breaks = np.asarray(breaks, dtype=float)
    vals, errs, rounds = _gk21_panels(f, breaks[:-1], breaks[1:])
    total, total_err, round_err = vals.sum(axis=0), float(errs.sum()), float(rounds.sum())
    # heap of (-error, lo, hi, integral); no two panels share lo, so the
    # integral arrays are never compared
    panels = [(-float(e), float(a), float(b), v) for e, a, b, v in zip(errs, breaks[:-1], breaks[1:], vals)]
    heapq.heapify(panels)
    converged = False
    while len(panels) < limit:
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        split = [heapq.heappop(panels)]
        split_err = -split[0][0]
        while panels and len(split) < _ROUND_PANELS and split_err <= total_err - tol / 8:
            split.append(heapq.heappop(panels))
            split_err -= split[-1][0]
        lo = np.array([p[1] for p in split])
        hi = np.array([p[2] for p in split])
        mid = 0.5 * (lo + hi)
        vals, errs, rounds = _gk21_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        halves = len(split)
        for i, (neg_err, a, b, old) in enumerate(split):
            left, right = i, i + halves
            total = total + (vals[left] + vals[right] - old)
            total_err += float(errs[left] + errs[right]) + neg_err
            round_err += float(rounds[left] + rounds[right])
            heapq.heappush(panels, (-float(errs[left]), a, float(mid[i]), vals[left]))
            heapq.heappush(panels, (-float(errs[right]), float(mid[i]), b, vals[right]))
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        if total_err < tol / 8:
            converged = True
            break
        if total_err < round_err or not (math.isfinite(total_err) and math.isfinite(round_err)):
            break
    err = total_err + round_err
    if not converged:
        from scipy.integrate import IntegrationWarning

        # attributed to the caller of the method that ran the quadrature
        warnings.warn(f"{label()} did not converge: error estimate {err:.3e}", IntegrationWarning, stacklevel=4)
    return total, err


def remainder_breaks(p_sq: np.ndarray, upper: float) -> list[float]:
    """Starting breaks [0, lo, 4 lo, 16 lo, ..., upper] of a quadrature over
    (0, upper] of a lattice remainder whose primal form sums
    e^{-|p|^2/(4t)} over the sorted squared norms ``p_sq``.

    lo = |p_min|^2 / (4 (_REMAINDER_CUT + _SHELL_MARGIN)) is where the first
    shell's term reaches e^-750, so the remainder vanishes to binary64 on
    [0, lo] and the geometric panels above it follow its growth; with no
    primal point (or lo >= upper) the single panel [0, upper].
    """
    breaks = [0.0]
    if p_sq.size:
        b = float(p_sq[0]) / (4.0 * (_REMAINDER_CUT + _SHELL_MARGIN))
        while b < upper:
            breaks.append(b)
            b *= _BREAK_RATIO
    breaks.append(float(upper))
    return breaks


def default_order(n: int) -> int:
    """Default K-series subtraction order for dimension n."""
    return n + 10


def plan_t0(cs: CrossSection) -> float:
    """Mellin split point of the torus: min(1, 0.0775 Vol^{2/n}, A_CAP / alpha_max^2).

    The volume term balances the primal window |B m|^2 <= 4 t0 (50 + 8) against
    the dual window eta <= 55 / t0, so neither dominates the enumeration; the
    last term keeps alpha_max^2 t0 within A_CAP, alpha_max = (n - 1)/2.
    """
    alpha_max = float(cs.alpha(0))
    return min(1.0, _T0_VOLUME * cs.volume ** (2.0 / cs.dim_n), A_CAP / (alpha_max * alpha_max))


def primal_window(t0: float) -> float:
    """Largest squared primal norm the lattice remainder on (0, t0] sums over."""
    return 4.0 * t0 * (_EXP_FLOOR + 8.0)


# ---------------------------------------------------------------------------
# Upper incomplete gamma on the half-integer grid
# ---------------------------------------------------------------------------


def exp1(x: np.ndarray) -> np.ndarray:
    """E_1(x) = int_x^inf e^(-t) dt / t (DLMF 6.2.1) at every entry of x > 0.

    The scheme of SPECFUN's E1XB: the power series -gamma - log x +
    sum_k (-1)^(k+1) x^k / (k k!) (DLMF 6.6.2) for x <= 1, summed by Horner
    from its smallest term (near x = 1 the parts cancel to a quarter, and
    the forward sum is 2.1e-15 off where Horner stays below 1e-15), and
    above 1 the continued fraction e^(-x) / (x + 1/(1 + 1/(x + 2/(1 + ...))))
    (DLMF 6.9) evaluated backward from depth 20 + 80 / x, taken at the
    smallest such x so that one loop serves them all.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = x <= 1.0
    if small.any():
        xs = x[small]
        total = np.full(xs.shape, _E1_SERIES[-1])
        for c in _E1_SERIES[-2::-1]:
            total = c - xs * total
        out[small] = -EULER_GAMMA - np.log(xs) + xs * total
    large = ~small
    if large.any():
        xl = x[large]
        # tail = k / (1 + k / (x + tail)) in place: the loop runs up to 100
        # times, and on a few hundred levels temporaries cost a third of it
        tail = np.zeros(xl.shape)
        for k in range(20 + int(80.0 / xl.min()), 0, -1):
            tail += xl
            np.divide(k, tail, out=tail)
            tail += 1.0
            np.divide(k, tail, out=tail)
        out[large] = np.exp(-xl) / (xl + tail)
    return out


def upper_gamma_grid(x: np.ndarray, r_max: int) -> list[np.ndarray]:
    """[Gamma(r/2, x) for r = 0..r_max] at every entry of x > 0.

    Gamma(0, x) = E_1(x), Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) and
    Gamma(1, x) = e^(-x) (DLMF 8.4.4, 8.4.6); the rest follow from the
    upward recurrence Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x) (DLMF
    8.8.2), whose terms are all positive, so it loses no accuracy.
    """
    decay = np.exp(-x)
    root_pi = math.sqrt(math.pi)
    half = np.array([root_pi * math.erfc(v) for v in np.sqrt(x).tolist()])
    grid = [exp1(x), half, decay][: r_max + 1]
    for r in range(3, r_max + 1):
        s = (r - 2) / 2.0
        grid.append(s * grid[r - 2] + x**s * decay)
    return grid


# ---------------------------------------------------------------------------
# Mellin split
# ---------------------------------------------------------------------------


def _a_table(heat: HeatModel, t0: float, grid: np.ndarray, terms: int) -> tuple[list, list, list]:
    """(residues, finite parts, pole flags) at every grid sigma of
    A(sigma) = int_0^t0 t^(sigma-1) (heat model) dt, from the coefficients
    c_j of t^(j-h), j < ``terms``.

    Term by term A = sum_j c_j t0^d / d with d = sigma + j - h.  A pole,
    d = 0, falls at the integer sigma <= h alone; there the residue is c_j
    and the finite part takes c_j log t0 for that term.  Each sigma's sum
    runs through ``math.fsum``; off the poles the finite part is A itself.
    """
    coef = np.array([heat.coefficient(j) for j in range(terms)])
    d = grid[:, None] + (np.arange(terms) - heat.n // 2)
    pole = d == 0.0
    safe = np.where(pole, 1.0, d)
    parts = np.where(pole, coef * math.log(t0), coef * t0**safe / safe)
    # at most one pole per row, so each residue is one coefficient exactly
    res = np.where(pole, coef, 0.0).sum(axis=1)
    return res.tolist(), [math.fsum(row) for row in parts.tolist()], pole.any(axis=1).tolist()


class MellinSplit:
    """Continuation engine for one spectral slice.

    A, B and F are defined on the grid sigma in {0, 1/2, ..., J/2},
    J = default_order(n), alone; a sigma off it is a :class:`DomainError`.
    A, the integral of the exact heat model over (0, t0], is tabulated when
    the split is built (``_a_table``): its residue, finite part and pole
    flag at every grid sigma, from the coefficients of ``HeatModel``.  B,
    the lattice remainder on (0, t0], comes from one globally adaptive
    Gauss-Kronrod-21 vector quadrature (absolute tolerance 1e-13, relative
    1e-12 in the max norm), started from the panels of ``remainder_breaks``,
    that yields the whole grid at once; each refinement round evaluates the
    remainder at the nodes of all its new panels in one vectorised pass.
    F, the spectral sum on [t0, inf), is the closed form
    sum m mu^(-sigma) Gamma(sigma, mu t0), filled for the whole grid at once
    from ``upper_gamma_grid``.  B, F and the row of PP values at s = 1..J
    are each one table, filled on its first request.  Sums run through
    ``math.fsum``, level sums in sorted order, and no value depends on the
    order of requests, so results are reproducible bit for bit.
    """

    def __init__(self, sl: SpectralSlice, t0: float = 1.0):
        self.sl = sl
        self.t0 = float(t0)
        self.n = sl.cross_section.dim_n
        self.h = self.n // 2
        self.order = default_order(self.n)
        self.kappa = sl.kappa
        self.a2 = sl.alpha * sl.alpha
        if self.a2 * self.t0 > A_CAP:
            raise DomainError(
                f"alpha^2 t0 = {self.a2 * self.t0:.6g} exceeds A_CAP = {A_CAP:g}: "
                "the A-part series of exp(-alpha^2 t) cancels"
            )
        self.heat = heat = sl.heat
        self.v_n = heat.v_n
        self._grid = np.arange(self.order + 1) / 2.0
        # the heat expansion through t^(terms + h + 3): h + 4 powers past the
        # first term x^i / i! of e^{-x}, x = alpha^2 t0, below 1e-24
        x = self.a2 * self.t0
        terms = 8
        while x**terms / math.factorial(terms) > 1e-24 and terms < 400:
            terms += 1
        self._a_res, self._a_fin, self._a_pole = _a_table(heat, self.t0, self._grid, terms + 2 * self.h + 4)
        # Res_{s=r} zeta H_{r-1} for r = 1..J, nonzero at the even r <= n alone
        self._res_h = [0.0] * self.order
        for r in range(2, self.n + 1, 2):
            self._res_h[r - 1] = heat.residue(r) * float(harmonic_number(r - 1))
        self._b: Optional[tuple[np.ndarray, float]] = None
        self._f: Optional[list[float]] = None
        self._pp: Optional[list[tuple[float, float]]] = None
        # primal norms for the lattice remainder on (0, t0]
        self._p_sq, self._p_counts = sl.cross_section.primal_norms(primal_window(self.t0))
        # levels that matter on [t0, inf)
        mu = sl.eta + self.a2
        keep = mu * self.t0 <= _EXP_FLOOR
        self._f_mu = mu[keep]
        self._f_mult = sl.mult[keep]
        # the enumeration must extend past the summation horizon, otherwise
        # the tail sum silently misses levels
        self._f_complete = (sl.cutoff + self.a2) * self.t0 >= _EXP_FLOOR

    def _grid_index(self, sigma: float) -> int:
        """Position of sigma in the grid ``_grid``; a DomainError off it."""
        r = 2.0 * sigma
        if r != round(r) or not 0 <= r < self._grid.size:
            raise DomainError(
                f"sigma = {sigma} is off the Mellin grid {{0, 1/2, ..., {self._grid[-1]:g}}}"
            )
        return int(r)

    # -- A: exact heat-model part -----------------------------------------

    def a_value(self, sigma: float) -> float:
        """A(sigma) = int_0^t0 t^(sigma-1) (heat model) dt away from its poles."""
        i = self._grid_index(sigma)
        if self._a_pole[i]:
            raise ZetaPoleError(f"sigma={sigma} hits a heat-expansion pole")
        return self._a_fin[i]

    def a_residue_and_finite(self, sigma0: float) -> tuple[float, float]:
        """Residue and finite part of A at sigma0 (residue 0 off the poles)."""
        i = self._grid_index(sigma0)
        return self._a_res[i], self._a_fin[i]

    # -- B: lattice remainder on (0, t0] ----------------------------------

    def _remainders(self, t: np.ndarray) -> np.ndarray:
        """R(t) = scale * sum m e^{-|p|^2/(4t)} at every entry of ``t`` (all
        > 0) in one pass, with scale = kappa V_n t^{-n/2} e^{-alpha^2 t}.  Each
        node sums the prefix of the sorted primal norms whose terms
        scale * e^{-|p|^2/(4t)} reach e^{-_REMAINDER_CUT}; the scalar form,
        one node at a time, is ``remainder_ref`` of ``tests/reference_oracles.py``.

        The nodes are taken in order of their prefix length, in blocks of at
        most _BLOCK_SIZE (node x level) entries; within a block, the levels
        beyond a node's own prefix are masked out of its sum.
        """
        scale = self.kappa * self.v_n * t ** (-self.h) * np.exp(-self.a2 * t)
        horizon = 4.0 * t * (_REMAINDER_CUT + np.log(scale))
        prefix = np.searchsorted(self._p_sq, horizon, side="right")
        order = np.argsort(prefix, kind="stable")
        widths = prefix[order]
        out = np.zeros(t.shape)
        i = int(np.searchsorted(widths, 0, side="right"))
        while i < order.size:
            # the block's width is that of its last node; widths ascend
            fits = np.arange(1, order.size - i + 1) * widths[i:] <= _BLOCK_SIZE
            j = i + max(1, int(np.count_nonzero(fits)))
            rows = order[i:j]
            width = int(widths[j - 1])
            terms = -self._p_sq[:width] / (4.0 * t[rows, None])
            terms[np.arange(width) >= widths[i:j, None]] = -np.inf
            np.exp(terms, out=terms)
            terms *= self._p_counts[:width]
            out[rows] = scale[rows] * terms.sum(axis=1)
            del terms  # free this block before the next one is allocated
            i = j
        return out

    def _b_quad(self, sigmas: np.ndarray) -> tuple[np.ndarray, float]:
        """B at every entry of ``sigmas`` from one ``quad_gk21`` vector
        quadrature of t^(sigma-1) R(t) over (0, t0] (tolerances _QUAD_OPTS),
        started from the panels of ``remainder_breaks``."""
        powers = sigmas - 1.0

        def integrand(t: np.ndarray) -> np.ndarray:
            return t[:, None] ** powers * self._remainders(t)[:, None]

        return quad_gk21(
            integrand,
            remainder_breaks(self._p_sq, self.t0),
            label=lambda: f"B quadrature on (0, {self.t0}] for sigma in {sigmas.tolist()}",
            **_QUAD_OPTS,
        )

    def b_value(self, sigma: float) -> tuple[float, float]:
        """B(sigma) = int_0^t0 t^(sigma-1) R(t) dt with its error estimate.

        The first call fills the whole grid ``_grid``; the error estimate
        is the max-norm estimate of that quadrature.
        """
        i = self._grid_index(sigma)
        if self._b is None:
            self._b = self._b_quad(self._grid)
        vals, err = self._b
        return float(vals[i]), err

    # -- F: spectral sum on [t0, inf) --------------------------------------

    def f_value(self, sigma: float) -> tuple[float, float]:
        """F(sigma) = sum m int_t0^inf t^(sigma-1) e^(-mu t) dt with an error
        estimate, over the levels with mu t0 <= _EXP_FLOOR.

        Each level integral is mu^(-sigma) Gamma(sigma, mu t0) (DLMF 8.2).
        The first call fills the whole grid ``_grid`` from
        ``upper_gamma_grid``.  The terms are positive, and the error
        estimate allows 1e-13 relative, above the worst relative error of
        the grid against mpmath for 1e-4 <= mu t0 <= 50 (6.1e-15 up to
        sigma = 9).
        """
        if not self._f_complete:
            raise CutoffInsufficientError(
                "slice cutoff too small for the Mellin tail sum",
                required_cutoff=_EXP_FLOOR / self.t0,
            )
        i = self._grid_index(sigma)
        if self._f is None:
            levels = upper_gamma_grid(self._f_mu * self.t0, self._grid.size - 1)
            self._f = [
                math.fsum((self._f_mult * (self._f_mu**-s * level)).tolist())
                for s, level in zip(self._grid.tolist(), levels)
            ]
        val = self._f[i]
        return val, 1e-13 * val + 1e-22

    # -- assembled quantities ----------------------------------------------

    def residue_s(self, r: int) -> float:
        """Residue of zeta_{k,N} at integer s = r (``HeatModel.residue``)."""
        return self.heat.residue(r)

    def _pp_row(self) -> list[tuple[float, float]]:
        """(PP value, error) of zeta_{k,N} at s = r for r = 1..J, filled on
        the first request from the A table, ``b_value`` and ``f_value``."""
        if self._pp is None:
            row = []
            for r in range(1, self.order + 1):
                sigma = r / 2.0
                b, be = self.b_value(sigma)
                f, fe = self.f_value(sigma)
                # digamma(r/2) = H_{r/2-1} - gamma at a pole r/2; the residue is 0 elsewhere
                psi = float(harmonic_number(r // 2 - 1)) - EULER_GAMMA if self._a_pole[r] else 0.0
                g = math.gamma(sigma)
                row.append(((self._a_fin[r] + b + f - self._a_res[r] * psi) / g, (be + fe) / g))
            self._pp = row
        return self._pp

    def pp_s(self, r: int) -> tuple[float, float]:
        """PP value of zeta_{k,N} at integer s = r (plain value off poles)."""
        if r <= 0:
            raise DomainError("PP values are defined for integer s >= 1")
        return self._pp_row()[self._grid_index(r / 2.0) - 1]

    def zeta0(self) -> float:
        rho, _ = self.a_residue_and_finite(0.0)
        return rho

    def zeta_prime0(self) -> tuple[float, float]:
        rho, fin = self.a_residue_and_finite(0.0)
        b, be = self.b_value(0.0)
        f, fe = self.f_value(0.0)
        m0 = fin + b + f
        return 0.5 * (m0 + EULER_GAMMA * rho), 0.5 * (be + fe)


def mellin_split(sl: SpectralSlice) -> MellinSplit:
    """The slice's continuation engine at the planned t0, built on first use
    and kept on the slice."""
    ms = getattr(sl, "_mellin_split", None)
    if ms is None:
        ms = sl._mellin_split = MellinSplit(sl, plan_t0(sl.cross_section))
    return ms


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _k_tail_bound(sl: SpectralSlice, c: float, nu_max: float, order: int) -> float:
    """Weyl-density bound on the dropped K-series tail of ``sl`` beyond nu_max."""
    n = sl.cross_section.dim_n
    if nu_max <= abs(c) or order + 1 <= n:
        return math.inf
    dens = sl.cross_section.weyl_density(sl.k)
    geo = 1.0 / (1.0 - abs(c) / nu_max)
    power = order + 1 - n
    return dens * abs(c) ** (order + 1) / (order + 1) * geo * nu_max ** (-power) / power


def _k_direct(sl: SpectralSlice, c: float, order: int) -> tuple[float, float]:
    """K(0, c) at subtraction order J = ``order`` over the slice levels, and
    the Weyl bound on the levels beyond the cutoff.

    Each level's term -log(1+x) - sum_{r<=J} (-x)^r / r, x = c/nu, is finite,
    as nu > |c|.  A level with |x| > 1/2 takes this form as it stands
    (``log1p`` minus the Taylor head by Horner), with an absolute rounding
    error of a few ulps of log 2 however slowly its tail converges.  Every
    other level sums its tail sum_{r>J} (-x)^r / r by Horner to e^-50 of the
    first term (at most 73 terms), free of the cancellation between
    ``log1p`` and the head.
    """
    if c == 0.0:
        return 0.0, 0.0
    nu = sl.nu()
    if nu.size == 0:
        return 0.0, math.inf
    y = -c / nu
    near = np.abs(y) > 0.5
    terms = np.empty_like(y)
    # near: -log1p(x) - y sum_{r<=J} y^(r-1) / r
    yn = y[near]
    acc = np.zeros_like(yn)
    for r in range(order, 0, -1):
        acc = acc * yn + 1.0 / r
    terms[near] = -np.log1p(-yn) - acc * yn
    # far: sum_{r=J+1}^{J+extra} y^r / r = y^(J+1) sum_j y^j / (J+1+j)
    yf = y[~near]
    xmax = float(np.abs(yf).max(initial=0.0))
    extra = max(8, int(math.ceil(-_EXP_FLOOR / math.log(max(xmax, 1e-12)))))
    acc = np.zeros_like(yf)
    for r in range(order + extra, order, -1):
        acc = acc * yf + 1.0 / r
    terms[~near] = acc * yf ** (order + 1)
    value = math.fsum((terms * sl.mult).tolist())
    return value, _k_tail_bound(sl, c, float(nu[-1]), order)


def shifted_zeta0(sl: SpectralSlice, sign: int) -> float:
    """zeta_{k,N}(0, sign*alpha) = zeta(0) + sum_r ((-c)^r/r) Res_{s=r} zeta."""
    n = sl.cross_section.dim_n
    c = sign * sl.alpha
    ms = mellin_split(sl)
    return ms.zeta0() + math.fsum((-c) ** r / r * ms.residue_s(r) for r in range(1, n + 1))


def shifted_zeta_prime0(sl: SpectralSlice, sign: int) -> tuple[float, float]:
    """zeta'_{k,N}(0, sign*alpha) with an error estimate.

    Sums the decomposition once at the split's subtraction order
    J = ``default_order(n)``, the order the slice cutoff is planned for: the
    K series summed directly at order J plus the Mellin terms r <= J, read
    off the split's residue and PP rows.  The result does not depend on
    J, which the test suite checks.
    """
    c = sign * sl.alpha
    ms = mellin_split(sl)
    zp, zp_err = ms.zeta_prime0()
    if c == 0.0:
        return zp, zp_err
    kval, kbound = _k_direct(sl, c, ms.order)
    terms = []
    errs = [zp_err, min(kbound, 1.0)]
    for r, (res_h, (pp, pe)) in enumerate(zip(ms._res_h, ms._pp_row()), start=1):
        terms.append((-c) ** r / r * (res_h + pp))
        errs.append(abs(c) ** r / r * pe)
    return zp + kval + math.fsum(terms), math.fsum(errs)


@dataclass
class ZetaEval:
    """Continuation artifacts for one slice."""

    residues: Dict[int, float]
    zeta0: float
    zeta_prime0: float
    pp_values: Dict[int, float]
    shifted0: Dict[int, float]
    shifted_prime0: Dict[int, float]
    err: Dict[str, float] = field(default_factory=dict)


def build_zeta_eval(sl: SpectralSlice) -> ZetaEval:
    """Assemble every continuation artifact of a slice."""
    n = sl.cross_section.dim_n
    ms = mellin_split(sl)
    residues = {r: ms.residue_s(2 * r) for r in range(1, n // 2 + 1)}
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
        v, e = shifted_zeta_prime0(sl, sign)
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
        residues=residues,
        zeta0=z0,
        zeta_prime0=zp,
        pp_values=pp,
        shifted0=shifted0,
        shifted_prime0=sp,
        err=err,
    )


def cutoff_for_tolerance(
    cs: CrossSection, k: int, tol: float, t0: Optional[float] = None
) -> float:
    """Eigenvalue cutoff so the K-series tail at the default order J stays below ``tol``.

    Inverts the Weyl tail bound for the slowest-converging downstream series
    and never returns less than the window needed by the Mellin tail sum at
    ``t0`` (default: the planned split point), nor less than
    ``cs.first_eta_bound()``, which keeps the first level in every slice.
    """
    if t0 is None:
        t0 = plan_t0(cs)
    n = cs.dim_n
    j = default_order(n)
    alpha = abs(float(cs.alpha(k)))
    power = j + 1 - n
    base = cs.weyl_density(k) * alpha ** (j + 1) / ((j + 1) * power * tol)
    v = max(2.0 * alpha + 1.0, base ** (1.0 / power))
    for _ in range(3):
        geo = 1.0 / max(1.0 - alpha / v, 0.5)
        v = max(2.0 * alpha + 1.0, (base * geo) ** (1.0 / power))
    lam = v * v - alpha * alpha
    return max(lam, (_EXP_FLOOR + 5.0) / t0, cs.first_eta_bound())

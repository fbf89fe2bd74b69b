"""Meromorphic continuation of the shifted spectral zeta functions.

For degree k with shift a = alpha_k the object of interest is

    zeta_{k,N}(s) = kappa_k sum_eta m(eta) nu(eta)^(-s),   nu = sqrt(eta + a^2),

together with the shifted variants kappa_k sum m (nu +- a)^(-s), where m
counts the dual-lattice points of the level eta, which every degree shares,
and kappa_k = rank C(n-1, k) is the weight of degree k.  This module works
per lattice point, kappa = 1: the weight is an exact integer that the
caller applies once to a finished value.  The continuation runs through
the Mellin split of zeta(s/2, Delta + a^2): the integral over
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
B and F exist there alone.  A torus has one :class:`MellinSplit`, which
tabulates every component once, for a tuple of shifts a (its rows: the
alpha_k of every degree k < n/2, or the alpha_k / mu of every row of a
scaling grid), which change the continuation only through e^{-a^2 t}, nu
and c: the A table (residue, finite part and pole flag at each row and grid
sigma, from the coefficients of ``HeatModel``), the B and F grids, the rows
of PP values at s = 1..J and the K series of both signs are all computed
when the split is built, each for every row in one vectorised pass.  Every residue of
zeta is ``HeatModel.residue``, here as in the Res term of the torsion.
Callers build the split with every row it serves (``torsion.build_splits``)
and pass it to its readers; its tables live on it.

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
are planned for.  One evaluator, ``_k_direct``, sums K for every row and
sign at once: levels with |c|/nu > 1/2 by ``log1p`` minus the Taylor head,
the rest by the Horner tail.  As nu > |c|, no shift is refused.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .crosssection import THETA_CUT, CrossSection, HeatModel, SpectralSlice, theta_heat_coeffs, theta_sums
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
# the starting breaks of a remainder quadrature begin where the first primal
# shell's term e^{-|p|^2/(4t)} reaches e^{-(THETA_CUT + _SHELL_MARGIN)}
# and grow by _BREAK_RATIO
_SHELL_MARGIN = 50.0
_BREAK_RATIO = 4.0

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

    lo = |p_min|^2 / (4 (THETA_CUT + _SHELL_MARGIN)) is where the first
    shell's term reaches e^-750, so the remainder vanishes to binary64 on
    [0, lo] and the geometric panels above it follow its growth; with no
    primal point (or lo >= upper) the single panel [0, upper].
    """
    breaks = [0.0]
    if p_sq.size:
        b = float(p_sq[0]) / (4.0 * (THETA_CUT + _SHELL_MARGIN))
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


def _a_table(
    heats: list[HeatModel], t0: float, grid: np.ndarray, terms: list[int]
) -> tuple[np.ndarray, np.ndarray, list]:
    """(residues, finite parts) at every (row, grid sigma), and the pole flags
    at every grid sigma, of A(sigma) = int_0^t0 t^(sigma-1) (heat model) dt
    for the heat model of each row, from its coefficients c_j of t^(j-h),
    j < that row's ``terms``.

    Term by term A = sum_j c_j t0^d / d with d = sigma + j - h.  A pole,
    d = 0, falls at the integer sigma <= h alone, in every row alike; there
    the residue is c_j and the finite part takes c_j log t0 for that term.
    Each (row, sigma) sum runs through ``math.fsum``, a row's coefficients
    past its own ``terms`` entering as exact zeros; off the poles the finite
    part is A itself.
    """
    width = max(terms)
    coef = np.array([[heat.coefficient(j) if j < n else 0.0 for j in range(width)] for heat, n in zip(heats, terms)])
    coef = coef[:, None, :]
    d = grid[:, None] + (np.arange(width) - heats[0].n // 2)
    pole = d == 0.0
    safe = np.where(pole, 1.0, d)
    parts = np.where(pole, coef * math.log(t0), coef * t0**safe / safe)
    # at most one pole per row, so each residue is one coefficient exactly
    res = np.where(pole, coef, 0.0).sum(axis=2)
    fin = np.array([[math.fsum(row) for row in shift] for shift in parts.tolist()])
    return res, fin, pole.any(axis=1).tolist()


def _f_table(sl: SpectralSlice, a2: np.ndarray, t0: float, grid: np.ndarray) -> np.ndarray:
    """F at every (row, grid sigma): sum m mu^(-sigma) Gamma(sigma, mu t0),
    mu = eta + a2_i, over row i's levels with mu t0 <= _EXP_FLOOR, from one
    ``upper_gamma_grid`` call over the (row x level) array; each row's level
    sum runs through ``math.fsum`` in sorted order."""
    mu = sl.eta + a2[:, None]
    keep = mu * t0 <= _EXP_FLOOR
    f_mu = mu[keep]
    f_counts = sl.counts[np.nonzero(keep)[1]]
    # row i's levels are f_mu[ends[i-1]:ends[i]]
    ends = list(itertools.accumulate(keep.sum(axis=1).tolist()))
    levels = upper_gamma_grid(f_mu * t0, grid.size - 1)
    # one scalar exponent per sigma: a broadcast array of exponents
    # takes another power routine, an ulp off on some levels
    terms = [(f_counts * (f_mu**-s * level)).tolist() for s, level in zip(grid.tolist(), levels)]
    rows = zip([0] + ends[:-1], ends)
    return np.array([[math.fsum(t[a:b]) for t in terms] for a, b in rows])


class MellinSplit:
    """Continuation engine for the levels of one spectral slice, per lattice
    point, at one split point t0 and a tuple of shifts, built by its caller
    with every row it is to serve.

    Row i of the split is the slice's spectrum eta with the shift a_i of
    ``shifts`` (default: the slice's own alpha alone), i.e. the levels
    eta + a_i^2 and the heat model of a_i; ``torsion.build_splits`` gives a
    torus one split whose rows are alpha_k / mu_i for every degree k < n/2
    and every mu_i of a scaling grid.  The constructor computes every
    component as one table over (row, grid sigma), for all rows at once, and
    its readers index the tables.  A, B and F are defined on the grid sigma
    in {0, 1/2, ..., J/2}, J = default_order(n), alone; a sigma off it is a
    :class:`DomainError`.  A, the integral of the exact heat model over
    (0, t0] (``_a_table``), is its residue, finite part and pole flag at
    every grid sigma, from the coefficients of ``HeatModel``.  B, the
    lattice remainder on (0, t0], and its error estimate ``b_err`` come from
    one globally adaptive Gauss-Kronrod-21 vector quadrature (absolute
    tolerance 1e-13, relative 1e-12 in the max norm over every (row, sigma)
    component), started from the panels of ``remainder_breaks``; each
    refinement round evaluates the remainder at the nodes of all its new
    panels in one ``theta_sums`` pass shared by the rows, and with no primal
    point in the window B is 0.  F, the spectral sum on [t0, inf), is the
    closed form sum m mu^(-sigma) Gamma(sigma, mu t0) (``_f_table``); a
    slice cutoff short of its summation horizon is refused with a
    :class:`CutoffInsufficientError` before any enumeration or quadrature.
    ``pp`` and ``pp_err`` hold the PP values at s = 1..J, ``k`` and
    ``k_bound`` the K series at both signs of every row with its Weyl tail
    bounds (``_k_direct``), and ``res_h`` the Res H rows.  Sums run through
    ``math.fsum``, level sums in sorted order, so results are reproducible
    bit for bit.
    """

    def __init__(self, sl: SpectralSlice, t0: float, shifts: Optional[Sequence[float]] = None):
        self.sl = sl
        self.t0 = float(t0)
        cs = sl.cross_section
        self.n = cs.dim_n
        self.h = self.n // 2
        self.order = default_order(self.n)
        self.shifts = (float(sl.alpha),) if shifts is None else tuple(map(float, shifts))
        a2 = [a * a for a in self.shifts]
        self.a2 = np.array(a2)
        if max(a2) * self.t0 > A_CAP:
            raise DomainError(
                f"alpha^2 t0 = {max(a2) * self.t0:.6g} exceeds A_CAP = {A_CAP:g}: "
                "the A-part series of exp(-alpha^2 t) cancels"
            )
        # the enumeration must extend past the summation horizon, otherwise
        # the tail sum silently misses levels
        if not (sl.cutoff + min(a2)) * self.t0 >= _EXP_FLOOR:
            raise CutoffInsufficientError(
                "slice cutoff too small for the Mellin tail sum",
                required_cutoff=_EXP_FLOOR / self.t0,
            )
        self.heats = [HeatModel(cs.volume, self.n, a) for a in self.shifts]
        self.v_n = self.heats[0].v_n
        self._grid = np.arange(self.order + 1) / 2.0
        # each row's heat expansion through t^(terms + h + 3): h + 4 powers
        # past the first term x^i / i! of e^{-x}, x = a^2 t0, below 1e-24
        widths = []
        for x in a2:
            x *= self.t0
            terms = 8
            while x**terms / math.factorial(terms) > 1e-24 and terms < 400:
                terms += 1
            widths.append(terms + 2 * self.h + 4)
        self._a_res, self._a_fin, self._a_pole = _a_table(self.heats, self.t0, self._grid, widths)
        # Res_{s=r} zeta H_{r-1} for r = 1..J, nonzero at the even r <= n alone
        self.res_h = [[0.0] * self.order for _ in a2]
        for r in range(2, self.n + 1, 2):
            harmonic = float(harmonic_number(r - 1))
            for row, heat in zip(self.res_h, self.heats):
                row[r - 1] = heat.residue(r) * harmonic
        # primal norms for the lattice remainder on (0, t0]; the smallest
        # shift has the largest remainder scale, and its theta-sum prefix
        # holds every other row's
        self._p_sq, self._p_counts = cs.primal_norms(primal_window(self.t0))
        self._widest = a2.index(min(a2))
        self.b, self.b_err = self._b_quad(self._grid)
        self.f = _f_table(sl, self.a2, self.t0, self._grid)
        self.pp, self.pp_err = self._pp_table()
        self.k, self.k_bound = _k_direct(sl, self.shifts, self.order)

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
        """A(sigma) = int_0^t0 t^(sigma-1) (heat model) dt of the first row,
        away from its poles."""
        i = self._grid_index(sigma)
        if self._a_pole[i]:
            raise ZetaPoleError(f"sigma={sigma} hits a heat-expansion pole")
        return float(self._a_fin[0, i])

    def a_residue_and_finite(self, sigma0: float, row: int = 0) -> tuple[float, float]:
        """Residue and finite part of A at sigma0 (residue 0 off the poles)."""
        i = self._grid_index(sigma0)
        return float(self._a_res[row, i]), float(self._a_fin[row, i])

    # -- B: lattice remainder on (0, t0] ----------------------------------

    def _remainders(self, t: np.ndarray) -> np.ndarray:
        """R_i(t) = scale_i * sum m e^{-|p|^2/(4t)} at every entry of ``t``
        (all > 0) and row i, shape (nodes x rows), with scale_i = V_n
        t^{-n/2} e^{-a_i^2 t}.  One ``theta_sums`` pass serves every row: each
        node sums the prefix of the sorted primal norms whose terms, scaled
        by the largest scale (the smallest shift's), reach e^{-THETA_CUT}, a
        superset of each row's own prefix; the scalar form, one node and row
        at a time, is ``remainder_ref`` of ``tests/reference_oracles.py``."""
        scale = self.v_n * t[:, None] ** (-self.h) * np.exp(-self.a2 * t[:, None])
        sums = theta_sums(self._p_sq, self._p_counts, 4.0 * t, np.log(scale[:, self._widest]))
        return scale * sums[:, None]

    def _b_quad(self, sigmas: np.ndarray) -> tuple[np.ndarray, float]:
        """B at every row and every entry of ``sigmas``, shape (rows x
        sigmas), from one ``quad_gk21`` vector quadrature of t^(sigma-1) R_i(t)
        over (0, t0] (tolerances _QUAD_OPTS), started from the panels of
        ``remainder_breaks``; with no primal point in the window R = 0, and B
        is 0 with error 0 without a quadrature."""
        rows = len(self.shifts)
        if self._p_sq.size == 0:
            return np.zeros((rows, sigmas.size)), 0.0
        powers = sigmas - 1.0

        def integrand(t: np.ndarray) -> np.ndarray:
            return (t[:, None, None] ** powers * self._remainders(t)[:, :, None]).reshape(t.size, -1)

        vals, err = quad_gk21(
            integrand,
            remainder_breaks(self._p_sq, self.t0),
            label=lambda: f"B quadrature on (0, {self.t0}] for sigma in {sigmas.tolist()} at shifts {list(self.shifts)}",
            **_QUAD_OPTS,
        )
        return vals.reshape(rows, sigmas.size), err

    def b_value(self, sigma: float, row: int = 0) -> tuple[float, float]:
        """B(sigma) = int_0^t0 t^(sigma-1) R(t) dt with its error estimate,
        the max-norm estimate of the split's one quadrature over the grid."""
        return float(self.b[row, self._grid_index(sigma)]), self.b_err

    # -- F: spectral sum on [t0, inf) --------------------------------------

    def f_value(self, sigma: float, row: int = 0) -> tuple[float, float]:
        """F(sigma) = sum m int_t0^inf t^(sigma-1) e^(-mu t) dt with an error
        estimate, over the levels with mu t0 <= _EXP_FLOOR.

        Each level integral is mu^(-sigma) Gamma(sigma, mu t0) (DLMF 8.2).
        The terms are positive, and the error estimate allows 1e-13
        relative, above the worst relative error of the grid against mpmath
        for 1e-4 <= mu t0 <= 50 (6.1e-15 up to sigma = 9).
        """
        val = float(self.f[row, self._grid_index(sigma)])
        return val, 1e-13 * val + 1e-22

    # -- assembled quantities ----------------------------------------------

    def _pp_table(self) -> tuple[np.ndarray, np.ndarray]:
        """PP values of zeta_{k,N} at s = r for r = 1..J and their errors,
        each (rows x J), from the A, B and F tables."""
        f = self.f[:, 1:]
        r = np.arange(1, self.order + 1)
        # digamma(r/2) = H_{r/2-1} - gamma at a pole r/2; the residue is 0 elsewhere
        psi = np.array([
            float(harmonic_number(k // 2 - 1)) - EULER_GAMMA if self._a_pole[k] else 0.0 for k in r.tolist()
        ])
        g = np.array([math.gamma(k / 2.0) for k in r.tolist()])
        pp = (self._a_fin[:, 1:] + self.b[:, 1:] + f - self._a_res[:, 1:] * psi) / g
        return pp, (self.b_err + (1e-13 * f + 1e-22)) / g

    def pp_s(self, r: int, row: int = 0) -> tuple[float, float]:
        """PP value of zeta_{k,N} at integer s = r (plain value off poles) in
        row ``row``."""
        if r <= 0:
            raise DomainError("PP values are defined for integer s >= 1")
        i = self._grid_index(r / 2.0) - 1
        return float(self.pp[row, i]), float(self.pp_err[row, i])

    def zeta0(self, row: int = 0) -> float:
        rho, _ = self.a_residue_and_finite(0.0, row)
        return rho

    def zeta_prime0(self, row: int = 0) -> tuple[float, float]:
        rho, fin = self.a_residue_and_finite(0.0, row)
        b, be = self.b_value(0.0, row)
        f, fe = self.f_value(0.0, row)
        m0 = fin + b + f
        return 0.5 * (m0 + EULER_GAMMA * rho), 0.5 * (be + fe)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _k_tail_bound(sl: SpectralSlice, c: float, nu_max: float, order: int) -> float:
    """Weyl-density bound on the dropped K-series tail of ``sl`` beyond nu_max,
    per lattice point; the density is the leading residue Res_{s=n} zeta_k
    of the per-point heat model, the same in every degree."""
    n = sl.cross_section.dim_n
    if nu_max <= abs(c) or order + 1 <= n:
        return math.inf
    dens = theta_heat_coeffs(sl.cross_section, sl.k).residue(n)
    geo = 1.0 / (1.0 - abs(c) / nu_max)
    power = order + 1 - n
    return dens * abs(c) ** (order + 1) / (order + 1) * geo * nu_max ** (-power) / power


def _k_direct(sl: SpectralSlice, shifts: Sequence[float], order: int) -> tuple[list, list]:
    """K(0, c) at subtraction order J = ``order`` over the slice levels
    nu = sqrt(eta + a^2), for c = +a and c = -a at every shift a of
    ``shifts``, and the Weyl bounds on the levels beyond the cutoff: two
    (shifts x 2) lists, sign +1 first.

    Each level's term -log(1+x) - sum_{r<=J} (-x)^r / r, x = c/nu, is finite,
    as nu > |c|.  A level with |x| > 1/2 takes this form as it stands
    (``log1p`` minus the Taylor head by Horner), with an absolute rounding
    error of a few ulps of log 2 however slowly its tail converges.  Every
    other level sums its tail sum_{r>J} (-x)^r / r by Horner to e^-50 of the
    first term of the shift's largest |x| (at most 73 terms), free of the
    cancellation between ``log1p`` and the head.  Both Horner passes run over
    all rows at once.  The two signs of a shift share its near levels and
    its tail length; the rows run in order of descending tail length, and
    each tail step updates the prefix of rows whose tails reach it, so every
    term is the one its row would get alone.
    """
    if sl.eta.size == 0:
        return [[0.0, 0.0] for _ in shifts], [[math.inf, math.inf] for _ in shifts]
    a = np.array(shifts, dtype=float)[:, None]
    nu = np.sqrt(sl.eta + a * a)
    q = a / nu  # y = -c/nu is -q at c = +a and q at c = -a
    x = np.abs(q)
    far = x <= 0.5
    xmax = np.where(far, x, 0.0).max(axis=1).tolist()
    extra = [max(8, int(math.ceil(-_EXP_FLOOR / math.log(max(m, 1e-12))))) for m in xmax]
    # the rows in order of descending extra, so that the tail entries a
    # Horner step reaches are a prefix
    rows = sorted(range(len(shifts)), key=lambda i: -extra[i])
    q, nu, far = q[rows], nu[rows], far[rows]
    y = np.stack([-q, q], axis=1)  # (shift, sign, level)
    far = np.stack([far, far], axis=1)
    near = ~far
    terms = np.empty_like(y)
    # near: -log1p(x) - y sum_{r<=J} y^(r-1) / r
    yn = y[near]
    acc = np.zeros_like(yn)
    for r in range(order, 0, -1):
        acc *= yn
        acc += 1.0 / r
    terms[near] = -np.log1p(-yn) - acc * yn
    # far: sum_{r=J+1}^{J+extra} y^r / r = y^(J+1) sum_j y^j / (J+1+j)
    yf = y[far]
    ends = np.cumsum(far.sum(axis=(1, 2))).tolist()
    tops = [order + extra[i] for i in rows]
    acc = np.zeros_like(yf)
    reached = 0
    for r in range(tops[0], order, -1):
        while reached < len(tops) and tops[reached] >= r:
            reached += 1
        head = acc[: ends[reached - 1]]
        head *= yf[: head.size]
        head += 1.0 / r
    terms[far] = acc * yf ** (order + 1)
    values = [[math.fsum(row) for row in shift] for shift in (terms * sl.counts).tolist()]
    bounds = [
        [_k_tail_bound(sl, c, nu_max, order) for c in (shifts[i], -shifts[i])]
        for i, nu_max in zip(rows, nu[:, -1].tolist())
    ]
    back = sorted(range(len(rows)), key=rows.__getitem__)
    return [values[i] for i in back], [bounds[i] for i in back]


def shifted_zeta0(ms: MellinSplit, sign: int, row: int = 0) -> float:
    """zeta_{k,N}(0, sign*a) = zeta(0) + sum_r ((-c)^r/r) Res_{s=r} zeta at
    the shift a of row ``row`` of the split ``ms``."""
    c = sign * ms.shifts[row]
    return ms.zeta0(row) + math.fsum((-c) ** r / r * ms.heats[row].residue(r) for r in range(1, ms.n + 1))


def shifted_zeta_prime0(ms: MellinSplit, sign: int, row: int = 0) -> tuple[float, float]:
    """zeta'_{k,N}(0, sign*a) with an error estimate, a the shift of row
    ``row`` of the split ``ms``.

    Sums the decomposition once at the split's subtraction order
    J = ``default_order(n)``, the order the slice cutoff is planned for: the
    K series summed directly at order J plus the Mellin terms r <= J, read
    off the split's residue and PP rows.  The result does not depend on
    J, which the test suite checks.
    """
    c = sign * ms.shifts[row]
    zp, zp_err = ms.zeta_prime0(row)
    if c == 0.0:
        return zp, zp_err
    column = 0 if sign > 0 else 1
    kval, kbound = ms.k[row][column], ms.k_bound[row][column]
    terms = []
    errs = [zp_err, min(kbound, 1.0)]
    for r, (res_h, pp_r, pe_r) in enumerate(zip(ms.res_h[row], ms.pp[row].tolist(), ms.pp_err[row].tolist()), start=1):
        terms.append((-c) ** r / r * (res_h + pp_r))
        errs.append(abs(c) ** r / r * pe_r)
    return zp + kval + math.fsum(terms), math.fsum(errs)


@dataclass
class ZetaEval:
    """Continuation artifacts for one degree."""

    residues: Dict[int, float]
    zeta0: float
    zeta_prime0: float
    pp_values: Dict[int, float]
    shifted0: Dict[int, float]
    shifted_prime0: Dict[int, float]
    err: Dict[str, float] = field(default_factory=dict)


def build_zeta_eval(ms: MellinSplit, row: int = 0, weight: int = 1) -> ZetaEval:
    """Assemble every continuation artifact of row ``row`` of the split,
    each value and error estimate times ``weight``, the integer weight of
    the degree the row serves, applied once to the per-point value."""
    n = ms.n
    residues = {r: weight * ms.heats[row].residue(2 * r) for r in range(1, n // 2 + 1)}
    z0 = weight * ms.zeta0(row)
    zp, zp_err = (weight * v for v in ms.zeta_prime0(row))
    pp = {r: [weight * v for v in ms.pp_s(r, row)] for r in range(1, n + 1)}
    shifted0 = {sign: weight * shifted_zeta0(ms, sign, row) for sign in (+1, -1)}
    sp = {sign: [weight * v for v in shifted_zeta_prime0(ms, sign, row)] for sign in (+1, -1)}
    eps = 1e-15
    err = {
        "residues": eps * max((abs(v) for v in residues.values()), default=0.0),
        "zeta0": eps * abs(z0),
        "zeta_prime0": zp_err + eps * abs(zp),
        "pp_values": max(e for _, e in pp.values()),
        "shifted0": eps * max(abs(v) for v in shifted0.values()),
        "shifted_prime0": max(e for _, e in sp.values()),
    }
    values = {r: v for r, (v, _) in pp.items()}
    return ZetaEval(residues, z0, zp, values, shifted0, {sign: v for sign, (v, _) in sp.items()}, err)


def cutoff_for_tolerance(cs: CrossSection, k: int, tol: float, t0: float) -> float:
    """Eigenvalue cutoff so the K-series tail of degree k per lattice point
    at the default order J stays below ``tol``.

    Inverts the Weyl tail bound for the slowest-converging downstream series
    and never returns less than the window needed by the Mellin tail sum of
    a split at ``t0``, nor less than ``cs.first_eta_bound()``, which keeps
    the first level in every slice.
    """
    n = cs.dim_n
    j = default_order(n)
    alpha = abs(float(cs.alpha(k)))
    power = j + 1 - n
    # solved for v in logs: alpha^(J+1) overflows binary64 at high n
    log_base = cs.log_weyl_density() + (j + 1) * math.log(alpha) - math.log((j + 1) * power * tol)
    v = max(2.0 * alpha + 1.0, math.exp(log_base / power))
    for _ in range(3):
        geo = 1.0 / max(1.0 - alpha / v, 0.5)
        v = max(2.0 * alpha + 1.0, math.exp((log_base + math.log(geo)) / power))
    lam = v * v - alpha * alpha
    return max(lam, (_EXP_FLOOR + 5.0) / t0, cs.first_eta_bound())

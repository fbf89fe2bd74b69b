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
have closed forms (E_1, erfc and exp, then an upward recurrence that takes no
power of an array), so the continuation needs numpy and ``math`` alone.
Every kernel a split runs makes a fixed handful of array passes whatever
its convergence depth: E_1 reads a Taylor table built at import, and the K
tail stops at the resolution of binary64.  Values and derivatives at
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
of PP values at s = 1..J, the K series and the Mellin sums of both signs
are all computed when the split is built, each for every row in one
vectorised pass.  Every residue of zeta is ``HeatModel.residue``, here as
in the Res term of the torsion.  Callers build the split with every row it
serves (``torsion.build_splits``) and pass it to its readers; its tables
live on it.

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
# the K tail sums to 2^-53 = e^-36.7 of its first term
_K_TAIL_LOG = 53.0 * math.log(2.0)
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
# QUADPACK's rounding estimate per unit of the rule's absolute sum, and the
# smallest normal double, under which it is dropped
_ROUNDING = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# 1 / ((k+1) (k+1)!): the E_1 power series over x, to below 1e-19 relative at x = 1
_E1_SERIES = [1.0 / ((k + 1) * math.factorial(k + 1)) for k in range(20)]
# ratio of the E_1 Taylor nodes on [1, 64] and the terms kept at each: a
# step is at most sqrt(_E1_RATIO) - 1 = 3.1% of its node, and 0.031^12 < 1e-18
_E1_RATIO = 1.0625
_E1_TERMS = 12


def _gk21_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod-21 of the vector integrand ``f`` on the panels
    [lo_i, hi_i], with QUADPACK's error and rounding estimates in the max
    norm over the integrand's components, and QUADPACK's error estimate of
    each component.  Returns (integrals (panels x components), errors,
    rounding errors, component errors (panels x components))."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    t = c[:, None] + h[:, None] * _GK21_X
    fv = f(t.ravel()).reshape(t.shape + (-1,))
    s_k = np.einsum("j,pjk->pk", _GK21_WK, fv)
    s_g = np.einsum("j,pjk->pk", _GK21_WG, fv[:, 1::2])
    s_abs = _GK21_WK @ np.abs(fv)
    s_dev = _GK21_WK @ np.abs(fv - 0.5 * s_k[:, None, :])
    h = h[:, None]
    # (error, deviation, rounding) x (panel, column): column 0 the max norm
    # over the components, then each component
    est = np.empty((3,) + (s_k.shape[0], s_k.shape[1] + 1))
    np.multiply(s_k - s_g, h, out=est[0, :, 1:])
    np.multiply(s_dev, h, out=est[1, :, 1:])
    np.multiply(_ROUNDING * h, s_abs, out=est[2, :, 1:])
    np.abs(est, out=est)
    est[:, :, 0] = est[:, :, 1:].max(axis=2)
    err, dabs, rounding = est
    # QUADPACK's dabs min(1, (200 err / dabs)^1.5) where both are nonzero
    scaled = (dabs != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, dabs, out=np.ones_like(err), where=scaled)
    np.power(ratio, 1.5, out=ratio)
    np.minimum(ratio, 1.0, out=ratio)
    err = np.where(scaled, np.multiply(ratio, dabs, out=ratio), err)
    err = np.where(rounding > _TINY, np.maximum(err, rounding), err)
    return h * s_k, err[:, 0], rounding[:, 0], err[:, 1:]


def quad_gk21(
    f, breaks, epsabs: float, epsrel: float, limit: int, label: Callable[[], str]
) -> tuple[np.ndarray, np.ndarray]:
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
    only built then, as the quadrature runs on the hot path.  The panels are
    chosen by the max-norm estimates over the components.  Returns the
    integral of every component and each component's own error estimate,
    its QUADPACK estimates summed over the final panels.
    """
    breaks = np.asarray(breaks, dtype=float)
    vals, errs, rounds, comp_errs = _gk21_panels(f, breaks[:-1], breaks[1:])
    total, total_err, round_err = vals.sum(axis=0), float(errs.sum()), float(rounds.sum())
    # heap of (-error, lo, hi, integral, component errors); no two panels
    # share lo, so the arrays are never compared
    panels = [(-float(e), float(a), float(b), v, ce) for e, a, b, v, ce in zip(errs, breaks[:-1], breaks[1:], vals, comp_errs)]
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
        vals, errs, rounds, comp_errs = _gk21_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        halves = len(split)
        for i, (neg_err, a, b, old, _) in enumerate(split):
            left, right = i, i + halves
            total = total + (vals[left] + vals[right] - old)
            total_err += float(errs[left] + errs[right]) + neg_err
            round_err += float(rounds[left] + rounds[right])
            heapq.heappush(panels, (-float(errs[left]), a, float(mid[i]), vals[left], comp_errs[left]))
            heapq.heappush(panels, (-float(errs[right]), float(mid[i]), b, vals[right], comp_errs[right]))
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        if total_err < tol / 8:
            converged = True
            break
        if total_err < round_err or not (math.isfinite(total_err) and math.isfinite(round_err)):
            break
    if not converged:
        from scipy.integrate import IntegrationWarning

        # attributed to the caller of the method that ran the quadrature
        warnings.warn(f"{label()} did not converge: error estimate {total_err + round_err:.3e}", IntegrationWarning, stacklevel=4)
    return total, np.sum([p[4] for p in panels], axis=0)


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
    alpha_max = cs.alpha(0)
    return min(1.0, _T0_VOLUME * cs.volume ** (2.0 / cs.dim_n), A_CAP / (alpha_max * alpha_max))


def primal_window(t0: float) -> float:
    """Largest squared primal norm the lattice remainder on (0, t0] sums over."""
    return 4.0 * t0 * (_EXP_FLOOR + 8.0)


# ---------------------------------------------------------------------------
# Upper incomplete gamma on the half-integer grid
# ---------------------------------------------------------------------------


def _e1_fraction(x: np.ndarray) -> np.ndarray:
    """The tail t of the continued fraction e^x E_1(x) = 1 / (x + t),
    t = 1/(1 + 1/(x + 2/(1 + 2/(x + ...)))) (DLMF 6.9), at every entry of
    x > 1, evaluated backward from depth 20 + 80 / x, taken at the smallest
    such x so that one loop serves them all."""
    # tail = k / (1 + k / (x + tail)) in place: temporaries would cost a
    # third of the loop
    tail = np.zeros(x.shape)
    for k in range(20 + int(80.0 / x.min()), 0, -1):
        tail += x
        np.divide(k, tail, out=tail)
        tail += 1.0
        np.divide(k, tail, out=tail)
    return tail


def _e1_taylor_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x_k = (1 + 1/16)^k covering [1, 64], the geometric midpoints
    between them, and the Taylor coefficients c_j = f^(j)(x_k) / j!,
    j < _E1_TERMS, of f = e^x E_1(x) at every node, shape (terms x nodes).

    f = 1 / (x + t) comes from the continued fraction, and so does
    f' = f - 1/x = -t f / x, which is free of the cancellation of that
    difference; the rest follow from f^(j) = f^(j-1) + (-1)^j (j-1)! / x^j,
    that is c_j = (c_{j-1} + (-1)^j x^-j) / j.  An error in c_1 then enters
    a Taylor sum at step h as (e^h - 1) times itself, below a unit in the
    last place of f, where an error in c_0 carried through the recurrence
    would enter as e^h times itself, up to 7 times at x = 64.
    """
    nodes = [1.0]
    while nodes[-1] < 64.0:
        nodes.append(nodes[-1] * _E1_RATIO)
    x = np.array(nodes)
    tail = _e1_fraction(x)
    f = 1.0 / (x + tail)
    inv = 1.0 / x
    coef = [f, -tail * f * inv]
    power = -inv
    for j in range(2, _E1_TERMS):
        power = power * -inv  # (-1)^j x^-j
        coef.append((coef[-1] + power) / j)
    return x, np.sqrt(x[1:] * x[:-1]), np.array(coef)


def exp1(x: np.ndarray) -> np.ndarray:
    """E_1(x) = int_x^inf e^(-t) dt / t (DLMF 6.2.1) at every entry of x > 0.

    For x <= 1 the power series -gamma - log x + sum_k (-1)^(k+1) x^k / (k k!)
    (DLMF 6.6.2) of SPECFUN's E1XB, summed by Horner from its smallest term
    (near x = 1 the parts cancel to a quarter, and the forward sum is 2.1e-15
    off where Horner stays below 1e-15).  On (1, 64] e^(-x) times the Taylor
    series of e^x E_1 about the nearest node of ``_E1_NODES`` (in ratio), by
    Horner over the _E1_TERMS coefficients tabulated at import
    (``_e1_taylor_table``): the step is at most 3.1% of the node, so the
    dropped terms are below 1e-18 relative, and no depth loop runs.  Above
    64 the continued fraction e^(-x) / (x + t) (``_e1_fraction``), at depth
    20 + 80 / x <= 21.
    """
    x = np.asarray(x, dtype=float)
    small, large = x <= 1.0, x > 64.0
    if not (small.any() or large.any()):
        return _e1_table(x)
    out = np.empty(x.shape)
    if small.any():
        xs = x[small]
        total = np.full(xs.shape, _E1_SERIES[-1])
        for c in _E1_SERIES[-2::-1]:
            total = c - xs * total
        out[small] = -EULER_GAMMA - np.log(xs) + xs * total
    mid = ~(small | large)
    if mid.any():
        out[mid] = _e1_table(x[mid])
    if large.any():
        xl = x[large]
        out[large] = np.exp(-xl) / (xl + _e1_fraction(xl))
    return out


def _e1_table(x: np.ndarray) -> np.ndarray:
    """E_1 at every entry of x in (1, 64]: e^(-x) times the Taylor series
    of e^x E_1 about the nearest node, by Horner."""
    node = np.searchsorted(_E1_BOUNDS, x)
    step = x - _E1_NODES[node]
    coef = _E1_COEF[:, node]
    total = coef[-1].copy()
    for c in coef[-2::-1]:
        total *= step
        total += c
    return np.exp(-x) * total


_E1_NODES, _E1_BOUNDS, _E1_COEF = _e1_taylor_table()


# ---------------------------------------------------------------------------
# Mellin split
# ---------------------------------------------------------------------------


def _a_table(
    heats: list[HeatModel], t0: float, grid: np.ndarray, terms: list[int]
) -> tuple[np.ndarray, np.ndarray, list]:
    """(residues, finite parts) at every (row, grid sigma), and the pole flags
    at every grid sigma, of A(sigma) = int_0^t0 t^(sigma-1) (heat model) dt
    for the heat model of each row, from its coefficients c_j of t^(j-h),
    j < that row's ``terms`` (``HeatModel.coefficient``).

    Term by term A = sum_j c_j t0^d / d with d = sigma + j - h.  A pole,
    d = 0, falls at the integer sigma <= h alone, in every row alike; there
    the residue is c_j and the finite part takes c_j log t0 for that term.
    Each (row, sigma) sum runs through ``math.fsum``, a row's coefficients
    past its own ``terms`` entering as exact zeros; off the poles the finite
    part is A itself.
    """
    width, h = max(terms), heats[0].n // 2
    # HeatModel.coefficient for every row and j at once, bit for bit: the
    # powers (-a^2)^j are Python float powers, which numpy's need not equal
    powers = np.array([[(-heat.alpha * heat.alpha) ** j for j in range(width)] for heat in heats])
    factorials = np.array([float(math.factorial(j)) for j in range(width)])
    coef = heats[0].v_n * powers / factorials
    coef[:, h:] -= powers[:, : width - h] / factorials[: width - h]
    coef[np.arange(width) >= np.array(terms)[:, None]] = 0.0
    coef = coef[:, None, :]
    d = grid[:, None] + (np.arange(width) - h)
    pole = d == 0.0
    safe = np.where(pole, 1.0, d)
    parts = np.where(pole, coef * math.log(t0), coef * t0**safe / safe)
    # at most one pole per row, so each residue is one coefficient exactly
    res = np.where(pole, coef, 0.0).sum(axis=2)
    fin = np.array([[math.fsum(row) for row in shift] for shift in parts.tolist()])
    return res, fin, pole.any(axis=1).tolist()


def _f_table(sl: SpectralSlice, a2: np.ndarray, t0: float, grid: np.ndarray) -> np.ndarray:
    """F at every (row, grid sigma): sum m g_sigma, g_sigma = mu^(-sigma)
    Gamma(sigma, mu t0), mu = eta + a2_i, over row i's levels with
    mu t0 <= _EXP_FLOOR, filled over the (row x level) array at once; each
    row's level sum runs through ``math.fsum`` in sorted order.

    g_0 = E_1(mu t0) and g_(1/2) = sqrt(pi / mu) erfc(sqrt(mu t0)) (DLMF
    8.4.4, 8.4.6); the rest follow from the upward recurrence
    g_(s+1) = (s g_s + t0^s e^(-mu t0)) / mu (DLMF 8.8.2 divided by
    mu^(s+1)), whose terms are all positive, so it loses no accuracy and
    takes no power of an array."""
    mu = sl.eta + a2[:, None]
    keep = mu * t0 <= _EXP_FLOOR
    f_mu = mu[keep]
    f_counts = sl.counts[np.nonzero(keep)[1]]
    # row i's levels are f_mu[ends[i-1]:ends[i]]
    ends = list(itertools.accumulate(keep.sum(axis=1).tolist()))
    x = f_mu * t0
    s = grid[:-2, None]
    # t0^s e^(-mu t0) at s = 0, 1/2, ..., J/2 - 1, t0^s a Python float power
    decays = np.multiply.outer([t0**v for v in s[:, 0].tolist()], np.exp(-x))
    g = np.empty((grid.size, f_mu.size))
    g[0] = exp1(x)
    g[1] = np.sqrt(math.pi / f_mu) * [math.erfc(v) for v in np.sqrt(x).tolist()]
    # rows r, r + 1 from rows r - 2, r - 1: the integer and the half-integer
    # sigma advance together
    for r in range(2, grid.size, 2):
        new = g[r : r + 2]
        src = slice(r - 2, r - 2 + len(new))
        np.multiply(g[src], s[src], out=new)
        new += decays[src]
        new /= f_mu
    terms = g * f_counts
    rows = zip([0] + ends[:-1], ends)
    return np.array([[math.fsum(t) for t in terms[:, a:b].tolist()] for a, b in rows])


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
    lattice remainder on (0, t0], and its error estimates ``b_err``, one per
    (row, sigma) component, come from one globally adaptive Gauss-Kronrod-21
    vector quadrature (absolute tolerance 1e-13, relative 1e-12 in the max
    norm over every component), started from the panels of
    ``remainder_breaks``; each
    refinement round evaluates the remainder at the nodes of all its new
    panels in one ``theta_sums`` pass shared by the rows, and with no primal
    point in the window B is 0.  F, the spectral sum on [t0, inf), is the
    closed form sum m mu^(-sigma) Gamma(sigma, mu t0) (``_f_table``); a
    slice cutoff short of its summation horizon is refused with a
    :class:`CutoffInsufficientError` before any enumeration or quadrature.
    ``pp`` and ``pp_err`` hold the PP values at s = 1..J, ``k`` and
    ``k_bound`` the K series at both signs of every row with its Weyl tail
    bounds (``_k_direct``), ``res_h`` the Res H rows, and ``mellin_sum`` and
    ``mellin_err`` the Mellin part of zeta'(0, +-a) of every row with the
    terms of its error estimate (``_mellin_terms``).  Sums run through
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
        self.mellin_sum, self.mellin_err = self._mellin_terms()

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

    def _b_quad(self, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B at every row and every entry of ``sigmas`` and the error
        estimate of each, both of shape (rows x sigmas), from one
        ``quad_gk21`` vector quadrature of t^(sigma-1) R_i(t) over (0, t0]
        (tolerances _QUAD_OPTS), started from the panels of
        ``remainder_breaks``; with no primal point in the window R = 0, and B
        is 0 with error 0 without a quadrature."""
        rows = len(self.shifts)
        if self._p_sq.size == 0:
            return np.zeros((rows, sigmas.size)), np.zeros((rows, sigmas.size))
        powers = sigmas - 1.0

        def integrand(t: np.ndarray) -> np.ndarray:
            return (t[:, None, None] ** powers * self._remainders(t)[:, :, None]).reshape(t.size, -1)

        vals, errs = quad_gk21(
            integrand,
            remainder_breaks(self._p_sq, self.t0),
            label=lambda: f"B quadrature on (0, {self.t0}] for sigma in {sigmas.tolist()} at shifts {list(self.shifts)}",
            **_QUAD_OPTS,
        )
        return vals.reshape(rows, sigmas.size), errs.reshape(rows, sigmas.size)

    def b_value(self, sigma: float, row: int = 0) -> tuple[float, float]:
        """B(sigma) = int_0^t0 t^(sigma-1) R(t) dt with its error estimate,
        that of its own component of the split's one quadrature."""
        i = self._grid_index(sigma)
        return float(self.b[row, i]), float(self.b_err[row, i])

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
        return pp, (self.b_err[:, 1:] + (1e-13 * f + 1e-22)) / g

    def _mellin_terms(self) -> tuple[list, list]:
        """The Mellin part sum_{r<=J} ((-c)^r / r) (Res_{s=r} zeta H_{r-1} +
        PP zeta(r)) of zeta'(0, c) at c = +a and c = -a of every row, a
        (rows x 2) list, sign +1 first, each summed by ``math.fsum``, and the
        terms |c|^r / r PP error of its error estimate, a (rows x J) list;
        the terms of every row and sign come from one array expression.
        (-c)^r is |a|^r with its sign, and |a|^r a Python float power, which
        numpy's array power need not equal bit for bit."""
        r = np.arange(1, self.order + 1)
        scaled = np.array([[abs(a) ** k for k in r.tolist()] for a in self.shifts]) / r
        odd = r % 2 == 1
        # sign of (-c)^r at c = +a, -a: that of -c at odd r
        signs = np.where(odd, -np.sign(self.shifts)[:, None, None] * np.array([1.0, -1.0])[:, None], 1.0)
        terms = signs * scaled[:, None, :] * (np.array(self.res_h) + self.pp)[:, None, :]
        return [[math.fsum(t) for t in row] for row in terms.tolist()], (scaled * self.pp_err).tolist()

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


def _k_tail_bound(dens: float, n: int, c: float, nu_max: float, order: int) -> float:
    """Weyl-density bound on the dropped K-series tail beyond nu_max, per
    lattice point, in dimension n; the density ``dens`` is the leading
    residue Res_{s=n} zeta_k of the per-point heat model, the same in every
    degree."""
    if nu_max <= abs(c) or order + 1 <= n:
        return math.inf
    geo = 1.0 / (1.0 - abs(c) / nu_max)
    power = order + 1 - n
    return dens * abs(c) ** (order + 1) / (order + 1) * geo * nu_max ** (-power) / power


def _k_tail_terms(x: float) -> int:
    """Terms the Horner tail of ``_k_direct`` sums for a row whose largest
    far |x| is ``x``: to 2^-53 of the first term, the resolution of binary64,
    and at least 8; 53 at x = 1/2."""
    return max(8, math.ceil(_K_TAIL_LOG / -math.log(max(x, 1e-12))))


def _k_direct(sl: SpectralSlice, shifts: Sequence[float], order: int) -> tuple[list, list]:
    """K(0, c) at subtraction order J = ``order`` over the slice levels
    nu = sqrt(eta + a^2), for c = +a and c = -a at every shift a of
    ``shifts``, and the Weyl bounds on the levels beyond the cutoff: two
    (shifts x 2) lists, sign +1 first.

    Each level's term -log(1+x) - sum_{r<=J} (-x)^r / r, x = c/nu, is finite,
    as nu > |c|.  A level with |x| > 1/2 takes this form as it stands
    (``log1p`` minus the Taylor head by Horner), with an absolute rounding
    error of a few ulps of log 2 however slowly its tail converges.  Every
    other level sums its tail sum_{r>J} (-x)^r / r by Horner to 2^-53 of the
    first term of the shift's largest |x| (``_k_tail_terms``, at most 53
    terms), free of the cancellation between ``log1p`` and the head.  Both
    Horner passes run over all rows at once.  The two signs of a shift share
    its near levels and its tail length; the rows run in order of descending
    tail length, and each tail step updates the prefix of rows whose tails
    reach it, so every term is the one its row would get alone.
    """
    if sl.eta.size == 0:
        return [[0.0, 0.0] for _ in shifts], [[math.inf, math.inf] for _ in shifts]
    a = np.array(shifts, dtype=float)[:, None]
    nu = np.sqrt(sl.eta + a * a)
    q = a / nu  # y = -c/nu is -q at c = +a and q at c = -a
    x = np.abs(q)
    far = x <= 0.5
    extra = [_k_tail_terms(m) for m in np.where(far, x, 0.0).max(axis=1).tolist()]
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
    if yn.size:
        acc = np.zeros_like(yn)
        for r in range(order, 0, -1):
            acc *= yn
            acc += 1.0 / r
        terms[near] = -np.log1p(-yn) - acc * yn
    # far: sum_{r=J+1}^{J+extra} y^r / r = y^(J+1) sum_j y^j / (J+1+j)
    yf = y[far]
    ends = np.cumsum(far.sum(axis=(1, 2))).tolist()
    tops = [order + extra[i] for i in rows] + [order]
    acc = np.zeros_like(yf)
    # the steps from tops[i] down to tops[i+1] reach the rows 0..i, whose
    # entries are the prefix acc[:ends[i]]
    for i, end in enumerate(ends):
        head, y_head = acc[:end], yf[:end]
        for r in range(tops[i], tops[i + 1], -1):
            head *= y_head
            head += 1.0 / r
    terms[far] = acc * yf ** (order + 1)
    values = [[math.fsum(row) for row in shift] for shift in (terms * sl.counts).tolist()]
    n = sl.cross_section.dim_n
    dens = theta_heat_coeffs(sl.cross_section, sl.k).residue(n)
    bounds = [
        [_k_tail_bound(dens, n, c, nu_max, order) for c in (shifts[i], -shifts[i])]
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
    off the split's ``k`` and ``mellin_sum`` tables.  The result does not
    depend on J, which the test suite checks.
    """
    zp, zp_err = ms.zeta_prime0(row)
    if sign * ms.shifts[row] == 0.0:
        return zp, zp_err
    column = 0 if sign > 0 else 1
    err = math.fsum([zp_err, min(ms.k_bound[row][column], 1.0), *ms.mellin_err[row]])
    return zp + ms.k[row][column] + ms.mellin_sum[row][column], err


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
    alpha = abs(cs.alpha(k))
    power = j + 1 - n
    # solved for v in logs: alpha^(J+1) overflows binary64 at high n
    log_base = cs.log_weyl_density() + (j + 1) * math.log(alpha) - math.log((j + 1) * power * tol)
    v = max(2.0 * alpha + 1.0, math.exp(log_base / power))
    for _ in range(3):
        geo = 1.0 / max(1.0 - alpha / v, 0.5)
        v = max(2.0 * alpha + 1.0, math.exp((log_base + math.log(geo)) / power))
    lam = v * v - alpha * alpha
    return max(lam, (_EXP_FLOOR + 5.0) / t0, cs.first_eta_bound())

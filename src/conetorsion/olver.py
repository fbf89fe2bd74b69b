"""Exact-rational polynomials for the uniform large-order Bessel expansions.

Everything here is built over ``fractions.Fraction``; floating point enters
only when u_r and v_r are evaluated at a float.  Each table is built once
per process, and the public getters return copies of it.  ``eval_t_poly``,
``m_poly_eval`` and ``z_diff_by_b`` evaluate exactly: each argument is read
as a ``Fraction`` (a float as its exact binary value), and the integer
numerators are summed over one common denominator into a single
``Fraction``.  The uniform expansions evaluate u_r and v_r at a float
through ``eval_uv``, which reads float coefficient lists derived once from
the exact tables.
The module provides

* ``olver_pair(r)``: the coefficient polynomials u_r(t), v_r(t) of the
  large-order (Debye/Olver) expansions of I_nu and K_nu and their
  derivatives (DLMF 10.41.4, 10.41.9),
* ``d_poly(r)``: D_r(t), the order-r coefficient of the formal logarithm of
  the u-series,
* ``m_poly(r)``: M_r(t, a), the order-r coefficient of the formal logarithm
  of the derivative-series with shift parameter a; its coefficient table
  z_{r,b}(a) is exposed through ``z_table``.

Both logarithms follow the recurrence r L_r = r w_r - sum_{j<r} j L_j w_{r-j}
of (1 + S) L' = S', so their tables grow one order at a time.

Key structural facts (asserted in the test suite): D_r and M_r contain only
the powers t^(r+2b) with 0 <= b <= r, each z_{r,b} is a polynomial in the
shift of degree <= r, and M_r(1, a) = D_r(1) - (-a)^r / r.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Tuple

DEFAULT_MAX_ORDER = 12

# A polynomial in t is a dict {t-exponent: Fraction}.
TPoly = Dict[int, Fraction]
# A polynomial in (t, a) is a dict {t-exponent: {a-exponent: Fraction}}.
TAPoly = Dict[int, Dict[int, Fraction]]
# The tables are built in one ring, {(t-exponent, a-exponent): Fraction};
# u_r, v_r and D_r have a-exponent 0.  The getters convert to the forms above.
Poly = Dict[Tuple[int, int], Fraction]

# u_r and v_r at index r, extended one order at a time from u_0 = v_0 = 1
_u_cache: list[Poly] = [{(0, 0): Fraction(1)}]
_v_cache: list[Poly] = [{(0, 0): Fraction(1)}]
# D_r, w_r and M_r at index r, extended one order at a time (index 0 unused)
_d_cache: list = [None]
_w_cache: list = [None]
_m_cache: list = [None]


def _add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _scale(p: Poly, c: Fraction) -> Poly:
    return {e: v * c for e, v in p.items()}


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (t1, a1), c1 in p.items():
        for (t2, a2), c2 in q.items():
            e = (t1 + t2, a1 + a2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _t_poly(p: Poly) -> TPoly:
    """p as {t-exponent: Fraction}, for p free of a."""
    return {t: c for (t, _), c in p.items()}


def _extend_uv(order: int) -> None:
    while len(_u_cache) <= order:
        u = _u_cache[-1]
        # t^2 (1 - t^2) u_r' and t (1 - t^2) u_r
        t2_du = _mul({(2, 0): Fraction(1), (4, 0): Fraction(-1)}, {(t - 1, 0): c * t for (t, _), c in u.items() if t})
        t_u = _mul({(1, 0): Fraction(1), (3, 0): Fraction(-1)}, u)
        # u_{r+1} = t^2 (1 - t^2) u_r' / 2 + (1/8) int_0^t (1 - 5 s^2) u_r ds,
        # the antiderivative with zero constant term (u_r(0) = 0 for r >= 1)
        integrand = _mul({(0, 0): Fraction(1), (2, 0): Fraction(-5)}, u)
        unext = _add(_scale(t2_du, Fraction(1, 2)), {(t + 1, 0): c / (8 * t + 8) for (t, _), c in integrand.items()})
        # v_{r+1} = u_{r+1} - t (1 - t^2) u_r / 2 - t^2 (1 - t^2) u_r'
        _v_cache.append(_add(unext, _add(_scale(t_u, Fraction(-1, 2)), _scale(t2_du, Fraction(-1)))))
        _u_cache.append(unext)


def _check_order(r: int) -> None:
    if r > DEFAULT_MAX_ORDER:
        raise ValueError(f"order {r} exceeds the maximum {DEFAULT_MAX_ORDER}")


def olver_pair(r: int) -> Tuple[TPoly, TPoly]:
    """Return (u_r, v_r) as exact-rational polynomials in t."""
    if r < 0:
        raise ValueError("order must be >= 0")
    _check_order(r)
    _extend_uv(r)
    return _t_poly(_u_cache[r]), _t_poly(_v_cache[r])


def _series_log(coeffs: list, order: int, out: list | None = None) -> list:
    """Order coefficients of log(1 + sum_{r>=1} w_r x^r), truncated at x^order.

    ``coeffs[r]`` is w_r (``coeffs[0]`` unused).  ``out`` (default
    ``[None]``) holds the coefficients L_1, L_2, ... already known at their
    index and is extended in place to index ``order``, one order at a time,
    by the x^(r-1) coefficient of (1 + S) L' = S':
    r L_r = r w_r - sum_{j<r} j L_j w_{r-j}.
    """
    out = [None] if out is None else out
    while len(out) <= order:
        r = len(out)
        acc = dict(coeffs[r])
        for j in range(1, r):
            acc = _add(acc, _scale(_mul(out[j], coeffs[r - j]), Fraction(-j, r)))
        out.append(acc)
    return out


def d_poly(r: int) -> TPoly:
    """Return D_r(t), the order-r coefficient of log of the u-series."""
    if r < 1:
        raise ValueError("order must be >= 1")
    _check_order(r)
    _extend_uv(r)
    return _t_poly(_series_log(_u_cache, r, _d_cache)[r])


def m_poly(r: int) -> TAPoly:
    """Return M_r(t, a) as {t-exponent: {a-exponent: Fraction}}.

    M_r is the order-r coefficient of the formal log of the combined series
    (1 + sum v_j x^j) + a t x (1 + sum u_j x^j), with x the inverse order.
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    _check_order(r)
    _extend_uv(r)
    while len(_w_cache) <= r:
        j = len(_w_cache)
        # w_j = v_j + a * t * u_{j-1}
        _w_cache.append({**_v_cache[j], **{(t + 1, 1): c for (t, _), c in _u_cache[j - 1].items()}})
    out: TAPoly = {}
    for (t, a), c in _series_log(_w_cache, r, _m_cache)[r].items():
        out.setdefault(t, {})[a] = c
    return out


@functools.cache
def _z_table(r: int) -> Dict[int, Dict[int, Fraction]]:
    """The z table of M_r, built once per r and process (see :func:`z_table`)."""
    table: Dict[int, Dict[int, Fraction]] = {}
    for e, ap in m_poly(r).items():
        b, rem = divmod(e - r, 2)
        if rem != 0 or b < 0 or b > r:
            raise AssertionError(f"M_{r} contains unexpected power t^{e}")
        table[b] = ap
    for b in range(r + 1):
        table.setdefault(b, {})
    return table


def z_table(r: int) -> Dict[int, Dict[int, Fraction]]:
    """Coefficient table z_{r,b}(a) of M_r, keyed by b with t-power r+2b."""
    return {b: dict(ap) for b, ap in _z_table(r).items()}


# -- evaluation ------------------------------------------------------------


def _integer_form(p: Dict[int, Fraction]) -> tuple[int, list[int]]:
    """(D, [n_0, ..., n_deg]) with p(x) = sum_e n_e x^e / D in integers."""
    den = math.lcm(*(c.denominator for c in p.values()))
    nums = [0] * (max(p, default=0) + 1)
    for e, c in p.items():
        nums[e] = c.numerator * (den // c.denominator)
    return den, nums


def _scaled_horner(nums: list[int], x: Fraction) -> int:
    """q^deg sum_e nums[e] x^e for x = p/q and deg = len(nums) - 1: an integer."""
    p, q = x.numerator, x.denominator
    acc, q_pow = 0, 1
    for n in reversed(nums):
        acc = acc * p + n * q_pow
        q_pow *= q
    return acc


def _eval_form(form: tuple[int, list[int]], x: Fraction) -> Fraction:
    den, nums = form
    return Fraction(_scaled_horner(nums, x), den * x.denominator ** (len(nums) - 1))


def eval_t_poly(p: TPoly, t) -> Fraction:
    """p(t), exactly."""
    return _eval_form(_integer_form(p), Fraction(t))


@functools.cache
def _uv_floats(r: int) -> tuple[list, list]:
    """(u_r, v_r) as sorted [(t-exponent, float coefficient)] lists."""
    return tuple([(e, float(c)) for e, c in sorted(p.items())] for p in olver_pair(r))


def eval_uv(r: int, t: float) -> tuple[float, float]:
    """(u_r(t), v_r(t)) at a float t, from the float view of the tables:
    sum_e float(c_e) t^e in order of the exponent."""
    u, v = _uv_floats(r)
    return sum(c * t**e for e, c in u), sum(c * t**e for e, c in v)


@functools.cache
def _z_forms(r: int) -> Dict[int, tuple[int, list[int]]]:
    """The rows z_{r,b} of M_r in integer form (:func:`_integer_form`), by b."""
    return {b: _integer_form(ap) for b, ap in sorted(_z_table(r).items())}


def m_poly_eval(r: int, t, a) -> Fraction:
    """M_r(t, a) = sum_b z_{r,b}(a) t^(r+2b), exactly."""
    a = Fraction(a)
    rows = {r + 2 * b: _eval_form(form, a) for b, form in _z_forms(r).items()}
    return eval_t_poly(rows, t)


def z_diff_by_b(r: int, a) -> Dict[int, Fraction]:
    """Per-b differences z_{r,b}(-a) - z_{r,b}(a), exactly."""
    a = Fraction(a)
    return {
        b: Fraction(_scaled_horner(nums, -a) - _scaled_horner(nums, a), den * a.denominator ** (len(nums) - 1))
        for b, (den, nums) in _z_forms(r).items()
    }


@functools.cache
def harmonic_number(m: int) -> Fraction:
    """H_m = sum_{j=1..m} 1/j; equals gamma + digamma(m+1) exactly in the
    rational part, which is how digamma factors enter the residue sums.
    Computed once per m and process."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), start=Fraction(0))

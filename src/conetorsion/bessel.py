"""Modified Bessel functions I_nu, K_nu and their derivatives.

Point evaluation is delegated to scipy.special (AMOS), which handles real
nonnegative order directly; it is imported by the first evaluation, so
importing this module (as ``torsion`` does) loads no scipy.  Derivatives
come from the standard recurrences I'_nu = (I_{nu-1} + I_{nu+1})/2 and
K'_nu = -(K_{nu-1} + K_{nu+1})/2, which hold verbatim for the exponentially
scaled variants since the scaling factor does not depend on the order.  The
uniform large-order (Olver) expansions are built from the u_r/v_r
polynomials in :mod:`conetorsion.olver` (their float view) and return a
truncation estimate alongside the value.  The batched forms
(``modified_bessels``, ``bracket_pairs``) evaluate a whole grid with one
scipy call per function and order; the scalar forms are their one-element
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, first_failure
from .olver import DEFAULT_MAX_ORDER, eval_uv

MAX_ORDER_NU = 1.0e4
MAX_UNSCALED_ARG = 700.0


@dataclass(frozen=True)
class BesselQuad:
    """I_nu, I'_nu, K_nu, K'_nu at one point, optionally e^{-x}/e^{+x} scaled
    (floats), or at every point of a batch (arrays of one shape)."""

    i_val: float
    i_prime: float
    k_val: float
    k_prime: float
    scaled: bool = False


def modified_bessels(nu, x, scaled: bool = False) -> BesselQuad:
    """The quadruple (I, I', K, K') at every entry of the broadcast arrays
    ``nu`` and ``x``, as a :class:`BesselQuad` of arrays of their shape.

    Every entry is checked before any evaluation; the first entry that fails
    a check raises that check's error, naming the entry.  Each scipy function
    then runs once per order (nu - 1, nu, nu + 1) over the whole batch.
    With ``scaled`` the I-entries carry a factor e^{-x} and the K-entries a
    factor e^{+x}, keeping everything representable for large arguments.
    """
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    checks = [  # in the order of precedence on one entry
        (np.isnan(nu) | np.isnan(x), DomainError, "NaN input to modified_bessel"),
        (nu < 0, DomainError, "order must be >= 0"),
        (nu > MAX_ORDER_NU, DomainError, f"order {{nu}} exceeds {MAX_ORDER_NU:.0e}; use uniform_expansion instead"),
        (x <= 0, DomainError, "argument must be > 0"),
        (
            (x > MAX_UNSCALED_ARG) & (not scaled),
            OverflowError,
            "x={x} overflows unscaled K/I in binary64; request scaled values",
        ),
    ]
    failure = first_failure(checks)
    if failure:
        i, err, message = failure
        at = {"nu": float(nu.flat[i]), "x": float(x.flat[i])}
        where = f" (entry {i}: nu={at['nu']}, x={at['x']})" if nu.size > 1 else ""
        raise err(message.format(**at) + where)
    from scipy import special as sp

    iv, kv = (sp.ive, sp.kve) if scaled else (sp.iv, sp.kv)
    i0 = iv(nu, x)
    k0 = kv(nu, x)
    ip = 0.5 * (iv(nu - 1.0, x) + iv(nu + 1.0, x))
    kp = -0.5 * (kv(nu - 1.0, x) + kv(nu + 1.0, x))
    if not scaled:
        finite = np.isfinite(i0) & np.isfinite(ip) & np.isfinite(k0) & np.isfinite(kp)
        if not finite.all():
            i = int(np.argmin(finite.ravel()))
            raise OverflowError(f"modified_bessel overflowed at nu={float(nu.flat[i])}, x={float(x.flat[i])}")
    return BesselQuad(i0, ip, k0, kp, scaled)


def modified_bessel(nu: float, x: float, scaled: bool = False) -> BesselQuad:
    """The quadruple (I, I', K, K') at order ``nu`` and argument ``x``: the
    one-element case of :func:`modified_bessels`, as floats."""
    q = modified_bessels(nu, x, scaled)
    return BesselQuad(float(q.i_val), float(q.i_prime), float(q.k_val), float(q.k_prime), scaled)


def small_argument_leading(nu: float, z: float) -> BesselQuad:
    """Leading small-argument forms: I ~ z^nu/(2^nu Gamma(nu+1)),
    K ~ 2^(nu-1) Gamma(nu) z^(-nu), and the matching derivative forms."""
    if nu <= 0:
        raise DomainError("small_argument_leading requires nu > 0 (nu = 0 is the log case)")
    if z <= 0:
        raise DomainError("argument must be > 0")
    log_i = nu * math.log(z) - nu * math.log(2.0) - math.lgamma(nu + 1.0)
    log_k = (nu - 1.0) * math.log(2.0) + math.lgamma(nu) - nu * math.log(z)
    if max(abs(log_i), abs(log_k)) > 700.0:
        raise OverflowError("leading terms overflow binary64 at these (nu, z)")
    i_val = math.exp(log_i)
    k_val = math.exp(log_k)
    return BesselQuad(
        i_val=i_val,
        i_prime=i_val * nu / z,
        k_val=k_val,
        k_prime=-k_val * nu / z,
        scaled=False,
    )


_KINDS = ("I", "Iprime", "K", "Kprime")


def uniform_expansion(kind: str, nu: float, z: float, n_terms: int) -> tuple[float, float]:
    """Olver's uniform large-order expansion at argument ``nu * z``.

    Returns ``(value, truncation_estimate)``.  ``n_terms`` counts the series
    terms including the leading 1: the value sums the orders r < n_terms.
    The estimate is twice the magnitude of the first two omitted orders,
    n_terms and n_terms + 1, which on the tested ranges dominates the actual
    truncation error; at n_terms = DEFAULT_MAX_ORDER, where the order after
    it is not tabulated, the last order counts twice instead.
    """
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}")
    if nu < 20:
        raise DomainError("uniform_expansion requires nu >= 20")
    if z <= 0:
        raise DomainError("argument must be > 0")
    if n_terms < 1 or n_terms > DEFAULT_MAX_ORDER:
        raise DomainError(f"n_terms must lie in 1..{DEFAULT_MAX_ORDER}")
    t = 1.0 / math.sqrt(1.0 + z * z)
    xi = 1.0 / t + math.log(z / (1.0 + 1.0 / t))
    quarter = (1.0 + z * z) ** 0.25
    # pick: which of (u_r, v_r) the series sums, u for values, v for derivatives
    if kind == "I":
        log_pref = nu * xi - 0.5 * math.log(2.0 * math.pi * nu)
        pref = math.exp(log_pref) / quarter
        pick, sign = 0, 1.0
    elif kind == "Iprime":
        log_pref = nu * xi - 0.5 * math.log(2.0 * math.pi * nu)
        pref = math.exp(log_pref) * quarter / z
        pick, sign = 1, 1.0
    elif kind == "K":
        log_pref = -nu * xi + 0.5 * math.log(math.pi / (2.0 * nu))
        pref = math.exp(log_pref) / quarter
        pick, sign = 0, -1.0
    else:  # Kprime
        log_pref = -nu * xi + 0.5 * math.log(math.pi / (2.0 * nu))
        pref = -math.exp(log_pref) * quarter / z
        pick, sign = 1, -1.0
    if abs(nu * xi) > 700.0:
        raise OverflowError("uniform expansion prefactor overflows; rescale first")
    series = 1.0
    for r in range(1, n_terms):
        series += eval_uv(r, t)[pick] / (sign * nu) ** r
    omitted = 0.0
    for r in (n_terms, min(n_terms + 1, DEFAULT_MAX_ORDER)):
        omitted += abs(eval_uv(r, t)[pick]) / nu**r
    return pref * series, 2.0 * abs(pref) * omitted


def wronskian_residual(nu, x):
    """Relative defect of K_nu(x) I'_nu(x) - K'_nu(x) I_nu(x) = 1/x, at every
    entry of the broadcast arrays ``nu`` and ``x`` (a float for scalars).

    Evaluated from scaled values so the identity can be probed far into the
    exponential regime without overflow.
    """
    x = np.asarray(x, dtype=float)
    q = modified_bessels(nu, x, scaled=True)
    w = q.k_val * q.i_prime - q.k_prime * q.i_val
    return (np.abs(w - 1.0 / x) * x)[()]


def bracket_pairs(nu, w, a) -> tuple[np.ndarray, np.ndarray]:
    """Scaled boundary brackets (w I'_nu(w) + a I_nu(w), w K'_nu(w) + a K_nu(w))
    at every entry of the broadcast arrays ``nu``, ``w`` and ``a``.

    The I-bracket carries e^{-w}, the K-bracket e^{+w}; these are the building
    blocks of the model-operator determinant ratios.
    """
    nu, w, a = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (nu, w, a)))
    q = modified_bessels(nu, w, scaled=True)
    return w * q.i_prime + a * q.i_val, w * q.k_prime + a * q.k_val


def bracket_pair(nu: float, w: float, a: float) -> tuple[float, float]:
    """The brackets of :func:`bracket_pairs` at one point, as floats."""
    ib, kb = bracket_pairs(nu, w, a)
    return float(ib), float(kb)

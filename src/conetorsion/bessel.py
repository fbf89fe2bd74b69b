"""Modified Bessel functions I_nu, K_nu and their derivatives.

Point evaluation is delegated to scipy.special (AMOS), which handles real
nonnegative order directly; it is imported by the first evaluation, so
importing this module (as ``torsion`` does) loads no scipy.  Derivatives
come from the standard recurrences I'_nu = (I_{nu-1} + I_{nu+1})/2 and
K'_nu = -(K_{nu-1} + K_{nu+1})/2, which hold verbatim for the exponentially
scaled variants since the scaling factor does not depend on the order.  The
uniform large-order (Olver) expansions are built from the exact u_r/v_r
polynomials in :mod:`conetorsion.olver` and return a truncation estimate
alongside the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .olver import DEFAULT_MAX_ORDER, eval_t_poly, olver_pair

MAX_ORDER_NU = 1.0e4
MAX_UNSCALED_ARG = 700.0


@dataclass(frozen=True)
class BesselQuad:
    """I_nu, I'_nu, K_nu, K'_nu at one point, optionally e^{-x}/e^{+x} scaled."""

    i_val: float
    i_prime: float
    k_val: float
    k_prime: float
    scaled: bool = False


def modified_bessel(nu: float, x: float, scaled: bool = False) -> BesselQuad:
    """Evaluate the quadruple (I, I', K, K') at order ``nu`` and argument ``x``.

    With ``scaled`` the I-entries carry a factor e^{-x} and the K-entries a
    factor e^{+x}, keeping everything representable for large arguments.
    """
    if math.isnan(nu) or math.isnan(x):
        raise DomainError("NaN input to modified_bessel")
    if nu < 0:
        raise DomainError("order must be >= 0")
    if nu > MAX_ORDER_NU:
        raise DomainError(
            f"order {nu} exceeds {MAX_ORDER_NU:.0e}; use uniform_expansion instead"
        )
    if x <= 0:
        raise DomainError("argument must be > 0")
    if not scaled and x > MAX_UNSCALED_ARG:
        raise OverflowError(
            f"x={x} overflows unscaled K/I in binary64; request scaled values"
        )
    from scipy import special as sp

    if scaled:
        iv = sp.ive
        kv = sp.kve
    else:
        iv = sp.iv
        kv = sp.kv
    i0 = float(iv(nu, x))
    k0 = float(kv(nu, x))
    ip = 0.5 * (float(iv(nu - 1.0, x)) + float(iv(nu + 1.0, x)))
    kp = -0.5 * (float(kv(nu - 1.0, x)) + float(kv(nu + 1.0, x)))
    if not scaled and not all(map(math.isfinite, (i0, ip, k0, kp))):
        raise OverflowError(f"modified_bessel overflowed at nu={nu}, x={x}")
    return BesselQuad(i0, ip, k0, kp, scaled)


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

    Returns ``(value, truncation_estimate)``.  The estimate is built from the
    magnitude of the first omitted term (plus the next, doubled), which on
    the tested ranges dominates the actual truncation error.  ``n_terms``
    counts the series terms beyond the leading 1.
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
    if kind == "I":
        log_pref = nu * xi - 0.5 * math.log(2.0 * math.pi * nu)
        pref = math.exp(log_pref) / quarter
        use_u, sign = True, 1.0
    elif kind == "Iprime":
        log_pref = nu * xi - 0.5 * math.log(2.0 * math.pi * nu)
        pref = math.exp(log_pref) * quarter / z
        use_u, sign = False, 1.0
    elif kind == "K":
        log_pref = -nu * xi + 0.5 * math.log(math.pi / (2.0 * nu))
        pref = math.exp(log_pref) / quarter
        use_u, sign = True, -1.0
    else:  # Kprime
        log_pref = -nu * xi + 0.5 * math.log(math.pi / (2.0 * nu))
        pref = -math.exp(log_pref) * quarter / z
        use_u, sign = False, -1.0
    if abs(nu * xi) > 700.0:
        raise OverflowError("uniform expansion prefactor overflows; rescale first")
    series = 1.0
    for r in range(1, n_terms):
        ur, vr = olver_pair(r)
        cr = eval_t_poly(ur if use_u else vr, t)
        series += float(cr) / (sign * nu) ** r
    omitted = 0.0
    for r in (n_terms, min(n_terms + 1, DEFAULT_MAX_ORDER)):
        ur, vr = olver_pair(r)
        omitted += abs(float(eval_t_poly(ur if use_u else vr, t))) / nu**r
    return pref * series, 2.0 * abs(pref) * omitted


def wronskian_residual(nu: float, x: float) -> float:
    """Relative defect of K_nu(x) I'_nu(x) - K'_nu(x) I_nu(x) = 1/x.

    Evaluated from scaled values so the identity can be probed far into the
    exponential regime without overflow.
    """
    q = modified_bessel(nu, x, scaled=True)
    w = q.k_val * q.i_prime - q.k_prime * q.i_val
    return abs(w - 1.0 / x) * x


def bracket_pair(nu: float, w: float, a: float) -> tuple[float, float]:
    """Scaled boundary brackets (w I'_nu(w) + a I_nu(w), w K'_nu(w) + a K_nu(w)).

    The I-bracket carries e^{-w}, the K-bracket e^{+w}; these are the building
    blocks of the model-operator determinant ratios.
    """
    q = modified_bessel(nu, w, scaled=True)
    return w * q.i_prime + a * q.i_val, w * q.k_prime + a * q.k_val


"""Scalar reference forms of the verify oracles, which only tests call.

The first-order theta function is rebuilt here from a ``FirstOrderZeta``'s
own model terms and geometry sums, with the remainder as one scalar numpy
sum per node and scipy ``quad`` for the subordination integral: the nested
form that the production ``_b1_value`` swaps and vectorises.  The full-cone
Gelfand-Yaglom shooting oracle checks ``model_det_ratio`` on the full cone.
The Ray-Singer quotient of the product metric checks the torsion assembly.
The Mellin split's B and F, which production fills on the half-integer grid
alone, are rebuilt here at any sigma by scalar quadrature (one for B, one
per level for F), and with production A they continue zeta off that grid.
The scalar loops that the batched verify layers replaced are kept here as
references for them: the per-point scipy Bessel quadruple, the per-entry
closed-form determinant ratio, the per-draw Wronskian sampling and the
Fraction-by-Fraction polynomial sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from conetorsion import zeta
from conetorsion.errors import DomainError
from conetorsion.firstorder import _HORIZON, _QUAD
from conetorsion.torsion import _integrate_model_ode, top_term, tors_term


def second_order_remainder(fo, u: float) -> float:
    """R(u) = kappa e^{-a^2 u} (theta_L(u) - V_n u^{-h}), exact both ways."""
    if u <= 0:
        return 0.0
    if u <= fo._u_c:
        expo = fo._p_sq / (4.0 * u)
        s_p = float(np.sum(np.exp(-np.minimum(expo, 745.0)) * fo._p_counts))
        return fo.kappa * fo.v_n * u ** (-fo.h) * math.exp(-fo.a2 * u) * s_p
    dual = 1.0 + float(np.sum(np.exp(-np.minimum(fo._eta * u, 745.0)) * fo._counts))
    return fo.kappa * math.exp(-fo.a2 * u) * (dual - fo.v_n * u ** (-fo.h))


def model_theta(fo, t: float) -> float:
    decay = math.exp(-fo.alpha_abs * t)
    return decay * sum(term.coef * t**term.power for term in fo._model)


def remainder_theta(fo, t: float) -> float:
    """R1(t): subordinated transform of the second-order remainder."""
    if t <= 0:
        return 0.0

    def integrand(u: float) -> float:
        return u**-1.5 * math.exp(-t * t / (4.0 * u)) * second_order_remainder(fo, u)

    v1, _ = integrate.quad(integrand, 0.0, fo._u_c, **_QUAD)
    v2, _ = integrate.quad(integrand, fo._u_c, fo._u_upper, **_QUAD)
    return t / (2.0 * math.sqrt(math.pi)) * (v1 + v2)


def b_ref(ms, sigma: float) -> float:
    """B(sigma) of the Mellin split ``ms`` by one scalar adaptive quadrature."""
    return integrate.quad(
        lambda t: t ** (sigma - 1.0) * ms._remainder(t), 0.0, ms.t0, **zeta._QUAD_OPTS
    )[0]


def f_ref(ms, sigma: float) -> float:
    """F(sigma) of the Mellin split ``ms`` by one scalar adaptive quadrature
    per level."""
    vals = []
    for mu, m in zip(ms._f_mu, ms._f_mult):
        upper = ms.t0 + (zeta._EXP_FLOOR + 10.0) / mu
        v, _ = integrate.quad(
            lambda t: t ** (sigma - 1.0) * math.exp(-mu * t), ms.t0, upper, **zeta._QUAD_OPTS
        )
        vals.append(float(m) * v)
    return math.fsum(vals)


def continued_zeta(ms, s: float) -> float:
    """zeta_{k,N}(s) = (A + B + F)(s/2) / Gamma(s/2) at any s off the poles:
    production A, and B and F by ``b_ref`` and ``f_ref``."""
    sigma = 0.5 * s
    return (ms.a_value(sigma) + b_ref(ms, sigma) + f_ref(ms, sigma)) / math.gamma(sigma)


def theta(fo, t: float) -> float:
    """First-order theta sum m(eta) exp(-(nu + c) t) via subordination."""
    return math.exp(-fo.c * t) * (model_theta(fo, t) + remainder_theta(fo, t))


def theta_direct(fo, cs, t: float) -> float:
    """Direct spectral sum over the cross-section ``cs`` of ``fo``'s slice,
    with its own adequate enumeration window."""
    nu_need = (_HORIZON + 8.0) / t
    eta, counts = cs.lattice_eta_levels(cutoff=nu_need * nu_need)
    nu = np.sqrt(eta + fo.a2)
    return float(np.sum(counts * fo.kappa * np.exp(-(nu + fo.c) * t)))


def gy_full_cone_oracle(spec, z: float, x_start: float = 0.3, terms: int = 60) -> float:
    """Shooting oracle for the full-cone ratios.

    Starts from the regular Frobenius solution x^{nu+1/2} sum a_j x^{2j} of
    the model equation (recursion a_j = w^2 a_{j-1} / (4 j (j + nu)), derived
    from the ODE itself), integrates to x = 1, and applies the Robin
    functional; the z = 0 reference is the exact power solution.
    """
    if spec.kind not in ("psi_full", "phi_full"):
        raise DomainError("full-cone oracle handles psi_full/phi_full only")
    if z == 0.0:
        return 1.0
    nu = spec.nu
    beta = spec.robin_beta
    w = nu * z
    coeffs = [1.0]
    for j in range(1, terms):
        coeffs.append(coeffs[-1] * w * w / (4.0 * j * (j + nu)))
    x2 = x_start * x_start
    series = 0.0
    dseries = 0.0
    for j in reversed(range(terms)):
        series = series * x2 + coeffs[j]
        dseries = dseries * x2 + coeffs[j] * 2 * j
    f0 = series
    fp0 = (nu + 0.5) / x_start * series + dseries / x_start
    f1, fp1 = (float(v[0]) for v in _integrate_model_ode(nu, w * w, x_start, 1.0, f0, fp0))
    num = fp1 + beta * f1
    den = (nu + 0.5 + beta) * x_start ** -(nu + 0.5)
    return num / den


def rs_norm_product_metric(cs, params=None) -> float:
    """Log Ray-Singer quotient for the product-near-boundary metric: Top + Tors."""
    return top_term(cs) + tors_term(cs, params).value


def modified_bessel_reference(nu: float, x: float, scaled: bool = False) -> tuple[float, float, float, float]:
    """(I, I', K, K') at one point from six one-element scipy calls."""
    iv, kv = (special.ive, special.kve) if scaled else (special.iv, special.kv)
    i0 = float(iv(nu, x))
    k0 = float(kv(nu, x))
    ip = 0.5 * (float(iv(nu - 1.0, x)) + float(iv(nu + 1.0, x)))
    kp = -0.5 * (float(kv(nu - 1.0, x)) + float(kv(nu + 1.0, x)))
    return i0, ip, k0, kp


def _bracket_pair_reference(nu: float, w: float, a: float) -> tuple[float, float]:
    i0, ip, k0, kp = modified_bessel_reference(nu, w, scaled=True)
    return w * ip + a * i0, w * kp + a * k0


def model_det_ratio_reference(spec, z: float) -> float:
    """The closed-form determinant ratio of one (spec, z), in math-module
    log space, for 0 < z and nu > |alpha|."""
    nu, alpha, s = spec.nu, spec.alpha, spec.bracket_sign
    w = nu * z
    ib_w, kb_w = _bracket_pair_reference(nu, w, s * alpha)
    if not spec.truncated:
        return math.exp(
            nu * math.log(2.0)
            + math.lgamma(nu)
            - nu * math.log(w)
            + w
            + math.log(ib_w)
            - math.log(1.0 + s * alpha / nu)
        )
    eps = spec.eps
    we = w * eps
    ib_we, kb_we = _bracket_pair_reference(nu, we, s * alpha)
    r_s = (kb_w / ib_w) * (ib_we / kb_we) * math.exp(-2.0 * w * (1.0 - eps))
    return math.exp(
        w
        + math.log(ib_w)
        - we
        + math.log(-kb_we)
        + math.log(2.0 * nu)
        + math.log1p(-r_s)
        - math.log(nu * nu - alpha * alpha)
        - (nu * math.log(1.0 / eps) + math.log1p(-(eps ** (2.0 * nu))))
    )


def wronskian_draws_reference() -> list[tuple[float, float]]:
    """The (nu, x) pairs of the verify wronskian check, one uniform per call."""
    rng = np.random.default_rng(20240901)
    return [(rng.uniform(0.0, 50.0), rng.uniform(0.1, 50.0)) for _ in range(100)]


def eval_poly_reference(p: dict, x):
    """sum_e c_e x^e as a sum of Fraction products, in order of the exponent."""
    return sum((c * x**e for e, c in sorted(p.items())), start=x * 0)

"""Scalar reference forms of the verify oracles, which only tests call.

The first-order theta function is rebuilt here from a ``FirstOrderZeta``'s
own model terms and geometry sums, with the remainder as one scalar numpy
sum per node and scipy ``quad`` for the subordination integral: the nested
form that the production ``_b1_value`` swaps and vectorises.  The full-cone
Gelfand-Yaglom shooting oracle checks ``model_det_ratio`` on the full cone.
The Ray-Singer quotient of the product metric checks the torsion assembly.
The Mellin split's A, B and F, which production tabulates on the
half-integer grid alone, are rebuilt here at any sigma: A as the term-by-term
integral of the heat model times its exponential series, B and F by scalar
quadrature (one for B, one per level for F); together they continue zeta
off that grid.
The scalar loops that the batched verify layers replaced are kept here as
references for them: the per-point scipy Bessel quadruple, the per-entry
closed-form determinant ratio, the per-draw Wronskian sampling, the
Fraction-by-Fraction polynomial sum, the scalar lattice remainder of the
Mellin split, and the formal logarithm of the Olver series by powers of
its argument, which the recurrence of ``olver._series_log`` replaced.  The cross-section references are here too: a slice's
heat expansion and Weyl count with their error bounds, and the brute-force
Hodge Laplacian on a truncated Fourier basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy import integrate, special
from scipy.linalg import eigh, null_space

from conetorsion import zeta
from conetorsion.crosssection import CrossSection, _ball_volume
from conetorsion.errors import DomainError, ZetaPoleError
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


def remainder_ref(ms, t: float) -> float:
    """R(t) = scale * sum m e^{-|p|^2/(4t)} of the Mellin split ``ms`` at one
    node, over the prefix of the sorted primal norms whose terms
    scale * e^{-|p|^2/(4t)} reach e^{-_REMAINDER_CUT}; 0 for t <= 0."""
    if t <= 0.0:
        return 0.0
    scale = ms.kappa * ms.v_n * t ** (-ms.h) * math.exp(-ms.a2 * t)
    horizon = 4.0 * t * (zeta._REMAINDER_CUT + math.log(scale))
    m = int(np.searchsorted(ms._p_sq, horizon, side="right"))
    if m == 0:
        return 0.0
    vals = np.exp(-ms._p_sq[:m] / (4.0 * t)) * ms._p_counts[:m]
    return scale * float(vals.sum())


def b_ref(ms, sigma: float) -> float:
    """B(sigma) of the Mellin split ``ms`` by one scalar adaptive quadrature."""
    return integrate.quad(
        lambda t: t ** (sigma - 1.0) * remainder_ref(ms, t), 0.0, ms.t0, **zeta._QUAD_OPTS
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


def a_ref(ms, sigma: float) -> float:
    """A(sigma) of the Mellin split ``ms`` at any sigma off its poles: the heat
    model kappa (V_n t^{-h} - 1) times the exponential series of
    e^{-alpha^2 t}, integrated over (0, t0] term by term and summed in order.
    The series is cut h + 4 terms past the first term (alpha^2 t0)^i / i!
    below 1e-24."""
    x = ms.a2 * ms.t0
    terms = 8
    while x**terms / math.factorial(terms) > 1e-24 and terms < 400:
        terms += 1
    total = 0.0
    for i in range(terms + ms.h + 4):
        c = (-ms.a2) ** i / math.factorial(i)
        for coef, q in ((ms.kappa * ms.v_n * c, i - ms.h), (-ms.kappa * c, i)):
            d = sigma + q
            if abs(d) < 1e-13:
                raise ZetaPoleError(f"sigma={sigma} hits a heat-expansion pole")
            total += coef * ms.t0**d / d
    return total


def continued_zeta(ms, s: float) -> float:
    """zeta_{k,N}(s) = (A + B + F)(s/2) / Gamma(s/2) at any s off the poles,
    with A, B and F by ``a_ref``, ``b_ref`` and ``f_ref``."""
    sigma = 0.5 * s
    return (a_ref(ms, sigma) + b_ref(ms, sigma) + f_ref(ms, sigma)) / math.gamma(sigma)


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


def series_log_powers(coeffs: list, order: int, mul, scale, add) -> list:
    """Order coefficients of log(1 + S), S = sum_{r>=1} w_r x^r truncated at
    x^order, from log(1 + S) = sum_j (-1)^(j+1) S^j / j with the powers of S
    built one product at a time; ``coeffs[r]`` is w_r (``coeffs[0]``
    unused) and the ring is abstracted as in ``olver._series_log``."""
    out = [None] + [dict() for _ in range(order)]
    power = [None] + [coeffs[r] for r in range(1, order + 1)]  # S^1 truncated
    sign = Fraction(1)
    for j in range(1, order + 1):
        for r in range(j, order + 1):
            out[r] = add(out[r], scale(power[r], sign / j))
        if j == order:
            break
        sign = -sign
        # power <- power * S, truncated
        new = [None] + [dict() for _ in range(order)]
        for r1 in range(j, order + 1):
            for r2 in range(1, order - r1 + 1):
                new[r1 + r2] = add(new[r1 + r2], mul(power[r1], coeffs[r2]))
        power = new
    return out


def eval_poly_reference(p: dict, x):
    """sum_e c_e x^e as a sum of Fraction products, in order of the exponent."""
    return sum((c * x**e for e, c in sorted(p.items())), start=x * 0)



def truncated_expansion(sl, t: float) -> float:
    """The heat expansion of the slice ``sl`` through order t^{n/2}."""
    return sum(c * t**p for c, p in zip(sl.heat.coefficients, sl.heat.powers))


def model_part(sl, t: float) -> float:
    """kappa (V_n t^{-n/2} - 1) e^{-alpha^2 t}, the un-truncated heat model of ``sl``."""
    hm = sl.heat
    return hm.kappa * (hm.v_n * t ** (-hm.n / 2.0) - 1.0) * math.exp(-hm.alpha**2 * t)


def series_remainder_bound(sl, t: float) -> float:
    """Bound for the dropped exponential-series tail of the heat expansion of
    ``sl`` beyond order t^{n/2}."""
    hm = sl.heat
    h, a2t = hm.n // 2, hm.alpha * hm.alpha * t
    lead = hm.v_n * t ** (-h) * a2t ** (hm.n + 1) / math.factorial(hm.n + 1)
    return hm.kappa * (lead + a2t ** (h + 1) / math.factorial(h + 1)) * math.exp(a2t)


def heat_remainder_bound(sl, t: float) -> float:
    """Bound for |Theta_k(t) - truncated expansion| of ``sl``: the series tail
    plus the lattice remainder kappa V_n t^{-n/2} e^{-alpha^2 t} S_P(t), which
    is exponentially small as t -> 0 but order one at t ~ 1."""
    sq, counts = sl.cross_section.primal_norms(max_sq=4.0 * t * 60.0)
    s_p = float(np.sum(np.exp(-sq / (4.0 * t)) * counts)) if sq.size else 0.0
    lattice = sl.kappa * sl.heat.v_n * t ** (-sl.heat.n / 2.0) * math.exp(-sl.alpha**2 * t) * s_p
    return series_remainder_bound(sl, t) + lattice * (1.0 + 1e-9) + 1e-15


def weyl_constant(sl) -> float:
    """c_W in the Weyl count c_W lam^{n/2} = kappa Vol lam^{n/2} / ((4 pi)^{n/2} Gamma(n/2+1))."""
    n = sl.cross_section.dim_n
    return sl.kappa * sl.cross_section.volume / ((4.0 * math.pi) ** (n / 2.0) * math.gamma(n / 2.0 + 1.0))


def expected_count(sl, cutoff: float) -> float:
    """The Weyl count of the levels of ``sl`` up to ``cutoff``."""
    return weyl_constant(sl) * cutoff ** (sl.cross_section.dim_n / 2.0)


def count_bound(sl, cutoff: float) -> float:
    """Bound on |count - expected_count|: the lattice points within one dual
    cell diameter d of the sphere, kappa Vol omega_n ((r + d)^n - (r - d)^n) + kappa."""
    cs = sl.cross_section
    r = math.sqrt(max(cutoff, 0.0)) / (2.0 * math.pi)
    d = float(np.sum(np.linalg.norm(cs.dual_basis(), axis=0)))
    shell = (r + d) ** cs.dim_n - max(r - d, 0.0) ** cs.dim_n
    return sl.kappa * cs.volume * _ball_volume(cs.dim_n) * shell + sl.kappa


class EigenLevel(NamedTuple):
    eta: float
    mult: int


def _ext_matrix(w: np.ndarray, k: int) -> np.ndarray:
    """Matrix of exterior multiplication by the covector w on k-forms."""
    n = w.size
    row_index = {subset: i for i, subset in enumerate(combinations(range(n), k + 1))}
    mat = np.zeros((len(row_index), math.comb(n, k)))
    for ci, subset in enumerate(combinations(range(n), k)):
        for j in sorted(set(range(n)) - set(subset)):
            merged = tuple(sorted(subset + (j,)))
            mat[row_index[merged], ci] += (-1) ** merged.index(j) * w[j]
    return mat


MAX_BRUTE_MODES = 40000


def brute_force_form_laplacian(cs: CrossSection, k: int, fourier_cutoff: int) -> list[EigenLevel]:
    """Independent oracle: diagonalize the Hodge Laplacian on a truncated
    Fourier x Lambda^k basis (|m_i| <= ``fourier_cutoff``) and keep the
    coclosed nonzero spectrum.  For each m the Laplacian block is assembled
    from exterior multiplication by the dual covector and its transpose,
    restricted to the kernel of the codifferential block and diagonalized
    with ``eigh``."""
    n = cs.dim_n
    if k < 0 or k > n - 1:
        raise DomainError(f"degree k={k} outside 0..{n - 1}")
    if fourier_cutoff < 1 or fourier_cutoff > 6:
        raise DomainError("fourier_cutoff must lie in 1..6 (dense diagonalization)")
    total_modes = (2 * fourier_cutoff + 1) ** n * math.comb(n, k)
    if total_modes > MAX_BRUTE_MODES:
        raise DomainError(f"truncated basis has {total_modes} modes (> {MAX_BRUTE_MODES}); reduce the cutoff")
    dual = cs.dual_basis()
    grids = np.meshgrid(*[np.arange(-fourier_cutoff, fourier_cutoff + 1)] * n, indexing="ij")
    eigs: list[float] = []
    for m in np.stack([g.ravel() for g in grids], axis=1):
        if not np.any(m):
            continue
        w = 2.0 * math.pi * (dual @ m.astype(float))
        ek = _ext_matrix(w, k)  # d_k block / i
        ekm1 = _ext_matrix(w, k - 1) if k >= 1 else np.zeros((math.comb(n, k), 1))
        lap = ek.T @ ek + ekm1 @ ekm1.T
        coclosed_basis = null_space(ekm1.T) if k >= 1 else np.eye(math.comb(n, k))
        if coclosed_basis.shape[1] == 0:
            continue
        vals = eigh(coclosed_basis.T @ lap @ coclosed_basis, eigvals_only=True)
        eigs.extend(float(v) for v in vals if v > 1e-10)
    vals, counts = CrossSection._group(np.sort(np.asarray(eigs)))
    return [EigenLevel(float(v), int(c) * cs.bundle_rank) for v, c in zip(vals, counts)]

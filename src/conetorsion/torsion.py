"""Assembly of the analytic-torsion terms and the model-operator surfaces.

The log torsion of the bounded cone over a cross-section N splits into

    log T = Top + Tors + Res,

where Top is a Betti-number combination, Tors is the torsion-like invariant
built from shifted zeta derivatives at zero, and Res is minus half the
boundary anomaly integral, expressed through residues of the slice zeta
functions and the z_{2r,b} coefficient differences.  The digamma factors
Gamma'(b+r)/Gamma(b+r) = H_{b+r-1} - gamma enter only through sums in which
the gamma parts cancel exactly (the even-order z-differences sum to zero);
the implementation keeps that cancellation exact by working with harmonic
numbers as rationals.

The module also provides the truncated-cone torsion, the closed-form
difference between truncated and full cone, the one-dimensional model
operator determinant ratios in Bessel form together with their
Gelfand-Yaglom ODE oracle, the regularized t/p surface used to validate the
large-order and large-argument asymptotic regimes, and the scaling study of
the torsion-like invariant.  Tors is summed only in :func:`tors_term`: the
difference formula takes it as its fifth line, and each scaling row is
:func:`tors_term` on rescaled slices.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from .bessel import bracket_pairs
from .crosssection import CrossSection, SpectralSlice, coclosed_spectrum, theta_heat_coeffs
from .errors import DomainError, ODEIntegrationError, first_failure
from .olver import harmonic_number, z_diff_by_b
from .zeta import (
    DEFAULT_TOLERANCE,
    cutoff_for_tolerance,
    default_order,
    plan_t0,
    primal_window,
    shifted_zeta_prime0,
)


@dataclass
class NumericsParams:
    """Runtime knobs shared by the assembly operations."""

    cutoff: Optional[float] = None
    tolerance: Optional[float] = None

    def slice_cutoff(self, cs: CrossSection, k: int) -> float:
        if self.cutoff is not None:
            return self.cutoff
        tol = self.tolerance if self.tolerance is not None else DEFAULT_TOLERANCE
        return cutoff_for_tolerance(cs, k, tol)


def dual_slice(n: int, k: int) -> tuple[int, int]:
    """(j, sign): degree k of an n-torus is built slice j < n/2 with its shift
    times sign.  Slice n-1-k has the levels, multiplicities and cutoff of
    slice k and the shift alpha_{n-1-k} = -alpha_k."""
    return (k, +1) if k < n // 2 else (n - 1 - k, -1)


def build_slices(
    cs: CrossSection, params: NumericsParams, mellin: bool = True
) -> Dict[int, SpectralSlice]:
    """The slices of degrees k < n/2 (:func:`dual_slice`) at the cutoffs ``params`` sets.

    Every lattice window the slices need is checked against the point limit
    before any slice is built: first the primal window of their Mellin
    splits at the planned t0 (unless ``mellin`` is false: the caller builds
    no split), then, once the cutoffs are known, the largest dual window.
    Each slice caches its Mellin engine, so routes that share one dict share
    the enumeration and the continuation work.
    """
    if mellin:
        cs.check_window("primal", primal_window(plan_t0(cs)))
    cutoffs = {k: params.slice_cutoff(cs, k) for k in range(cs.dim_n // 2)}
    cs.check_window("dual", max(cutoffs.values()))
    return {k: coclosed_spectrum(cs, k, cutoff) for k, cutoff in cutoffs.items()}


# ---------------------------------------------------------------------------
# Closed-form terms
# ---------------------------------------------------------------------------


def top_term(cs: CrossSection) -> float:
    """Betti-number term: (log2/2) chi - sum over the lower half degrees."""
    n = cs.dim_n
    chi = cs.euler_characteristic()
    total = 0.5 * math.log(2.0) * chi
    for k in range(n // 2):
        inner = 0.5 * math.log(n - 2 * k + 1) + sum(
            math.log(2 * l + 1) for l in range(n // 2 - k)
        )
        total -= (-1) ** k * cs.betti(k) * inner
    return total


@functools.cache
def _digamma_weighted_zdiff(r: int, alpha: Fraction) -> Fraction:
    """sum_b (z_{2r,b}(-a) - z_{2r,b}(a)) * H_{b+r-1}, exactly rational, and
    computed once per (r, a) and process.

    The companion sum with weight 1 vanishes for even order 2r, which is what
    cancels the Euler-gamma part of the digamma factors; that vanishing is
    asserted here rather than assumed.
    """
    diffs = z_diff_by_b(2 * r, alpha)
    if sum(diffs.values(), start=Fraction(0)) != 0:
        raise AssertionError("even-order z-differences must sum to zero")
    return sum(
        (d * harmonic_number(b + r - 1) for b, d in diffs.items()), start=Fraction(0)
    )


def _residue_double_sum(cs: CrossSection) -> float:
    """sum_{k<n/2} ((-1)^k/2) sum_r Res_{s=2r} zeta_k * weighted z-differences.

    Contains no truncation parameter: identical (bitwise) for every eps."""
    h = cs.dim_n // 2
    total = 0.0
    for k in range(h):
        alpha = cs.alpha(k)
        heat = theta_heat_coeffs(cs, k)
        inner = math.fsum(
            heat.residue(2 * r) * float(_digamma_weighted_zdiff(r, alpha))
            for r in range(1, h + 1)
        )
        total += (-1) ** k / 2.0 * inner
    return total


def res_term(cs: CrossSection) -> tuple[float, float]:
    """Residual term and the anomaly integral it equals.

    Returns ``(res, anomaly_integral)`` with res = -anomaly_integral / 2 and

        anomaly_integral = rank * int_N B_1(g^N)
          = sum_{k<n/2} ((-1)^{k+1}/2) sum_r Res_{s=2r} zeta_k
            * sum_b (z_{2r,b}(-a_k) - z_{2r,b}(a_k)) Gamma'(b+r)/Gamma(b+r).
    """
    anomaly = -_residue_double_sum(cs)
    return -anomaly / 2.0, anomaly


@dataclass
class TorsResult:
    value: float
    cross_check_residual: float
    err: float
    # the built slices (k < n/2) and zeta'_k(0, +alpha_k) for every k = 0..n-1
    slices: Dict[int, SpectralSlice] = field(default_factory=dict)
    shifted_prime0_plus: Dict[int, float] = field(default_factory=dict)


def tors_term(
    cs: CrossSection,
    params: Optional[NumericsParams] = None,
    slices: Optional[Dict[int, SpectralSlice]] = None,
) -> TorsResult:
    """Torsion-like invariant Tors(N, E_N; g^N).

    The only code that sums Tors: :func:`torsion_difference` takes its value,
    and :func:`tors_scaling_profile` calls it on rescaled slices.  ``value``
    sums (1/2) (-1)^k (zeta'_k(0, a_k) - zeta'_k(0, -a_k)) over k < n/2.
    The residual compares it with (1/2) sum_{k<n} (-1)^k
    zeta'_k(0, a_k), whose upper half is read off the same minus values
    (:func:`dual_slice`), so it sums one set of values two ways.
    ``slices`` (from :func:`build_slices`, or those with shifts alpha_k / mu)
    are built when omitted.
    """
    params = params or NumericsParams()
    n = cs.dim_n
    if slices is None:
        slices = build_slices(cs, params)

    results = {(k, s): shifted_zeta_prime0(slices[k], s) for k in range(n // 2) for s in (+1, -1)}
    plus = {k: results[dual_slice(n, k)][0] for k in range(n)}
    full = 0.5 * math.fsum((-1) ** k * v for k, v in plus.items())
    dual = 0.5 * math.fsum((-1) ** k * (plus[k] - results[(k, -1)][0]) for k in range(n // 2))
    err = math.fsum(e for (_, e) in results.values())
    return TorsResult(dual, abs(full - dual), err, slices, plus)


@dataclass
class TorsionReport:
    """Assembled torsion of the bounded cone with provenance."""

    top: float
    tors: float
    res: float
    anomaly_integral: float
    log_t: float
    per_slice: Dict[int, Dict[str, float]] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)


def log_torsion_cone(cs: CrossSection, params: Optional[NumericsParams] = None) -> TorsionReport:
    """log T(C(N)) = Top + Tors + Res, with Res = -anomaly/2."""
    params = params or NumericsParams()
    started = time.time()
    top = top_term(cs)
    tors = tors_term(cs, params)
    res, anomaly = res_term(cs)
    per_slice = {}
    for k, value in tors.shifted_prime0_plus.items():
        sl = tors.slices[dual_slice(cs.dim_n, k)[0]]
        per_slice[k] = {
            "alpha": float(cs.alpha(k)),
            "betti": float(cs.betti(k)),
            "cutoff": sl.cutoff,
            "levels": float(sl.eta.size),
            "shifted_prime0_plus": value,
        }
    report = TorsionReport(
        top=top,
        tors=tors.value,
        res=res,
        anomaly_integral=anomaly,
        log_t=top + tors.value + res,
        per_slice=per_slice,
        provenance={
            "order": default_order(cs.dim_n),
            "t0": plan_t0(cs),
            "tors_cross_check_residual": tors.cross_check_residual,
            "wall_time_s": time.time() - started,
        },
    )
    return report


def _betti_log_sum(cs: CrossSection, eps: float) -> float:
    n = cs.dim_n
    total = 0.0
    for k in range(n + 1):
        q = n - 2 * k + 1  # odd, never zero for even n
        arg = (1.0 - eps**q) / q
        total += (-1) ** k / 2.0 * cs.betti(k) * math.log(arg)
    return total


def log_torsion_truncated(cs: CrossSection, eps: float) -> float:
    """Scalar log torsion of the truncated cone [eps, 1] x N.

    Closed form: the Betti logarithm sum, the Euler-characteristic term, and
    the eps-independent residue double sum (the anomaly sum with opposite
    overall sign relative to the anomaly-integral convention).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    chi = cs.euler_characteristic()
    return _betti_log_sum(cs, eps) + 0.5 * math.log(2.0) * chi + _residue_double_sum(cs)


def torsion_difference(cs: CrossSection, eps: float, tors: float) -> float:
    """log T(C_eps(N)) - log T(C(N)) by its five-line closed form.

    Lines 1-4 are the Betti logarithms and the residue double sum; line 5 is
    -Tors, so ``tors`` is :func:`tors_term`'s value (the cone report's
    ``tors``)."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    n = cs.dim_n
    h = n // 2
    line1 = _betti_log_sum(cs, eps)
    line2 = math.fsum(
        (-1) ** k * cs.betti(k) * math.fsum(math.log(2 * l + 1) for l in range(h - k))
        for k in range(h)
    )
    line3 = math.fsum(
        (-1) ** k / 2.0 * cs.betti(k) * math.log(n - 2 * k + 1) for k in range(h)
    )
    line4 = 0.5 * _residue_double_sum(cs)
    return line1 + line2 + line3 + line4 - tors


# ---------------------------------------------------------------------------
# Model operators: closed forms and the ODE oracle
# ---------------------------------------------------------------------------

MODEL_KINDS = ("psi_full", "phi_full", "psi_truncated", "phi_truncated", "harmonic_H0")


@dataclass(frozen=True)
class ModelOperatorSpec:
    """One-dimensional model operator -d^2/dx^2 + (nu^2 - 1/4)/x^2.

    ``psi``/``phi`` kinds carry Robin data f' + beta f = 0 with
    beta = alpha - 1/2 and beta = -alpha - 1/2 respectively; the harmonic
    kind is Dirichlet at both ends with nu = |alpha|.
    """

    kind: str
    nu: float
    alpha: float
    eps: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"kind must be one of {MODEL_KINDS}")
        if self.kind != "harmonic_H0" and self.nu <= 0:
            raise DomainError("nu must be positive")
        if self.truncated or self.kind == "harmonic_H0":
            if self.eps is None or not 0.0 < self.eps < 1.0:
                raise DomainError("eps must lie in (0, 1) for truncated operators")

    @property
    def truncated(self) -> bool:
        return self.kind in ("psi_truncated", "phi_truncated")

    @property
    def bracket_sign(self) -> float:
        return 1.0 if self.kind.startswith("psi") else -1.0

    @property
    def robin_beta(self) -> float:
        return self.bracket_sign * self.alpha - 0.5


def harmonic_det(alpha: float, eps: float) -> float:
    """Zeta determinant of the Dirichlet harmonic operator on [eps, 1]:
    (sqrt(eps)/|alpha|) (eps^{-|alpha|} - eps^{|alpha|})."""
    if alpha == 0.0:
        raise DomainError(
            "alpha = 0 requires the logarithmic boundary conditions, which are not implemented"
        )
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    a = abs(alpha)
    return math.sqrt(eps) / a * (eps**-a - eps**a)


def model_det_ratios(specs: Sequence[ModelOperatorSpec], zs: Sequence[float]) -> np.ndarray:
    """Closed-form determinant ratios det(L + nu^2 z^2)/det(L) for a batch.

    Entry i is the ratio of ``(specs[i], zs[i])``.  Evaluated in log space
    from exponentially scaled Bessel brackets so the closed forms remain
    finite far beyond their naive binary64 range.  The domain of every entry
    is checked before any evaluation, the brackets of the whole batch come
    from one :func:`bracket_pairs` call, and the bracket and overflow checks
    then run on every entry; the first entry that fails a check raises that
    check's error, naming the entry when the batch has more than one.
    """

    def entry_error(i, err, message):
        where = f" (entry {i}: {specs[i]}, z={zs[i]})" if len(specs) > 1 else ""
        return err(message + where)

    for i, (spec, z) in enumerate(zip(specs, zs, strict=True)):
        if spec.kind == "harmonic_H0":
            raise entry_error(i, DomainError, "harmonic determinants are absolute values: use harmonic_det")
        if z < 0:
            raise entry_error(i, DomainError, "z must be >= 0")
        if spec.nu <= abs(spec.alpha):
            raise entry_error(
                i, DomainError, f"nu={spec.nu} <= |alpha|={abs(spec.alpha)}: determinant prefactor pole"
            )
    out = np.ones(len(specs))
    rows = [i for i, z in enumerate(zs) if z != 0.0]
    if not rows:
        return out
    nu = np.array([specs[i].nu for i in rows])
    alpha = np.array([specs[i].alpha for i in rows])
    s = np.array([specs[i].bracket_sign for i in rows])
    trunc = np.array([specs[i].truncated for i in rows])
    # eps = 1 stands in on the full kinds, whose eps-end quantities are unused
    eps = np.array([specs[i].eps if specs[i].truncated else 1.0 for i in rows])
    w = nu * np.array([zs[i] for i in rows])
    we = w * eps
    (ib_w, ib_we), (kb_w, kb_we) = bracket_pairs(nu, [w, we], s * alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_full = (
            nu * math.log(2.0)
            + np.array([math.lgamma(v) for v in nu.tolist()])
            - nu * np.log(w)
            + w
            + np.log(ib_w)
            - np.log(1.0 + s * alpha / nu)
        )
        r_s = (kb_w / ib_w) * (ib_we / kb_we) * np.exp(-2.0 * w * (1.0 - eps))
        # prefactor 2 nu, not 2 nu sqrt(eps): the ratio must tend to 1 as z -> 0,
        # which pins the normalization (the sqrt(eps) belongs to absolute
        # determinants such as harmonic_det, not to ratios)
        log_trunc = (
            w
            + np.log(ib_w)
            - we
            + np.log(-kb_we)
            + np.log(2.0 * nu)
            + np.log1p(-r_s)
            - np.log(nu * nu - alpha * alpha)
            - (nu * np.log(1.0 / eps) + np.log1p(-(eps ** (2.0 * nu))))
        )
    log_ratio = np.where(trunc, log_trunc, log_full)
    checks = [  # in the order of precedence on one entry
        (ib_w <= 0, DomainError, "I-bracket must be positive for nu > |alpha|"),
        (trunc & ((kb_we >= 0) | (kb_w >= 0)), DomainError, "K-bracket sign violated; parameters outside the valid range"),
        (trunc & (r_s >= 1.0), DomainError, "bracket ratio >= 1; eps too large for this regime"),
        (~trunc & (log_ratio > 700.0), OverflowError, "full-cone determinant ratio overflows binary64"),
        (trunc & (log_ratio > 700.0), OverflowError, "truncated determinant ratio overflows binary64"),
    ]
    first = first_failure(checks)
    if first:
        j, err, message = first
        raise entry_error(rows[j], err, message)
    out[rows] = np.exp(log_ratio)
    return out


def model_det_ratio(spec: ModelOperatorSpec, z: float) -> float:
    """Closed-form determinant ratio det(L + nu^2 z^2)/det(L): the one-element
    case of :func:`model_det_ratios`."""
    return float(model_det_ratios([spec], [z])[0])


# The Gelfand-Yaglom propagator: every step is about _RHO0 of its distance
# to the singular point x = 0 or less, and about _KAPPA0 / w and
# _KAPPA0 x / nu or less, so a local Taylor series of _TAYLOR_TERMS terms
# reaches round-off.
_RHO0 = 0.15
_KAPPA0 = 3.0
_TAYLOR_TERMS = 30
_MESH_NEWTON_STEPS = 8


def _model_mesh(nu, w, x_start, x_end):
    """Nodes ``x[i, 0] = x_start[i], ..., x[i, N] = x_end[i]`` of every system,
    uniform in xi(x) = a ln x + w x / _KAPPA0 with a = max(1/_RHO0, nu/_KAPPA0);
    N is the largest finite |xi(x_end) - xi(x_start)| of the batch, rounded
    up, so every step moves xi by at most 1 (a system with no finite xi gets
    a nan mesh, which :func:`_integrate_model_ode` reports)."""
    a = np.maximum(1.0 / _RHO0, nu / _KAPPA0)[:, None]
    b = (w / _KAPPA0)[:, None]
    ends = np.stack([x_start, x_end], axis=1)
    xi_ends = a * np.log(ends) + b * ends
    span = np.abs(xi_ends[:, 1] - xi_ends[:, 0])
    n_steps = max(1, math.ceil(np.max(span, where=np.isfinite(span), initial=0.0)))
    xi = xi_ends[:, :1] + (xi_ends[:, 1:] - xi_ends[:, :1]) * (np.arange(n_steps + 1) / n_steps)
    # Newton on g(u) = a u + b e^u - xi in u = ln x: g increases and is convex,
    # and both xi / a and the log of the larger end lie at or right of the root,
    # so the iterates fall monotonically onto it
    u = np.minimum(xi / a, np.log(ends.max(axis=1))[:, None])
    for _ in range(_MESH_NEWTON_STEPS):
        eu = np.exp(u)
        u -= (a * u + b * eu - xi) / (a + b * eu)
    x = np.exp(u)
    x[:, 0], x[:, -1] = x_start, x_end
    return x


def _step_propagators(nu, w2, x):
    """The 2x2 maps of (f, f') across every mesh step, less the identity, in
    shape (2, 2, m, N), and the tail ratio of their Taylor series, shape (m, N).

    Around a node x_j with step h, rho = h / x_j and H = w2 h^2, the
    coefficients A_k of f(x_j + h s) = sum A_k s^k follow from
    x^2 f'' = (c + w2 x^2) f, c = nu^2 - 1/4:

        (k+2)(k+1) A_{k+2} = (rho^2 (c - k(k-1)) + H) A_k - 2 rho k(k+1) A_{k+1}
                             + 2 rho H A_{k-1} + rho^2 H A_{k-2}.

    The two columns start from (A_0, A_1) = (1, 0) and (0, 1), i.e. from
    (f, h f') = (1, 0) and (0, 1); at s = 1, f = sum A_k and h f' = sum k A_k.
    The sums leave out their leading terms A_0 = 1 and 1 A_1 = 1, which are
    the identity, so a short step keeps its full relative precision.  The
    tail ratio is (K-1)(|A_{K-2}| + |A_{K-1}|), K = _TAYLOR_TERMS, which
    bounds the last two terms of both sums, against 1 + the largest entry of
    the map less the identity in these scaled variables.
    """
    c = (nu * nu - 0.25)[:, None]
    h = np.diff(x, axis=1)
    rho = h / x[:, :-1]
    hh = w2[:, None] * h * h
    r2 = rho * rho
    base, two_rho, two_rho_hh, r2_hh = r2 * c + hh, 2.0 * rho, 2.0 * rho * hh, r2 * hh
    # the two columns lead, so the (m, N) coefficients broadcast over them
    a_prev2 = a_prev1 = np.zeros(1)
    a_k, a_next = np.zeros((2, 2) + h.shape)
    a_k[0] = a_next[1] = 1.0
    f_sum, hfp_sum = a_next.copy(), np.zeros(a_k.shape)
    for k in range(_TAYLOR_TERMS - 2):
        a_new = (
            (base - r2 * (k * (k - 1))) * a_k
            - two_rho * (k * (k + 1)) * a_next
            + two_rho_hh * a_prev1
            + r2_hh * a_prev2
        ) / ((k + 2) * (k + 1))
        f_sum += a_new
        hfp_sum += (k + 2) * a_new
        a_prev2, a_prev1, a_k, a_next = a_prev1, a_k, a_next, a_new
    tail = (_TAYLOR_TERMS - 1) * (np.abs(a_k) + np.abs(a_next)).max(axis=0)
    scale = 1.0 + np.maximum(np.abs(f_sum), np.abs(hfp_sum)).max(axis=0)
    maps = np.array([[f_sum[0], h * f_sum[1]], [hfp_sum[0] / h, hfp_sum[1]]])
    return maps, tail / scale


def _integrate_model_ode(nu, w2, x_start, x_end, y0, yp0, rtol=1e-12):
    """End states (f, f') of f'' = ((nu^2 - 1/4)/x^2 + w2) f for many systems.

    Every argument broadcasts to one array of m systems.  System i runs from
    ``x_start[i]`` to ``x_end[i]`` (both positive) with f = ``y0[i]``,
    f' = ``yp0[i]``.  The equation is linear with polynomial coefficients
    after multiplying by x^2, so each mesh step has an exact 2x2 propagator
    given by a local Taylor series (:func:`_step_propagators`, on the mesh of
    :func:`_model_mesh`).  All steps of all systems are built at once, and a
    pairwise product tree composes each system's steps in log2 N batched
    products.  Raises :class:`ODEIntegrationError`, naming the first failing
    system, when the Taylor tail of some step exceeds ``rtol`` or an end state
    is not finite (the solution overflows binary64).
    """
    nu, w2, x_start, x_end, y0, yp0 = np.array(
        np.broadcast_arrays(nu, w2, x_start, x_end, y0, yp0), dtype=float
    ).reshape(6, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _model_mesh(nu, np.sqrt(w2), x_start, x_end)
        maps, tail = _step_propagators(nu, w2, x)
        # (I + L)(I + E) = I + (L + E + L E), pairwise; an odd step count is
        # padded with a zero (identity) step
        while maps.shape[-1] > 1:
            if maps.shape[-1] % 2:
                maps = np.concatenate([maps, np.zeros(maps.shape[:3] + (1,))], axis=-1)
            later, earlier = maps[..., 1::2], maps[..., 0::2]
            maps = later + earlier + np.einsum("ijmn,jkmn->ikmn", later, earlier)
        f = y0 + (maps[0, 0, :, 0] * y0 + maps[0, 1, :, 0] * yp0)
        fp = yp0 + (maps[1, 0, :, 0] * y0 + maps[1, 1, :, 0] * yp0)
        worst = tail.max(axis=1)
    bad = ~((worst <= rtol) & np.isfinite(f) & np.isfinite(fp))
    if bad.any():
        i = int(np.argmax(bad))
        converged = worst[i] <= rtol
        why = "the solution overflows binary64" if converged else "the Taylor series is not converged"
        raise ODEIntegrationError(
            f"model ODE with nu={nu[i]:g}, w^2={w2[i]:g} on [{x_start[i]:g}, {x_end[i]:g}]: "
            f"{why} (Taylor tail ratio {worst[i]:.3e}, rtol {rtol:.1e})"
        )
    return f, fp


def gy_det_ratio_oracles(specs: Sequence[ModelOperatorSpec], zs: Sequence[float]) -> np.ndarray:
    """Gelfand-Yaglom oracle on [eps, 1] for a batch of truncated ratios.

    Entry i is the oracle for ``(specs[i], zs[i])``.  Each truncated entry
    integrates the homogeneous equation from the normalized boundary data at
    x = 1 and forms the ratio of the eps-end boundary functionals at z and 0;
    the z = 0 reference solution is the explicit power pair.  For the
    harmonic kind (z must be 0) the absolute zeta determinant 2 y(1) of the
    Dirichlet problem is returned.  Every entry is checked before any
    integration, and all ODEs of the batch are advanced in one solve.
    """
    out = np.ones(len(specs))
    systems = []  # (nu, w^2, x_start, x_end, f, f') per integrated entry
    finish = []  # (entry index, beta/eps, z = 0 functional); None for harmonic
    for i, (spec, z) in enumerate(zip(specs, zs, strict=True)):
        if spec.kind == "harmonic_H0":
            if z != 0.0:
                raise DomainError("harmonic_H0 oracle evaluates the z = 0 determinant")
            a = abs(spec.alpha)
            if a == 0.0:
                raise DomainError("alpha = 0 log case not implemented")
            systems.append((a, 0.0, spec.eps, 1.0, 0.0, 1.0))
            finish.append((i, None, None))
            continue
        if not spec.truncated:
            raise DomainError("the GY oracle runs on truncated kinds only (finite interval)")
        if z < 0:
            raise DomainError("z must be >= 0")
        if z == 0.0:
            continue
        nu, eps, beta = spec.nu, spec.eps, spec.robin_beta
        # z = 0 solution: A x^{nu+1/2} + B x^{1/2-nu} with f(1)=1, f'(1) = -beta
        a_coef = (nu - 0.5 - beta) / (2.0 * nu)
        b_coef = (nu + 0.5 + beta) / (2.0 * nu)
        f0 = a_coef * eps ** (nu + 0.5) + b_coef * eps ** (0.5 - nu)
        fp0 = a_coef * (nu + 0.5) * eps ** (nu - 0.5) + b_coef * (0.5 - nu) * eps ** (-nu - 0.5)
        den = fp0 + beta / eps * f0
        if den == 0.0:
            raise DomainError("degenerate z = 0 boundary functional")
        # Robin data scales conically: f'(x) + (beta/x) f(x), which at the
        # outer boundary x = 1 reduces to the constant form used for the
        # initial data
        w = nu * z
        systems.append((nu, w * w, 1.0, eps, 1.0, -beta))
        finish.append((i, beta / eps, den))
    if systems:
        f, fp = _integrate_model_ode(*np.array(systems).T)
        for j, (i, scale, den) in enumerate(finish):
            out[i] = 2.0 * f[j] if den is None else (fp[j] + scale * f[j]) / den
    return out


def gy_det_ratio_oracle(spec: ModelOperatorSpec, z: float) -> float:
    """Gelfand-Yaglom oracle for one truncated ratio (see :func:`gy_det_ratio_oracles`)."""
    return float(gy_det_ratio_oracles([spec], [z])[0])


# ---------------------------------------------------------------------------
# Regularization surface
# ---------------------------------------------------------------------------


def ab_constant(nu: float, alpha: float, n: int) -> float:
    """Large-argument limit of the regularized surface:
    log(1 - a/nu) - log(1 + a/nu) - sum_{r<=n} (a^r - (-a)^r)/(r (-nu)^r)."""
    value = math.log1p(-alpha / nu) - math.log1p(alpha / nu)
    for r in range(1, n + 1):
        value -= (alpha**r - (-alpha) ** r) / (r * (-nu) ** r)
    return value


def t_eta_lambda(
    nu: float, alpha: float, eps: float, lam: float, n: int = 2
) -> tuple[float, float]:
    """The Bessel-bracket combination t and its regularization p at lambda <= 0.

    ``t`` is the truncated-minus-full log-determinant combination evaluated
    from exponentially scaled Bessel brackets; ``p`` subtracts the first n
    orders of its large-order expansion built from the M_r polynomials at
    t_eps(lambda) = (1 - eps^2 lambda)^{-1/2}.  p vanishes at lambda -> 0-
    and tends to :func:`ab_constant` as lambda -> -inf.
    """
    if nu <= abs(alpha):
        raise DomainError("nu must exceed |alpha| (eta = 0 modes are excluded at source)")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if lam > 0.0:
        raise DomainError("lambda must be <= 0")
    if lam == 0.0:
        return 0.0, 0.0
    z = math.sqrt(-lam)
    w = nu * z
    we = w * eps
    ib, kb = bracket_pairs(nu, [we, we, w, w], [alpha, -alpha, alpha, -alpha])
    ib_p, ib_m, ibw_p, ibw_m = ib.tolist()
    kb_p, kb_m, kbw_p, kbw_m = kb.tolist()
    if kb_p >= 0 or kb_m >= 0:
        raise DomainError("positive K-bracket at x = eps: eps too large for this lambda")
    if ibw_p <= 0 or ibw_m <= 0 or ib_p <= 0 or ib_m <= 0:
        raise DomainError("nonpositive I-bracket: outside the valid parameter range")
    decay = math.exp(-2.0 * w * (1.0 - eps))
    r_plus = (kbw_p / ibw_p) * (ib_p / kb_p) * decay
    r_minus = (kbw_m / ibw_m) * (ib_m / kb_m) * decay
    if r_plus >= 1.0 or r_minus >= 1.0:
        raise DomainError("bracket ratio >= 1: eps too large for this lambda")
    t_val = (
        math.log(kb_m / kb_p)
        + math.log((nu - alpha) / (nu + alpha))
        - math.log1p(-r_plus)
        + math.log1p(-r_minus)
    )
    t_eps = (1.0 - eps * eps * lam) ** -0.5
    alpha_frac = Fraction(alpha)
    subtraction = 0.0
    for r in range(1, n + 1):
        diffs = z_diff_by_b(r, alpha_frac)
        m_diff = math.fsum(float(d) * t_eps ** (r + 2 * b) for b, d in diffs.items())
        odd_part = (alpha**r - (-alpha) ** r) / r
        subtraction += nu**-r * (-1.0) ** r * (m_diff + odd_part)
    return t_val, t_val - subtraction


# ---------------------------------------------------------------------------
# Scaling study
# ---------------------------------------------------------------------------


@dataclass
class ScalingRow:
    mu: float
    tors: float
    bound: Optional[float]  # |Tors| * mu / log(mu), None at mu = 1


def tors_scaling_profile(
    cs: CrossSection, mu_values: Sequence[float], params: Optional[NumericsParams] = None
) -> tuple[list[ScalingRow], float]:
    """Tors(N, mu^{-2} g^N) over a scaling grid.

    Rescaling multiplies the spectrum by mu^2; equivalently the original
    spectrum is kept and the shift becomes a = alpha_k / mu together with an
    overall mu^{-s} factor, so

        zeta'_mu(0, +-alpha_k) = -log(mu) zeta_a(0, +-a) + zeta'_a(0, +-a).

    The -log(mu) terms cancel in Tors: zeta_a(0, +a) - zeta_a(0, -a) is the
    odd-residue sum, and the odd residues vanish on even n.  So each row is
    :func:`tors_term` on the slices with shift alpha_k / mu.

    Returns the table and the fitted bound constant max |Tors| mu / log mu.
    """
    params = params or NumericsParams()
    base = build_slices(cs, params)
    rows: list[ScalingRow] = []
    for mu in mu_values:
        if mu < 1.0:
            raise DomainError("scaling grid must satisfy mu >= 1")
        scaled = {k: sl.with_alpha(float(sl.alpha) / mu) for k, sl in base.items()}
        total = tors_term(cs, params, scaled).value
        bound = abs(total) * mu / math.log(mu) if mu > 1.0 else None
        rows.append(ScalingRow(float(mu), total, bound))
    fitted = max((row.bound for row in rows if row.bound is not None), default=math.nan)
    return rows, fitted

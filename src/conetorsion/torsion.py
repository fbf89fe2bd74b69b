"""Assembly of the analytic-torsion terms and the model-operator surfaces.

The log torsion of the bounded cone over a cross-section N splits into

    log T = Top + Tors + Res,

where Top is a Betti-number combination, Tors is the torsion-like invariant
built from shifted zeta derivatives at zero, and Res is minus half the
boundary anomaly integral.  On the flat T^n, Res is the closed form
(-1)^(h+1) (n-1)! / (4 h!) rank Vol / (4 pi)^h, h = n/2, derived in the
README from the Olver double sum of slice-zeta residues and digamma-weighted
z_{2r,b} coefficient differences; the tests keep that double sum as the
exact oracle of the closed form.

The module also provides the truncated-cone torsion, the closed-form
difference between truncated and full cone, the one-dimensional model
operator determinant ratios in Bessel form together with their
Gelfand-Yaglom ODE oracle, the regularized t/p surface used to validate the
large-order and large-argument asymptotic regimes, and the scaling study of
the torsion-like invariant.  Tors is summed only in :func:`tors_term`: the
difference formula takes it as its fifth line, and each scaling row is
:func:`tors_term` at rescaled shifts.  Every degree has the same levels, so
one Mellin split, per lattice point, serves them all, and :func:`tors_term`
applies each degree's weight rank C(n-1, k) once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from .bessel import bracket_pairs
from .crosssection import CrossSection, SpectralSlice, coclosed_spectrum
from .errors import DomainError, ODEIntegrationError, first_failure
from .olver import z_diff_by_b
from .zeta import (
    DEFAULT_TOLERANCE,
    MellinSplit,
    cutoff_for_tolerance,
    plan_t0,
    primal_window,
    shifted_zeta_prime0,
)


@dataclass
class NumericsParams:
    """Runtime knobs shared by the assembly operations."""

    cutoff: Optional[float] = None
    tolerance: Optional[float] = None

    def slice_cutoff(self, cs: CrossSection, k: int, t0: float = math.inf) -> float:
        """Cutoff of slice k: ``cutoff`` when set, else the K-tail cutoff at
        the tolerance raised to the Mellin horizon of a split at ``t0``.  The
        default t0 = inf raises it to nothing; ``perfbench/make_refs.py``
        calls it so and builds its own window for its splits."""
        if self.cutoff is not None:
            return self.cutoff
        tol = self.tolerance if self.tolerance is not None else DEFAULT_TOLERANCE
        return cutoff_for_tolerance(cs, k, tol, t0)


def build_slices(cs: CrossSection, params: NumericsParams, t0: float) -> SpectralSlice:
    """The one slice of the torus, degree 0, whose levels every degree
    shares, at the cutoff ``params`` sets for degree 0 and Mellin splits at
    ``t0``, the largest of the degrees': the K-tail cutoff grows with |alpha|,
    (n - 1)/2 in degree 0, and its floors do not depend on the degree."""
    return coclosed_spectrum(cs, 0, params.slice_cutoff(cs, 0, t0))


def build_splits(cs: CrossSection, params: NumericsParams, mu_values: Sequence[float] = (1.0,)) -> MellinSplit:
    """The one Mellin split of the torus at the planned t0, over the slice
    of :func:`build_slices`, once its primal window has passed the point
    limit.  Row i h + k, h = n/2, is the shift alpha_k / mu_i of degree
    k < h, so the default mu = (1,) makes row k degree k's own alpha_k.  The
    one place a command plans t0 for a split; the slice is built for it."""
    t0 = plan_t0(cs)
    cs.check_window("primal", primal_window(t0))
    h = cs.dim_n // 2
    shifts = [float(cs.alpha(k)) / mu for mu in mu_values for k in range(h)]
    return MellinSplit(build_slices(cs, params, t0), t0, shifts)


def _finite(value: float, term: str, n: int) -> float:
    """``value``, or OverflowError naming ``term`` when it is not finite."""
    if not math.isfinite(value):
        raise OverflowError(f"{term} of the flat T^{n} lies outside binary64")
    return value


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
    return _finite(total, "Top", n)


def res_term(cs: CrossSection) -> tuple[float, float]:
    """Residual term and the anomaly integral it equals, ``(res, -2 res)``:

        res = (-1)^(h+1) (n-1)! / (4 h!) * rank * Vol / (4 pi)^h,   h = n/2,

    the Olver double sum of residues and digamma-weighted z-differences in
    closed form (README, "Res in closed form").  Evaluated in exact rationals
    from the float Vol and 4 pi, with one rounding; a Res that is not a
    finite nonzero double, or whose -2 Res overflows, raises OverflowError.
    """
    n, h = cs.dim_n, cs.dim_n // 2
    coef = Fraction((-1) ** (h + 1) * math.factorial(n - 1), 4 * math.factorial(h))
    try:
        res = float(coef * cs.bundle_rank * Fraction(cs.volume) / Fraction(4.0 * math.pi) ** h)
    except OverflowError:
        res = math.inf
    if res == 0.0 or not math.isfinite(2.0 * res):
        raise OverflowError(f"Res of the flat T^{n} or its anomaly integral -2 Res lies outside binary64")
    return res, -2.0 * res


@dataclass
class TorsResult:
    value: float
    cross_check_residual: float
    # kappa_k zeta'_k(0, +alpha_k), k = 0..n-1
    shifted_prime0_plus: Dict[int, float]


def tors_term(split: MellinSplit, row: int = 0) -> TorsResult:
    """Torsion-like invariant Tors(N, E_N; g^N) from the Mellin split of the
    torus (:func:`build_splits`), which it only reads.

    The only code that sums Tors: :func:`torsion_difference` takes its value,
    and :func:`tors_scaling_profile` calls it once per mu of its split.
    ``value`` sums (1/2) (-1)^k kappa_k (zeta'(0, a_k) - zeta'(0, -a_k)) over
    k < h = n/2, zeta' per lattice point at the shift a_k of row row h + k,
    kappa_k = ``coclosed_point_multiplicity(k)``.  Degree n-1-k has the
    levels and weight of degree k and the shift -a_k, so the residual
    compares it with (1/2) sum_{k<n} (-1)^k kappa_k zeta'_k(0, a_k).
    """
    cs = split.sl.cross_section
    n, h = split.n, split.n // 2
    per_point = {(k, s): shifted_zeta_prime0(split, s, row * h + k)[0] for k in range(h) for s in (+1, -1)}
    plus = {
        k: cs.coclosed_point_multiplicity(k) * (per_point[k, +1] if k < h else per_point[n - 1 - k, -1])
        for k in range(n)
    }
    minus = {k: cs.coclosed_point_multiplicity(k) * per_point[k, -1] for k in range(h)}
    full = 0.5 * math.fsum((-1) ** k * v for k, v in plus.items())
    dual = _finite(0.5 * math.fsum((-1) ** k * (plus[k] - minus[k]) for k in range(h)), "Tors", n)
    return TorsResult(dual, abs(full - dual), plus)


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
    started = time.time()
    top = top_term(cs)
    split = build_splits(cs, params or NumericsParams())
    tors = tors_term(split)
    res, anomaly = res_term(cs)
    per_slice = {
        k: {"alpha": float(cs.alpha(k)), "betti": cs.betti(k), "cutoff": split.sl.cutoff,
            "levels": split.sl.eta.size, "shifted_prime0_plus": value}
        for k, value in tors.shifted_prime0_plus.items()
    }
    return TorsionReport(
        top=top,
        tors=tors.value,
        res=res,
        anomaly_integral=anomaly,
        log_t=_finite(top + tors.value + res, "log T", cs.dim_n),
        per_slice=per_slice,
        provenance={
            "order": split.order,
            "t0": split.t0,
            "tors_cross_check_residual": tors.cross_check_residual,
            "wall_time_s": time.time() - started,
        },
    )


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
    the eps-independent 2 Res (minus the anomaly integral).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    chi = cs.euler_characteristic()
    value = _betti_log_sum(cs, eps) + 0.5 * math.log(2.0) * chi + 2.0 * res_term(cs)[0]
    return _finite(value, "log T of the truncated cone", cs.dim_n)


def torsion_difference(cs: CrossSection, eps: float, tors: float) -> float:
    """log T(C_eps(N)) - log T(C(N)) by its five-line closed form.

    Lines 1-3 are the Betti logarithms and line 4 is Res; line 5 is -Tors,
    so ``tors`` is :func:`tors_term`'s value (the cone report's ``tors``)."""
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
    line4 = res_term(cs)[0]
    return _finite(line1 + line2 + line3 + line4 - tors, "the truncated-minus-full difference", n)


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
# _KAPPA_NU x / nu or less, so a local Taylor series of _TAYLOR_TERMS terms
# reaches round-off: on a system's own mesh the worst step tail ratio over
# nu in [1, 200], w^2 <= 2500 is 1.8e-13, at nu = 16.5, where the first and
# last bounds meet (with _KAPPA_NU = 3 it was 2.6e-12 at nu = 20)
_RHO0 = 0.15
_KAPPA0 = 3.0
_KAPPA_NU = 2.5
_TAYLOR_TERMS = 30
_MESH_NEWTON_STEPS = 8


def _model_mesh(nu, w, x_start, x_end):
    """Every system's own mesh, uniform in xi(x) = a ln x + w x / _KAPPA0 with
    a = max(1/_RHO0, nu/_KAPPA_NU): system i takes N_i = |xi(x_end) -
    xi(x_start)| steps, rounded up and at least 1, so every step moves xi by
    at most 1.  Returns the nodes of all systems in order, N_i + 1 each from
    ``x_start[i]`` to ``x_end[i]``, and N (a system with no finite xi gets one
    nan step, which :func:`_integrate_model_ode` reports)."""
    a = np.maximum(1.0 / _RHO0, nu / _KAPPA_NU)
    b = w / _KAPPA0
    ends = np.stack([x_start, x_end], axis=1)
    xi_ends = a[:, None] * np.log(ends) + b[:, None] * ends
    span = np.abs(xi_ends[:, 1] - xi_ends[:, 0])
    steps = np.maximum(1, np.ceil(np.where(np.isfinite(span), span, 1.0))).astype(np.intp)
    owner = np.repeat(np.arange(nu.size), steps + 1)
    first = np.cumsum(steps + 1) - (steps + 1)
    xi_start, xi_end = xi_ends[owner, 0], xi_ends[owner, 1]
    xi = xi_start + (xi_end - xi_start) * ((np.arange(owner.size) - first[owner]) / steps[owner])
    # Newton on g(u) = a u + b e^u - xi in u = ln x: g increases and is convex,
    # and both xi / a and the log of the larger end lie at or right of the root,
    # so the iterates fall monotonically onto it
    a, b = a[owner], b[owner]
    u = np.minimum(xi / a, np.log(ends.max(axis=1))[owner])
    for _ in range(_MESH_NEWTON_STEPS):
        eu = np.exp(u)
        u -= (a * u + b * eu - xi) / (a + b * eu)
    x = np.exp(u)
    x[first], x[first + steps] = x_start, x_end
    return x, steps


def _step_propagators(nu, w2, x, h):
    """The 2x2 maps of (f, f') across mesh steps, less the identity, in shape
    (2, 2, steps), and the tail ratio of their Taylor series, one per step.
    Step j starts at the node ``x[j]`` with length ``h[j]``, on the system
    with ``nu[j]`` and ``w2[j]``.

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
    c = nu * nu - 0.25
    rho = h / x
    hh = w2 * h * h
    r2 = rho * rho
    base, two_rho, two_rho_hh, r2_hh = r2 * c + hh, 2.0 * rho, 2.0 * rho * hh, r2 * hh
    # the two columns lead, so the per-step coefficients broadcast over them
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
    given by a local Taylor series (:func:`_step_propagators`).  Each system
    runs on its own mesh (:func:`_model_mesh`), and the steps of all systems
    are built at once, as one flat array.  They are then laid out one row
    per system, padded with zero (identity) steps to the longest, and a
    pairwise product tree composes each row in log2 N batched products, so
    a system's result does not depend on the batch it came in.  Raises
    :class:`ODEIntegrationError`, naming the first failing system, when the
    Taylor tail of some step exceeds ``rtol`` or an end state is not finite
    (the solution overflows binary64).
    """
    nu, w2, x_start, x_end, y0, yp0 = np.array(
        np.broadcast_arrays(nu, w2, x_start, x_end, y0, yp0), dtype=float
    ).reshape(6, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        x, steps = _model_mesh(nu, np.sqrt(w2), x_start, x_end)
        # step j of system i runs from its node j to node j + 1
        owner = np.repeat(np.arange(nu.size), steps)
        slot = np.arange(owner.size) - (np.cumsum(steps) - steps)[owner]
        left = owner + np.arange(owner.size)
        flat, flat_tail = _step_propagators(nu[owner], w2[owner], x[left], x[left + 1] - x[left])
        maps = np.zeros((2, 2, nu.size, int(steps.max())))
        maps[:, :, owner, slot] = flat
        tail = np.zeros(maps.shape[2:])
        tail[owner, slot] = flat_tail
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
    :func:`tors_term` at the shifts alpha_k / mu.  :func:`build_splits`
    builds the one slice and one Mellin split whose rows are those shifts,
    n/2 per mu: the split's B quadrature, F table and K series serve every
    degree and the whole grid, so a longer grid adds rows to those tables,
    not splits.

    Returns the table and the fitted bound constant max |Tors| mu / log mu.
    """
    params = params or NumericsParams()
    if not mu_values or min(mu_values) < 1.0:
        raise DomainError("scaling grid must be non-empty and satisfy mu >= 1")
    split = build_splits(cs, params, mu_values)
    rows: list[ScalingRow] = []
    for i, mu in enumerate(mu_values):
        total = tors_term(split, row=i).value
        bound = abs(total) * mu / math.log(mu) if mu > 1.0 else None
        rows.append(ScalingRow(float(mu), total, bound))
    fitted = max((row.bound for row in rows if row.bound is not None), default=math.nan)
    return rows, fitted

"""Independent continuation of the first-order shifted zeta functions.

This module evaluates zeta_k(s, c) = sum m(eta) (nu(eta) + c)^(-s), per
lattice point as the production route does, through a Mellin split of the
genuinely first-order theta function

    theta_c(t) = sum m(eta) exp(-(nu + c) t),

so its continuation is independent of :mod:`conetorsion.zeta`.
The small-time model comes from the subordination identity

    exp(-nu t) = (t / (2 sqrt(pi))) Int_0^inf u^(-3/2) e^(-t^2/(4u)) e^(-nu^2 u) du,

applied to the second-order heat model: the model part integrates to
elementary closed form (half-integer Bessel K reduces to exp times a
polynomial in 1/t), and the lattice remainder keeps an absolutely convergent
integral representation with no catastrophic cancellation: its Mellin part B
integrates over t in closed form (an erfcx window), leaving one quadrature
over the subordination variable.  Values
and derivatives at s = 0 then drop out of the same pole bookkeeping as in the
second-order route.  The constructor computes the three Mellin parts A1, B1
and F1 of every row; the readers index them.

This is a verification surface: slower than the production route, used by the
test suite and the CLI ``verify`` command to validate the shifted values and
derivatives at s = 0 independently.  It shares with :mod:`conetorsion.zeta`
the spectrum, the lattice kernel ``crosssection.theta_sums`` (with its e^-700
term cut and block bound), the generic vectorised Gauss-Kronrod-21 engine
``quad_gk21`` with its starting breaks ``remainder_breaks``, Euler's gamma,
the exponential integral ``exp1`` and the cap ``A_CAP`` on its model
series, and nothing else.  One oracle serves a tuple of shifts c, its rows,
which share one B quadrature.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .crosssection import SpectralSlice, theta_sums
from .errors import DomainError
from .zeta import A_CAP, EULER_GAMMA, exp1, quad_gk21, remainder_breaks

_QUAD = dict(epsabs=1e-12, epsrel=1e-11, limit=400)
_HORIZON = 46.0


def _window_integral(c: float, t0: float, u):
    """G(u) = Int_0^t0 exp(-c t - t^2/(4u)) dt for u > 0 (scalar or array), in
    closed form.

    Completing the square gives sqrt(pi u) e^{a^2} (erf b - erf a) with
    a = c sqrt(u) and b = a + t0/(2 sqrt(u)).  Where a and b share a sign the
    erf difference is rewritten through erfcx, so no term overflows and no
    difference of two values near 1 is formed.  A scalar u runs the same
    array code, so it agrees bit for bit with the same entry of an array.
    """
    from scipy.special import erf, erfcx

    root = np.sqrt(np.asarray(u, dtype=float))
    a = c * root
    d = t0 / (2.0 * root)
    b = a + d
    diff = np.empty(root.shape)
    pos = a >= 0.0
    neg = b <= 0.0
    mid = ~(pos | neg)
    damp = np.exp(-d[pos] * (2.0 * a[pos] + d[pos]))
    diff[pos] = erfcx(a[pos]) - damp * erfcx(b[pos])
    damp = np.exp(-d[neg] * (2.0 * a[neg] + d[neg]))
    diff[neg] = damp * erfcx(-b[neg]) - erfcx(-a[neg])
    diff[mid] = np.exp(a[mid] * a[mid]) * (erf(b[mid]) - erf(a[mid]))
    return (math.sqrt(math.pi) * root * diff)[()]


class FirstOrderZeta:
    """Continuation of sum m (nu + c)^(-s), m the lattice-point counts, for
    one slice at a tuple of shifts.

    Row i is the shift c_i of ``shifts``, as in a ``MellinSplit``.
    Everything but the shift is a function of the slice and t0 alone, so the
    rows share the geometry sums and one B quadrature over the remainder.
    The constructor fills the public rows ``a_res`` and ``a_fin`` (residue
    and finite part of the model integral A1), ``b1`` and ``f1``.
    """

    def __init__(self, sl: SpectralSlice, shifts: Sequence[float], t0: float = 1.0):
        cs = sl.cross_section
        self.n = cs.dim_n
        self.h = self.n // 2
        self.alpha_abs = abs(sl.alpha)
        if self.alpha_abs == 0.0:
            raise DomainError("first-order oracle needs a nonzero shift alpha")
        self.shifts = tuple(map(float, shifts))
        nu_min = math.sqrt(cs.first_eta() + sl.alpha * sl.alpha)
        if nu_min + min(self.shifts) <= 0:
            raise DomainError("nu + c must stay positive")
        self.t0 = float(t0)
        # the model integral's series of e^{-rate t}, rate = c + |alpha|,
        # cancels as rate t0 grows, as the production A part does in alpha^2 t0
        x = (max(self.shifts) + self.alpha_abs) * self.t0
        if x > A_CAP:
            raise DomainError(
                f"(c + |alpha|) t0 = {x:.6g} exceeds A_CAP = {A_CAP:g}: "
                "the model-integral series of exp(-(c + |alpha|) t) cancels"
            )
        self.v_n = cs.volume / (4.0 * math.pi) ** self.h
        self.a2 = sl.alpha * sl.alpha
        # geometry sums, enumerated independently of the slice cutoff; the
        # window must cover the upper Mellin sum (nu + c <= horizon / t0 for
        # c and for -c, so it does not depend on the sign) and the dual-side
        # remainder sums down to u = u_c, for every row
        self._u_c = cs.min_primal_length() / (2.0 * math.sqrt(cs.first_eta()))
        # the subordination integrals over u stop where e^{-a^2 u} is spent
        self._u_upper = (_HORIZON + 20.0) / self.a2 + 4.0 * self._u_c
        nu_max = (_HORIZON + 6.0) / self.t0 + max(map(abs, self.shifts))
        eta_window = max(nu_max * nu_max, (_HORIZON + 8.0) / self._u_c)
        eta, counts = cs.lattice_eta_levels(cutoff=eta_window)
        self._eta = eta
        self._counts = counts
        self._nu = np.sqrt(eta + self.a2)
        max_sq = 4.0 * (_HORIZON + 8.0) * max(self.t0, 1.0) * 4.0
        self._p_sq, self._p_counts = cs.primal_norms(max_sq)
        self._model = self._model_terms()
        a1 = [self._a1_pole_and_finite(c) for c in self.shifts]
        self.a_res = [rho for rho, _ in a1]
        self.a_fin = [fin for _, fin in a1]
        # B1 = Int_0^t0 e^{-ct} R1(t) dt / t with the two integrals swapped:
        # (1/(2 sqrt(pi))) Int u^{-3/2} R(u) G(u) du, G the closed-form t
        # window; one quad_gk21 on the remainder_breaks of (0, u_upper], with
        # u_c added, whose components are the rows
        shifts = list(self.shifts)

        def integrand(u: np.ndarray) -> np.ndarray:
            common = u**-1.5 * self._remainders(u)
            return np.stack([common * _window_integral(c, self.t0, u) for c in shifts], axis=1)

        total, _ = quad_gk21(
            integrand,
            sorted({*remainder_breaks(self._p_sq, self._u_upper), self._u_c}),
            label=lambda: f"first-order B on (0, {self._u_upper:.6g}] for c in {shifts}",
            **_QUAD,
        )
        self.b1 = [value / (2.0 * math.sqrt(math.pi)) for value in total.tolist()]
        # F1 = sum m Int_t0^inf e^{-mu t} dt / t = sum m E_1(mu t0) (DLMF
        # 6.2.1), over the levels mu = nu + c with mu t0 <= _HORIZON
        self.f1 = []
        for c in self.shifts:
            mu = self._nu + c
            keep = mu * self.t0 <= _HORIZON
            self.f1.append(math.fsum((self._counts[keep] * exp1(mu[keep] * self.t0)).tolist()))

    # -- subordinated model ------------------------------------------------

    def _model_terms(self) -> list[tuple[float, int]]:
        """Closed-form subordination of (V_n u^{-h} - 1) e^{-a^2 u}.

        Yields V_n (2A)^h e^{-At} sum_j w_j A^{-j} t^{-h-j} - e^{-At}
        with A = |alpha| and w_j = (h+j)! / (j! (h-j)! 2^j), as (coef, power)
        pairs: a pair contributes coef t^power e^{-rate t}.
        """
        h, a = self.h, self.alpha_abs
        terms = []
        for j in range(h + 1):
            w = math.factorial(h + j) / (math.factorial(j) * math.factorial(h - j) * 2.0**j)
            coef = self.v_n * (2.0 * a) ** h * w / a**j
            terms.append((coef, -(h + j)))
        terms.append((-1.0, 0))
        return terms

    # -- lattice remainder ---------------------------------------------------

    def _remainders(self, u: np.ndarray) -> np.ndarray:
        """R(u) = e^{-a^2 u} (theta_L(u) - V_n u^{-h}) at every entry of
        ``u`` (all > 0): the primal form up to u_c, the dual form past it,
        each a ``theta_sums`` of its terms above e^{-THETA_CUT}."""
        out = np.empty(u.shape)
        primal = u <= self._u_c
        up, ud = u[primal], u[~primal]
        s_p = theta_sums(self._p_sq, self._p_counts, 4.0 * up)
        out[primal] = self.v_n * up ** (-self.h) * np.exp(-self.a2 * up) * s_p
        s_d = theta_sums(self._eta, self._counts, 1.0 / ud)
        out[~primal] = np.exp(-self.a2 * ud) * (1.0 + s_d - self.v_n * ud ** (-self.h))
        return out

    # -- Mellin components ---------------------------------------------------

    def _a1_pole_and_finite(self, c: float) -> tuple[float, float]:
        """Residue at s = 0 and finite part of the model integral at shift c.

        Int_0^{t0} t^{s-1} e^{-c t} * model(t) dt expands into terms
        coef (-rate)^p / p! * t0^{s+q+p} / (s+q+p) with rate = c + |alpha|;
        the constructor keeps rate t0 within ``zeta.A_CAP``: on unit T^2 the
        gap to the production route is 7.4e-15 at rate t0 = 8, and 4.3e-6 at
        30, where the alternating terms cancel.
        """
        rate = c + self.alpha_abs
        rho = 0.0
        fin = 0.0
        logt0 = math.log(self.t0)
        pmax = 8
        while rate * self.t0 > 0 and (rate * self.t0) ** pmax / math.factorial(pmax) > 1e-24 and pmax < 400:
            pmax += 1
        for term_coef, power in self._model:
            for p in range(pmax + max(0, -power) + 2):
                coef = term_coef * (-rate) ** p / math.factorial(p)
                d = power + p
                if d == 0:
                    rho += coef
                    fin += coef * logt0
                else:
                    fin += coef * self.t0**d / d
        return rho, fin

    def zeta0(self, row: int = 0) -> float:
        """zeta_k(0, c) in row ``row``, from the pole of the model integral alone."""
        return self.a_res[row]

    def zeta_prime0(self, row: int = 0) -> float:
        """zeta_k'(0, c) in row ``row`` = finite part + gamma * residue."""
        return (self.a_fin[row] + self.b1[row] + self.f1[row]) + EULER_GAMMA * self.a_res[row]


def first_order_shifted(sl: SpectralSlice, sign: int, t0: float = 1.0) -> FirstOrderZeta:
    """Oracle for zeta_{k,N}(s, sign * alpha_k) on a torus slice: the
    one-row case of :class:`FirstOrderZeta`."""
    return FirstOrderZeta(sl, (sign * sl.alpha,), t0)

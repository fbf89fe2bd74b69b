"""Independent continuation of the first-order shifted zeta functions.

This module evaluates zeta_k(s, c) = sum m(eta) (nu(eta) + c)^(-s) through a
Mellin split of the genuinely first-order theta function

    theta_c(t) = sum m(eta) exp(-(nu + c) t),

so it shares nothing with :mod:`conetorsion.zeta` beyond the spectrum itself.
The small-time model comes from the subordination identity

    exp(-nu t) = (t / (2 sqrt(pi))) Int_0^inf u^(-3/2) e^(-t^2/(4u)) e^(-nu^2 u) du,

applied to the second-order heat model: the model part integrates to
elementary closed form (half-integer Bessel K reduces to exp times a
polynomial in 1/t), and the lattice remainder keeps an absolutely convergent
integral representation with no catastrophic cancellation: its Mellin part B
integrates over t in closed form (an erfcx window), leaving one quadrature
over the subordination variable.  Values
and derivatives at s = 0 then drop out of the same pole bookkeeping as in the
second-order route.

This is a verification surface: slower than the production route, used by the
test suite and the CLI ``verify`` command to validate the shifted values and
derivatives at s = 0 independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crosssection import SpectralSlice
from .errors import DomainError
from .zeta import EULER_GAMMA

_QUAD = dict(epsabs=1e-12, epsrel=1e-11, limit=400)
_HORIZON = 46.0


def _window_integral(c: float, t0: float, u: float) -> float:
    """G(u) = Int_0^t0 exp(-c t - t^2/(4u)) dt for u > 0, in closed form.

    Completing the square gives sqrt(pi u) e^{a^2} (erf b - erf a) with
    a = c sqrt(u) and b = a + t0/(2 sqrt(u)).  Where a and b share a sign the
    erf difference is rewritten through erfcx, so no term overflows and no
    difference of two values near 1 is formed.
    """
    from scipy.special import erfcx

    root = math.sqrt(u)
    a = c * root
    d = t0 / (2.0 * root)
    b = a + d
    if a >= 0.0:
        diff = erfcx(a) - math.exp(-d * (2.0 * a + d)) * erfcx(b)
    elif b <= 0.0:
        diff = math.exp(-d * (2.0 * a + d)) * erfcx(-b) - erfcx(-a)
    else:
        diff = math.exp(a * a) * (math.erf(b) - math.erf(a))
    return math.sqrt(math.pi) * root * float(diff)


@dataclass(frozen=True)
class _ModelTerm:
    coef: float
    power: int  # contributes coef * t^power * exp(-rate * t)


class FirstOrderZeta:
    """Continuation of sum m (nu + c)^(-s) for one slice and one shift c."""

    def __init__(self, sl: SpectralSlice, c: float, t0: float = 1.0):
        cs = sl.cross_section
        self.n = cs.dim_n
        self.h = self.n // 2
        self.kappa = sl.kappa
        self.alpha_abs = abs(sl.alpha)
        if self.alpha_abs == 0.0:
            raise DomainError("first-order oracle needs a nonzero shift alpha")
        self.c = float(c)
        nu_min = math.sqrt(cs.first_eta() + sl.alpha * sl.alpha)
        if nu_min + self.c <= 0:
            raise DomainError("nu + c must stay positive")
        self.t0 = float(t0)
        self._cs = cs
        self.v_n = cs.volume / (4.0 * math.pi) ** self.h
        self.a2 = sl.alpha * sl.alpha
        # geometry sums, enumerated independently of the slice cutoff; the
        # window must cover the upper Mellin sum (nu + c <= horizon / t0)
        # and the dual-side remainder sums down to u = u_c
        self._u_c = cs.min_primal_length() / (2.0 * math.sqrt(cs.first_eta()))
        # the subordination integrals over u stop where e^{-a^2 u} is spent
        self._u_upper = (_HORIZON + 20.0) / self.a2 + 4.0 * self._u_c
        nu_max = (_HORIZON + 6.0) / self.t0 - min(self.c, 0.0)
        eta_window = max(nu_max * nu_max, (_HORIZON + 8.0) / self._u_c)
        eta, counts = cs.lattice_eta_levels(cutoff=eta_window)
        self._eta = eta
        self._counts = counts  # lattice-point counts (no kappa)
        self._nu = np.sqrt(eta + self.a2)
        max_sq = 4.0 * (_HORIZON + 8.0) * max(self.t0, 1.0) * 4.0
        self._p_sq, self._p_counts = cs.primal_norms(max_sq)
        self._model = self._model_terms()
        self._b0 = None
        self._f0 = None

    # -- subordinated model ------------------------------------------------

    def _model_terms(self) -> list[_ModelTerm]:
        """Closed-form subordination of kappa (V_n u^{-h} - 1) e^{-a^2 u}.

        Yields kappa V_n (2A)^h e^{-At} sum_j w_j A^{-j} t^{-h-j} - kappa e^{-At}
        with A = |alpha| and w_j = (h+j)! / (j! (h-j)! 2^j).
        """
        h, a = self.h, self.alpha_abs
        terms = []
        for j in range(h + 1):
            w = math.factorial(h + j) / (math.factorial(j) * math.factorial(h - j) * 2.0**j)
            coef = self.kappa * self.v_n * (2.0 * a) ** h * w / a**j
            terms.append(_ModelTerm(coef, -(h + j)))
        terms.append(_ModelTerm(-float(self.kappa), 0))
        return terms

    def model_theta(self, t: float) -> float:
        decay = math.exp(-self.alpha_abs * t)
        return decay * sum(term.coef * t**term.power for term in self._model)

    # -- lattice remainder ---------------------------------------------------

    def _second_order_remainder(self, u: float) -> float:
        """R(u) = kappa e^{-a^2 u} (theta_L(u) - V_n u^{-h}), exact both ways."""
        if u <= 0:
            return 0.0
        if u <= self._u_c:
            expo = self._p_sq / (4.0 * u)
            s_p = float(np.sum(np.exp(-np.minimum(expo, 745.0)) * self._p_counts))
            return self.kappa * self.v_n * u ** (-self.h) * math.exp(-self.a2 * u) * s_p
        dual = 1.0 + float(np.sum(np.exp(-np.minimum(self._eta * u, 745.0)) * self._counts))
        return self.kappa * math.exp(-self.a2 * u) * (dual - self.v_n * u ** (-self.h))

    def remainder_theta(self, t: float) -> float:
        """R1(t): subordinated transform of the second-order remainder."""
        if t <= 0:
            return 0.0
        from scipy import integrate

        def integrand(u: float) -> float:
            return u**-1.5 * math.exp(-t * t / (4.0 * u)) * self._second_order_remainder(u)

        v1, _ = integrate.quad(integrand, 0.0, self._u_c, **_QUAD)
        v2, _ = integrate.quad(integrand, self._u_c, self._u_upper, **_QUAD)
        return t / (2.0 * math.sqrt(math.pi)) * (v1 + v2)

    def theta(self, t: float) -> float:
        """First-order theta sum m(eta) exp(-(nu + c) t) via subordination."""
        return math.exp(-self.c * t) * (self.model_theta(t) + self.remainder_theta(t))

    def theta_direct(self, t: float) -> float:
        """Direct spectral sum with its own adequate enumeration window."""
        nu_need = (_HORIZON + 8.0) / t
        eta, counts = self._cs.lattice_eta_levels(cutoff=nu_need * nu_need)
        nu = np.sqrt(eta + self.a2)
        return float(np.sum(counts * self.kappa * np.exp(-(nu + self.c) * t)))

    # -- Mellin components ---------------------------------------------------

    def _a1_pole_and_finite(self) -> tuple[float, float]:
        """Residue at s = 0 and finite part of the model integral.

        Int_0^{t0} t^{s-1} e^{-c t} * model(t) dt expands into terms
        coef (-rate)^p / p! * t0^{s+q+p} / (s+q+p) with rate = c + |alpha|.
        """
        rate = self.c + self.alpha_abs
        rho = 0.0
        fin = 0.0
        logt0 = math.log(self.t0)
        pmax = 8
        while rate * self.t0 > 0 and (rate * self.t0) ** pmax / math.factorial(pmax) > 1e-24 and pmax < 400:
            pmax += 1
        for term in self._model:
            for p in range(pmax + max(0, -term.power) + 2):
                coef = term.coef * (-rate) ** p / math.factorial(p)
                d = term.power + p
                if d == 0:
                    rho += coef
                    fin += coef * logt0
                else:
                    fin += coef * self.t0**d / d
        return rho, fin

    def _b1_value(self) -> float:
        """B1 = Int_0^t0 e^{-ct} R1(t) dt / t with the two integrals swapped:
        (1/(2 sqrt(pi))) Int u^{-3/2} R(u) G(u) du, G the closed-form t window."""
        if self._b0 is None:
            from scipy import integrate

            def integrand(u: float) -> float:
                window = _window_integral(self.c, self.t0, u)
                return u**-1.5 * self._second_order_remainder(u) * window

            v1, _ = integrate.quad(integrand, 0.0, self._u_c, **_QUAD)
            v2, _ = integrate.quad(integrand, self._u_c, self._u_upper, **_QUAD)
            self._b0 = (v1 + v2) / (2.0 * math.sqrt(math.pi))
        return self._b0

    def _f1_value(self) -> float:
        """F1 = sum m Int_t0^inf e^{-mu t} dt / t = sum m E_1(mu t0) (DLMF 6.2.1),
        over the levels mu = nu + c with mu t0 <= _HORIZON."""
        if self._f0 is None:
            from scipy.special import exp1

            mu = self._nu + self.c
            keep = mu * self.t0 <= _HORIZON
            terms = self.kappa * self._counts[keep] * exp1(mu[keep] * self.t0)
            self._f0 = math.fsum(terms.tolist())
        return self._f0

    def zeta0(self) -> float:
        """zeta_k(0, c), from the pole of the model integral alone."""
        rho, _ = self._a1_pole_and_finite()
        return rho

    def zeta_prime0(self) -> float:
        """zeta_k'(0, c) = finite part + gamma * residue."""
        rho, fin = self._a1_pole_and_finite()
        m0 = fin + self._b1_value() + self._f1_value()
        return m0 + EULER_GAMMA * rho


def first_order_shifted(sl: SpectralSlice, sign: int, t0: float = 1.0) -> FirstOrderZeta:
    """Oracle for zeta_{k,N}(s, sign * alpha_k) on a torus slice."""
    return FirstOrderZeta(sl, sign * sl.alpha, t0=t0)

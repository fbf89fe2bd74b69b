"""Bessel layer: closed forms, high-precision oracle, Wronskian grid, and the
uniform large-order expansions."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from conetorsion import bessel
from conetorsion.errors import DomainError
from reference_oracles import modified_bessel_reference


def test_half_integer_closed_forms():
    x = 2.3
    q = bessel.modified_bessel(0.5, x)
    assert q.i_val == pytest.approx(math.sqrt(2 / (math.pi * x)) * math.sinh(x), rel=1e-13)
    assert q.k_val == pytest.approx(math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-13)


def test_k0_log_limit():
    x = 1e-6
    q = bessel.modified_bessel(0.0, x)
    gamma = 0.5772156649015328606
    assert q.k_val == pytest.approx(-math.log(x / 2.0) - gamma, rel=1e-10)


def test_against_high_precision_series():
    """Spot values cross-checked against 60-digit mpmath summation."""
    mpmath.mp.dps = 60
    for nu, x in ((3.7, 2.1), (0.3, 11.0), (12.5, 0.7), (45.0, 30.0)):
        q = bessel.modified_bessel(nu, x)
        assert q.i_val == pytest.approx(float(mpmath.besseli(nu, x)), rel=1e-11)
        assert q.k_val == pytest.approx(float(mpmath.besselk(nu, x)), rel=1e-11)
        # note: mpmath's derivative kwarg on besselk uses a different
        # convention; differentiate explicitly instead
        ipr = float(mpmath.diff(lambda t: mpmath.besseli(nu, t), x))
        kpr = float(mpmath.diff(lambda t: mpmath.besselk(nu, t), x))
        assert q.i_prime == pytest.approx(ipr, rel=1e-11)
        assert q.k_prime == pytest.approx(kpr, rel=1e-11)


def test_scaled_variants():
    nu, x = 2.5, 40.0
    q = bessel.modified_bessel(nu, x)
    qs = bessel.modified_bessel(nu, x, scaled=True)
    assert qs.scaled
    assert qs.i_val == pytest.approx(q.i_val * math.exp(-x), rel=1e-12)
    assert qs.k_val == pytest.approx(q.k_val * math.exp(x), rel=1e-12)
    # scaled path stays finite far beyond the unscaled overflow point
    big = bessel.modified_bessel(1.5, 5000.0, scaled=True)
    assert math.isfinite(big.i_val) and math.isfinite(big.k_val)


def test_wronskian_grid():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(100):
        nu = rng.uniform(0.0, 50.0)
        x = rng.uniform(0.1, 50.0)
        worst = max(worst, bessel.wronskian_residual(nu, x))
    assert worst <= 1e-12


def test_derivative_recurrence_against_mpmath():
    mpmath.mp.dps = 40
    rng = np.random.default_rng(3)
    for _ in range(6):
        nu = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.5, 30.0))
        q = bessel.modified_bessel(nu, x)
        ref = float(mpmath.besseli(nu, x, derivative=1))
        assert abs(q.i_prime - ref) / abs(ref) <= 1e-11


def test_modified_bessel_small_argument():
    """At z = 1e-5 the quadruple follows the leading small-argument forms
    I ~ z^nu / (2^nu Gamma(nu+1)) and K' ~ -nu 2^(nu-1) Gamma(nu) z^(-nu-1)."""
    nu, z = 1.7, 1e-5
    i_lead = z**nu / (2**nu * math.gamma(nu + 1))
    k_prime_lead = -nu * 2 ** (nu - 1) * math.gamma(nu) / z ** (nu + 1)
    q = bessel.modified_bessel(nu, z)
    # ratio I'/I -> nu/z as z -> 0, and the leading forms track the real values
    assert q.i_prime / q.i_val == pytest.approx(nu / z, rel=1e-8)
    assert i_lead == pytest.approx(q.i_val, rel=1e-9)
    assert k_prime_lead == pytest.approx(q.k_prime, rel=1e-6)


def test_uniform_expansion_spot():
    nu, z = 100.0, 1.0
    q = bessel.modified_bessel(nu, nu * z)
    for kind, ref in (
        ("I", q.i_val),
        ("Iprime", q.i_prime),
        ("K", q.k_val),
        ("Kprime", q.k_prime),
    ):
        val, est = bessel.uniform_expansion(kind, nu, z, 4)
        assert abs(val - ref) / abs(ref) <= 1e-8
        assert abs(val - ref) <= est


def test_uniform_expansion_k_sign_pattern():
    """The K-expansions alternate in (-nu)^r: the same series summed with
    +nu signs must disagree with the direct value far beyond the bound."""
    nu, z = 40.0, 0.8
    q = bessel.modified_bessel(nu, nu * z)
    val, est = bessel.uniform_expansion("K", nu, z, 4)
    assert abs(val - q.k_val) <= est
    # flipped signs: rebuild with I-type signs and the K prefactor
    t = 1.0 / math.sqrt(1.0 + z * z)
    xi = 1.0 / t + math.log(z / (1.0 + 1.0 / t))
    from conetorsion.olver import eval_t_poly, olver_pair

    pref = math.exp(-nu * xi) * math.sqrt(math.pi / (2 * nu)) / (1 + z * z) ** 0.25
    wrong = 1.0
    for r in range(1, 4):
        wrong += float(eval_t_poly(olver_pair(r)[0], t)) / nu**r
    assert abs(pref * wrong - q.k_val) > 10 * est


def test_uniform_expansion_large_z_consistency():
    """For large z the uniform K expansion reduces to the large-argument
    leading form sqrt(pi/(2 w)) e^{-w}."""
    nu, z = 50.0, 12.0
    w = nu * z
    val, _ = bessel.uniform_expansion("K", nu, z, 4)
    leading = math.sqrt(math.pi / (2.0 * w)) * math.exp(-w)
    assert val == pytest.approx(leading, rel=2e-2)


def test_error_paths():
    with pytest.raises(DomainError):
        bessel.modified_bessel(float("nan"), 1.0)
    with pytest.raises(DomainError):
        bessel.modified_bessel(1.0, -2.0)
    with pytest.raises(OverflowError):
        bessel.modified_bessel(1.0, 800.0)
    with pytest.raises(DomainError):
        bessel.modified_bessel(2e4, 1.0)
    with pytest.raises(DomainError):
        bessel.uniform_expansion("J", 50.0, 1.0, 3)
    with pytest.raises(DomainError):
        bessel.uniform_expansion("I", 10.0, 1.0, 3)


@pytest.mark.parametrize(
    "args, n_terms, pinned",
    [
        (("K", 50.0, 1.0), 1, (4.0072310678393757e-13, 2.436071284145099e-16)),
        (("K", 50.0, 1.0), 12, (4.006013476640052e-13, 3.3479065487312945e-32)),
        (("Iprime", 30.0, 0.4), 1, (7.0369778669396555e-09, 5.427697922450796e-11)),
        (("Iprime", 30.0, 0.4), 12, (7.0102923288785065e-09, 1.8301729657235088e-25)),
    ],
)
def test_uniform_expansion_term_count(args, n_terms, pinned):
    """n_terms counts the leading 1: at 1 the value is the bare prefactor and
    the estimate is built from orders 1 and 2; at 12 it sums orders up to 11
    and the estimate counts order 12 twice."""
    from conetorsion.olver import eval_uv

    kind, nu, z = args
    val, est = bessel.uniform_expansion(kind, nu, z, n_terms)
    assert (val, est) == pytest.approx(pinned, rel=1e-14)
    pref, _ = bessel.uniform_expansion(kind, nu, z, 1)
    t = 1.0 / math.sqrt(1.0 + z * z)
    pick = 0 if kind == "K" else 1
    orders = (1, 2) if n_terms == 1 else (12, 12)
    omitted = sum(abs(eval_uv(r, t)[pick]) / nu**r for r in orders)
    assert est == pytest.approx(2.0 * abs(pref) * omitted, rel=1e-14)


def test_batched_quadruples_match_the_scalar_calls_bit_for_bit():
    """One array call per scipy function and order gives, entry by entry,
    the bits of six one-element calls; the scalar form is its one-element
    case."""
    nu = np.array([0.0, 0.3, 0.5, 3.7, 12.5, 45.0])
    x = np.array([0.7, 2.1, 11.0, 30.0, 600.0])
    for scaled in (False, True):
        q = bessel.modified_bessels(nu[:, None], x[None, :], scaled=scaled)
        assert q.i_val.shape == (6, 5) and q.scaled == scaled
        for i, n in enumerate(nu.tolist()):
            for j, y in enumerate(x.tolist()):
                got = (q.i_val[i, j], q.i_prime[i, j], q.k_val[i, j], q.k_prime[i, j])
                ref = modified_bessel_reference(n, y, scaled)
                assert tuple(map(float, got)) == ref
                single = bessel.modified_bessel(n, y, scaled)
                assert (single.i_val, single.i_prime, single.k_val, single.k_prime) == ref


def test_batched_errors_name_the_first_failing_entry():
    """Each entry runs the scalar checks in the scalar order; the first
    failing entry raises its first failing check, naming the entry."""
    for (nu, x), message in [
        ((float("nan"), 1.0), "NaN input to modified_bessel"),
        ((-1.0, 1.0), "order must be >= 0"),
        ((2e4, 1.0), "order 20000.0 exceeds 1e+04; use uniform_expansion instead"),
        ((1.0, 0.0), "argument must be > 0"),
    ]:
        with pytest.raises(DomainError) as err:
            bessel.modified_bessel(nu, x)
        assert str(err.value) == message
    with pytest.raises(OverflowError) as err:
        bessel.modified_bessels([1.0, 2.0, -1.0], [1.0, 800.0, 1.0])
    assert str(err.value) == (
        "x=800.0 overflows unscaled K/I in binary64; request scaled values (entry 1: nu=2.0, x=800.0)"
    )
    with pytest.raises(DomainError) as err:
        bessel.modified_bessels([1.0, -1.0, 2.0], [1.0, -1.0, 800.0])
    assert str(err.value) == "order must be >= 0 (entry 1: nu=-1.0, x=-1.0)"
    with pytest.raises(OverflowError) as err:
        bessel.modified_bessels([1.0, 300.0], [1.0, 0.01])
    assert str(err.value) == "modified_bessel overflowed at nu=300.0, x=0.01"
    ib, kb = bessel.bracket_pairs([1.0, 2.0], [1.0, 5.0], 0.5)
    assert (float(ib[1]), float(kb[1])) == bessel.bracket_pair(2.0, 5.0, 0.5)

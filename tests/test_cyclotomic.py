"""The norm kernel of Q(zeta_e), checked against field arithmetic.

`cmfields.cyclotomic` keeps Phi_e, the fold and reduction behind
`CycNumber.from_power_coeffs`, `galois_apply` and `absolute_norm`.  The
arithmetic that checks them (sums, products, lifts, cross-level equality
and hash, the pi tower) is the oracle `Cyc` in `tests/cycoracle.py`, a
subclass of the program's `CycNumber`: `absolute_norm` is compared with
the product of the phi(e) conjugates `galois_apply` gives, on every level
1..72 and on random elements.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cmfields import cyclotomic
from cmfields.arith import euler_phi, is_prime, mobius
from cmfields.cyclotomic import (
    CycNumber,
    absolute_norm,
    cyclotomic_polynomial,
    galois_apply,
)
from cmfields.errors import InternalInconsistency, NotCoprime
from cycoracle import Cyc, pi_element


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@lru_cache(maxsize=None)
def _phi_by_division(e):
    """Phi_e as x^e - 1 divided by Phi_d over the proper divisors d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            den = _phi_by_division(d)
            n = len(den) - 1
            quot = [0] * (len(poly) - n)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + n]
                if c:
                    for j, dj in enumerate(den):
                        poly[i + j] -= c * dj
            assert not any(poly[:n])
            poly = quot
    return tuple(poly)


def test_cyclotomic_polynomial_matches_division():
    for e in range(1, 400):
        assert cyclotomic_polynomial(e) == _phi_by_division(e), e


def test_cyclotomic_polynomial_remainder_check_fires(monkeypatch):
    """With mu(6) read as -1, Phi_6 would be (x^6 - 1) over
    (x - 1)(x^2 - 1)(x^3 - 1), which is no polynomial: the in-place
    division must raise, not return a wrong quotient."""
    flipped = lambda n: -mobius(n) if n == 6 else mobius(n)
    monkeypatch.setattr(cyclotomic, "mobius", flipped)
    cyclotomic.cyclotomic_polynomial.cache_clear()
    cyclotomic._phi_terms.cache_clear()
    try:
        with pytest.raises(InternalInconsistency, match="remainder"):
            cyclotomic.cyclotomic_polynomial(6)
    finally:
        monkeypatch.undo()
        cyclotomic.cyclotomic_polynomial.cache_clear()
        cyclotomic._phi_terms.cache_clear()
    assert cyclotomic.cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_polynomial_degree_and_monic():
    for e in range(1, 40):
        poly = cyclotomic_polynomial(e)
        assert len(poly) == euler_phi(e) + 1
        assert poly[-1] == 1


def test_zeta_is_root_up_to_100():
    for e in range(1, 101):
        z = Cyc.zeta(e, 1)
        acc = Cyc.from_rational(e, 0)
        power = Cyc.from_rational(e, 1)
        for c in cyclotomic_polynomial(e):
            acc = acc + power * c
            power = power * z
        assert acc == 0


def test_basic_arithmetic():
    i = Cyc.zeta(4, 1)
    assert i * i == -1
    pi3 = pi_element(3)
    conj = Cyc.from_rational(8, 2) - Cyc.zeta(8, 1) - Cyc.zeta(8, 7)
    assert pi3 * conj == 2


def test_division_by_rationals_only():
    x = Cyc.from_rational(5, 1) + Cyc.zeta(5, 1)
    assert x / 2 * 2 == x
    assert x / Fraction(2, 3) == x * Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(TypeError):
        x / x
    with pytest.raises(TypeError):
        1 / x


def test_rational_comparison():
    x = Cyc.from_rational(12, Fraction(7, 3))
    assert x == Fraction(7, 3)
    assert Cyc.zeta(5, 1) != 1


def test_kernel_number_has_no_arithmetic():
    # an operator the program's type lacks fails loudly, never silently
    # zeta^4 = zeta^2 - 1 at level 12, and the result is in lowest terms
    x = CycNumber.from_power_coeffs(12, [2, 0, 6, 7, 2], -4)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                 "__eq__", "__hash__", "lift"):
        assert name not in vars(CycNumber), name
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        x * x
    with pytest.raises(AttributeError):
        x.level = 6
    assert (x.level, x.num, x.den) == (12, (0, 0, -8, -7), 4)
    y = CycNumber.from_power_coeffs(12, [2, 0, 6, 8, 2], 4)
    assert (y.level, y.num, y.den) == (12, (0, 0, 2, 2), 1)
    # galois_apply answers in its argument's class
    assert type(galois_apply(5, x)) is CycNumber
    assert type(galois_apply(5, Cyc.of(x))) is Cyc
    assert galois_apply(5, Cyc.of(x)) == Cyc.of(galois_apply(5, x))


def test_galois_examples():
    i = Cyc.zeta(4, 1)
    assert galois_apply(3, i) == -i
    for e in (5, 8, 12):
        real = Cyc.zeta(e, 1) + Cyc.zeta(e, e - 1)
        assert galois_apply(e - 1, real) == real


def test_galois_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        galois_apply(2, Cyc.zeta(4, 1))


@given(st.integers(min_value=2, max_value=24), st.data())
def test_galois_composition_law(e, data):
    units = [k for k in range(1, e + 1) if __import__("math").gcd(k, e) == 1]
    k = data.draw(st.sampled_from(units))
    l = data.draw(st.sampled_from(units))
    x = Cyc.zeta(e, 1) + Cyc.from_rational(e, data.draw(
        st.integers(min_value=-5, max_value=5)))
    assert galois_apply(k, galois_apply(l, x)) == galois_apply(k * l % e, x)
    assert galois_apply(1, x) == x


def test_galois_permutes_roots():
    import math

    for e in (7, 9, 16, 15):
        poly = cyclotomic_polynomial(e)
        for k in range(1, e):
            if math.gcd(k, e) != 1:
                continue
            root = galois_apply(k, Cyc.zeta(e, 1))
            acc = Cyc.from_rational(e, 0)
            power = Cyc.from_rational(e, 1)
            for c in poly:
                acc = acc + power * c
                power = power * root
            assert acc == 0


def _norm_by_conjugates(x):
    """The product of all phi(e) conjugates of x, one at a time."""
    e = x.level
    prod = Cyc.from_rational(e, 1)
    for k in range(1, e + 1):
        if math.gcd(k, e) == 1:
            prod = prod * galois_apply(k, x)
    return prod.as_rational()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_absolute_norm_matches_conjugates(e, data):
    n = euler_phi(e)
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=n, max_size=n))
    # zero the tail from a drawn index: 0 gives zero, 1 a rational
    keep = data.draw(st.integers(min_value=0, max_value=n))
    x = Cyc(e, coeffs[:keep] + [0] * (n - keep))
    assert absolute_norm(x) == _norm_by_conjugates(x)


def test_absolute_norm_sweep_matches_conjugates():
    # every level 1..72: odd levels take the lift to 2n, and n = 0 and
    # n = 2 mod 4 both occur; a dense element with odd and even powers
    for e in range(1, 73):
        n = euler_phi(e)
        coeffs = [Fraction((3 * i * i + 5 * i + 7 * e) % 9 - 4, 1 + i % 3)
                  for i in range(n)]
        x = Cyc(e, coeffs)
        assert absolute_norm(x) == _norm_by_conjugates(x), e
        y = Cyc.from_rational(e, 2) - Cyc.zeta(e, 1)
        assert absolute_norm(y) == _norm_by_conjugates(y), e


def test_absolute_norm_examples():
    assert absolute_norm(Cyc.from_rational(4, 5)) == 25
    assert absolute_norm(Cyc.from_rational(4, 1) + Cyc.zeta(4, 1)) == 2
    for p in (3, 5, 7, 11):
        assert is_prime(p)
        x = Cyc.from_rational(p, 1) - Cyc.zeta(p, 1)
        assert absolute_norm(x) == p
    for e in (1, 2, 7, 60):
        assert absolute_norm(Cyc.from_rational(e, 0)) == 0
        r = Fraction(-7, 3)
        assert absolute_norm(Cyc.from_rational(e, r)) == r ** euler_phi(e)


@settings(max_examples=40)
@given(
    st.sampled_from([4, 5, 8, 12]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_absolute_norm_multiplicative(e, xs, ys):
    x = Cyc.from_power_coeffs(e, xs)
    y = Cyc.from_power_coeffs(e, ys)
    assert absolute_norm(x * y) == absolute_norm(x) * absolute_norm(y)


def test_pi_examples():
    assert pi_element(2) == 2
    z8 = Cyc.zeta(8, 1)
    assert pi_element(3) == Cyc.from_rational(8, 2) + z8 + galois_apply(7, z8)


def test_pi_recursion_and_norm():
    # (pi_m - 2)^2 = pi_{m-1} after lifting, and the norm down to Q is 2
    # (absolute norm 4 = 2^2 since the pi's live in the real subfield)
    for m in range(3, 7):
        pi = pi_element(m)
        prev = pi_element(m - 1).lift(2**m)
        assert (pi - 2) * (pi - 2) == prev
        assert absolute_norm(pi) == 4
    assert absolute_norm(pi_element(2)) == 4


def test_pi_stepwise_relative_norm():
    # conjugate over the next real subfield: sigma_k with k = 2^(m-1)+1
    # sends zeta + zeta^-1 to its negative, so N(pi_m) = 4 - pi_{m-1}
    for m in range(3, 7):
        pi = pi_element(m)
        k = 2 ** (m - 1) + 1
        step = pi * galois_apply(k, pi)
        assert step == Cyc.from_rational(2**m, 4) - pi_element(m - 1).lift(2**m)


def _reduce(level, coeffs):
    """sum_j coeffs[j] zeta^j on the power basis, in Fractions: fold mod
    x^level - 1, then long division by Phi_level."""
    acc = [Fraction(0)] * level
    for j, c in enumerate(coeffs):
        acc[j % level] += c
    phi = cyclotomic_polynomial(level)
    n = len(phi) - 1
    for i in range(level - 1, n - 1, -1):
        c = acc[i]
        for j, p in enumerate(phi):
            acc[i - n + j] -= c * p
    return tuple(acc[:n])


def _check_invariants(x):
    assert x.den > 0
    assert all(isinstance(c, int) for c in x.num) and isinstance(x.den, int)
    assert math.gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.num == (0,) * len(x.num) and x.den == 1


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_integer_representation_matches_fractions(e, data):
    n = euler_phi(e)
    xs = data.draw(st.lists(_fractions, min_size=n, max_size=n))
    ys = data.draw(st.lists(_fractions, min_size=n, max_size=n))
    q = data.draw(_fractions.filter(bool))
    k = data.draw(st.sampled_from([k for k in range(1, e + 1) if math.gcd(k, e) == 1]))
    step = data.draw(st.integers(min_value=1, max_value=3))
    x, y = Cyc(e, xs), Cyc(e, ys)
    conv = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            conv[i + j] += a * b
    lifted = [Fraction(0)] * (n * step)
    for j, a in enumerate(xs):
        lifted[j * step] = a
    turned = [Fraction(0)] * e
    for i, a in enumerate(xs):
        turned[i * k % e] += a
    cases = [
        (x + y, tuple(a + b for a, b in zip(xs, ys))),
        (x - y, tuple(a - b for a, b in zip(xs, ys))),
        (-x, tuple(-a for a in xs)),
        (x * y, _reduce(e, conv)),
        (x * q, tuple(a * q for a in xs)),
        (x / q, tuple(a / q for a in xs)),
        (x.lift(e * step), _reduce(e * step, lifted)),
        (galois_apply(k, x), _reduce(e, turned)),
    ]
    for result, expected in cases:
        _check_invariants(result)
        assert result.coeffs == expected
    _check_invariants(x - x)
    assert hash(Cyc.from_rational(e, q)) == hash(q)
    assert Cyc.from_rational(e, q) == q


def test_hash_agrees_across_levels():
    z5 = Cyc.zeta(5)
    assert z5 == z5.lift(15)
    assert len({z5, z5.lift(15)}) == 1
    assert hash(Cyc.zeta(12, 5)) == hash(Cyc.zeta(12, 5).lift(60))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=2, max_value=4),
       st.data())
def test_hash_is_level_independent(e, k, data):
    n = euler_phi(e)
    x = Cyc(e, data.draw(st.lists(_fractions, min_size=n, max_size=n)))
    assert hash(x) == hash(x.lift(k * e))

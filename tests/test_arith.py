"""Integer and (Z/mZ)* substrate."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmfields.arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    multiplicative_order,
    smallest_primitive_root,
    subgroup,
    unit_group,
)
from cmfields.errors import DegreeBoundExceeded
from charoracle import discrete_log_table
from quadoracle import _xgcd, crt


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(40) == [(2, 3), (5, 1)]
    assert factorize(125000) == [(2, 3), (5, 6)]


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    last = 1
    for p, e in factorize(n):
        assert p > last and is_prime(p) and e >= 1
        last = p
        prod *= p**e
    assert prod == n


def test_factorize_memo_matches_its_body():
    """The per-process memo returns what trial division returns, as a
    fresh list each time, so a caller that changes its list changes no
    later answer."""
    for n in range(1, 10**4 + 1):
        assert factorize(n) == factorize.__wrapped__(n), n
    first = factorize(360)
    assert type(first) is list and first == [(2, 3), (3, 2), (5, 1)]
    first.append((7, 1))
    first[0] = (2, 99)
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(360) is not factorize(360)
    with pytest.raises(ValueError):
        factorize(0)


def test_unit_group_examples():
    g5 = unit_group(5)
    assert g5.generators == (2,) and g5.orders == (4,)
    g8 = unit_group(8)
    assert g8.generators == (7, 5) and g8.orders == (2, 2)
    g1 = unit_group(1)
    assert g1.generators == () and g1.orders == ()


def test_unit_group_canonical_choices():
    # smallest primitive root for odd prime powers, 3 for modulus 4,
    # (-1, 5) for 2^k with k >= 3
    assert unit_group(4).generators == (3,)
    assert unit_group(9).generators == (2,)
    assert unit_group(49).generators == (3,)
    assert unit_group(16).generators == (15, 5)
    assert unit_group(32).generators == (31, 5)


def test_unit_group_lift_matches_crt():
    """Each generator is the residue mod m that is its block's generator
    mod q and 1 mod m/q: one modular inverse gives what the general CRT
    gives."""
    for m in range(1, 20001):
        want = []
        for p, e in factorize(m):
            q = p**e
            want += [crt([g, 1], [q, m // q]) for g in unit_group(q).generators]
        assert unit_group.__wrapped__(m).generators == tuple(want), m


def test_exponent_residue_bijection_exhaustive():
    # the discrete-log map is a bijection onto residues coprime to m
    for m in range(1, 2001):
        ug = unit_group(m)
        assert math.prod(ug.orders) == euler_phi(m)
        table = discrete_log_table(m)
        assert len(table) == euler_phi(m)
        assert all(math.gcd(a, m) == 1 for a in table)
        assert len(set(table.values())) == euler_phi(m)
        if m % 97 == 0:
            # keep cache memory bounded during the sweep
            discrete_log_table.cache_clear()
    discrete_log_table.cache_clear()


def _subgroup_by_powers(orders, gens):
    """Subgroup generated by exponent vectors: add every multiple t g,
    t < lcm of the orders, of each generator to every element so far."""
    group = {(0,) * len(orders)}
    for g in gens:
        group = {tuple((x + t * y) % n for x, y, n in zip(h, g, orders))
                 for h in group for t in range(math.lcm(*orders))}
    return group


def test_subgroup_matches_powers():
    rng = random.Random(20129)
    for m in range(1, 120):
        orders = unit_group(m).orders
        for _ in range(10):
            gens = [tuple(rng.randrange(3 * o) for o in orders)
                    for _ in range(rng.randint(0, 3))]
            assert subgroup(orders, gens) == _subgroup_by_powers(orders, gens), (m, gens)


def test_subgroup_size_bound():
    assert len(subgroup((2, 4), [(1, 0), (0, 1)], max_size=8)) == 8
    with pytest.raises(DegreeBoundExceeded, match="degree exceeds bound 7"):
        subgroup((2, 4), [(1, 0), (0, 1)], max_size=7)


def test_generator_orders_are_exact():
    for m in (3, 4, 5, 8, 16, 35, 40, 81, 100):
        ug = unit_group(m)
        for g, o in zip(ug.generators, ug.orders):
            assert multiplicative_order(g, m) == o


def test_smallest_primitive_root():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(23) == 5


def test_crt():
    assert crt([1, 2], [4, 5]) == 17
    assert crt([0, 0], [3, 7]) == 0


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_bezout_with_nonnegative_gcd(a, b):
    g, u, v = _xgcd(a, b)
    assert g == math.gcd(a, b) and a * u + b * v == g


def test_divisors_and_squarefree():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert is_squarefree(30) and not is_squarefree(12)


def test_kronecker_against_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, 40):
            if a % p == 0:
                assert kronecker(a, p) == 0
            else:
                assert kronecker(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
    # the (a/2) factor
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(40, 2) == 0


def test_kronecker_rejects_n_below_one():
    for n in (0, -1, -8):
        with pytest.raises(ValueError, match="n >= 1"):
            kronecker(5, n)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if y != 0:
        assert (x / y) * y == x


@given(rationals)
def test_rational_normalization_idempotent(x):
    again = Fraction(x.numerator, x.denominator)
    assert again.numerator == x.numerator and again.denominator == x.denominator
    assert again.denominator >= 1

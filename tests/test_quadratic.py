"""Quadratic-field oracles: forms, class numbers, units, ideals."""

import random

import pytest

from cmfields import unitindex
from cmfields.arith import factorize, is_prime
from cmfields.errors import NotFundamentalDiscriminant
from cmfields.fields import is_fundamental_discriminant
from cmfields.quadratic import (
    QuadForm,
    QuadIdeal,
    SplitType,
    class_number,
    form_cycle,
    fundamental_unit_norm,
    ideal_from_form,
    ideal_mul,
    ideal_pow,
    ideal_sqrt_of_element,
    is_principal,
    is_reduced,
    principal_form,
    reduce_form,
    reduced_forms,
    split_prime,
    unit_ideal,
)
from cmfields.theorems import sweep_v4


def test_class_number_examples():
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert class_number(40) == 2
    assert class_number(-20) == 2
    assert class_number(5) == 1
    assert class_number(136) == 2


def test_class_number_memo_matches_fresh_count():
    """Both signs of each |d| <= 3000: h(24) = 1 but h(-24) = 2, so a memo
    keyed on |d| would answer one of them wrongly."""
    for d in range(-3000, 3001):
        if is_fundamental_discriminant(d):
            assert class_number(d) == class_number.__wrapped__(d), d
            assert class_number(d, narrow=True) == class_number.__wrapped__(
                d, narrow=True), d


def test_reduced_forms_for_minus23():
    forms = set(reduced_forms(-23))
    assert forms == {QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)}


def test_class_number_rejects_non_fundamental():
    with pytest.raises(NotFundamentalDiscriminant):
        class_number(-12)


def test_known_class_numbers_table():
    # classical values, definite and indefinite
    known = {-3: 1, -7: 1, -8: 1, -15: 2, -47: 5, -84: 4, 8: 1, 12: 1,
             13: 1, 60: 2, 229: 3}
    for d, h in known.items():
        assert class_number(d) == h, d


def test_fundamental_unit_norm_examples():
    assert fundamental_unit_norm(8) == -1
    assert fundamental_unit_norm(136) == 1
    assert fundamental_unit_norm(5) == -1
    assert fundamental_unit_norm(12) == 1
    assert fundamental_unit_norm(40) == -1  # 3 + sqrt(10)


def test_unit_norm_matches_pell_solution():
    # x^2 - D y^2 = -4 solvable iff norm -1 (brute force small D)
    for D in (5, 8, 13, 17, 24, 28, 40, 41, 60, 61):
        if not is_fundamental_discriminant(D):
            continue
        solvable = any(
            x * x - D * y * y == -4
            for y in range(1, 200)
            for x in range(1, 200)
        )
        assert solvable == (fundamental_unit_norm(D) == -1), D


def _transport(f: QuadForm, p, q, r, s) -> QuadForm:
    # f(px + qy, rx + sy) for a determinant-1 matrix
    assert p * s - q * r == 1
    a = f.a * p * p + f.b * p * r + f.c * r * r
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    c = f.a * q * q + f.b * q * s + f.c * s * s
    return QuadForm(a, b, c)


def test_is_principal_is_a_class_function():
    rng = random.Random(7)
    for D in (-23, -20, -84, 40, 136, 229):
        base = reduced_forms(D) if D < 0 else [principal_form(D)]
        for f in base:
            want = is_principal(ideal_from_form(reduce_form(f)))
            g = f
            for _ in range(6):
                if rng.random() < 0.5:
                    g = _transport(g, 1, rng.randint(-3, 3), 0, 1)
                else:
                    g = _transport(g, 1, 0, rng.randint(-3, 3), 1)
            if g.a > 0:
                assert is_principal(ideal_from_form(g)) == want, (D, f, g)


def test_reduction_reaches_reduced_forms():
    rng = random.Random(3)
    for D in (-23, -84, 40, 136):
        g = principal_form(D)
        for _ in range(8):
            g = _transport(g, 1, rng.randint(-4, 4), 0, 1)
            g = _transport(g, 1, 0, rng.randint(-2, 2), 1)
        assert is_reduced(reduce_form(g))
        assert reduce_form(g).discriminant == D


def test_split_prime_examples():
    assert split_prime(5, 2) == (SplitType.INERT, None)
    typ, ideal = split_prime(40, 2)
    assert typ == SplitType.RAMIFIED and ideal.a == 2
    typ, ideal = split_prime(-4, 5)
    assert typ == SplitType.SPLIT and ideal.a == 5


def test_split_prime_partition():
    for D in (-23, -20, -4, 8, 40, 136):
        for p in (2, 3, 5, 7, 11, 13, 17):
            typ, ideal = split_prime(D, p)
            assert (typ == SplitType.RAMIFIED) == (D % p == 0)
            if typ == SplitType.INERT:
                assert ideal is None
            else:
                assert ideal.a == p
                # the form genuinely has discriminant D
                assert ideal.form().discriminant == D


def test_ramified_ideal_squares_to_p():
    for D, p in ((40, 2), (-20, 2), (-20, 5), (136, 17)):
        typ, ideal = split_prime(D, p)
        assert typ == SplitType.RAMIFIED
        # square is the principal part (p), dropped as content
        assert ideal_pow(ideal, 2).a == 1


def test_ideal_mul_conjugate_is_trivial():
    for D in (-23, -20, 136):
        typ, ideal = split_prime(D, 3 if D != -23 else 2)
        if typ == SplitType.INERT:
            continue
        conj = QuadIdeal(D, ideal.a, -ideal.b)
        assert ideal_mul(ideal, conj).a == 1


def test_ideal_sqrt_examples():
    assert ideal_sqrt_of_element(8, -3) is None
    got = ideal_sqrt_of_element(40, -2)
    assert got is not None and got.a == 2
    got = ideal_sqrt_of_element(5, 4)
    assert got is not None and is_principal(got)


def test_ideal_sqrt_against_direct_squaring():
    for D, n in ((40, 10), (8, 2), (136, 34), (-20, -20), (12, 12)):
        got = ideal_sqrt_of_element(D, n)
        assert got is not None
        # the primitive part of got^2 matches the primitive part of (n)
        sq = ideal_pow(got, 2)
        expect = unit_ideal(D)
        for p, e in factorize(abs(n)):
            typ, ideal = split_prime(D, p)
            if typ == SplitType.RAMIFIED and e % 2:
                expect = ideal_mul(expect, ideal)
        want = ideal_pow(expect, 2)
        assert (sq.a, sq.b % (2 * sq.a)) == (want.a, want.b % (2 * want.a))


def test_unit_ideal_is_principal():
    for D in (-23, -4, 40):
        assert is_principal(unit_ideal(D))


def test_principality_examples_from_unit_index_cases():
    _, b34 = split_prime(136, 2)
    assert is_principal(b34)  # 6 + sqrt(34) has norm 2
    _, b10 = split_prime(40, 2)
    assert not is_principal(b10)  # x^2 - 10 y^2 = +-2 insoluble mod 5


def test_unit_norm_period_parity():
    # norm -1 iff the relevant continued-fraction period is odd; checked
    # indirectly: narrow = wide exactly when norm is -1
    for D in range(5, 501):
        if not is_fundamental_discriminant(D):
            continue
        narrow = class_number(D, narrow=True)
        wide = class_number(D)
        if fundamental_unit_norm(D) == -1:
            assert narrow == wide
        else:
            assert narrow == 2 * wide


def test_form_cycle_closes():
    for D in (40, 136, 229):
        f = principal_form(D)
        cycle = form_cycle(f)
        assert reduce_form(f) in cycle
        assert all(g.discriminant == D for g in cycle)
        assert len(cycle) % 2 == 0  # rho alternates the sign of a


def _is_principal_whole_cycle(I):
    """is_principal as first written: the whole form cycle, then any()."""
    f = I.form()
    if I.D < 0:
        return reduce_form(f) == principal_form(I.D)
    return any(abs(g.a) == 1 for g in form_cycle(f))


def _ideal_sqrt_by_split_prime(D, n):
    """ideal_sqrt_of_element as first written: split_prime on every prime."""
    sqrt = unit_ideal(D)
    for p, e in factorize(abs(n)):
        typ, ideal = split_prime(D, p)
        if typ == SplitType.RAMIFIED:
            if e % 2:
                sqrt = ideal_mul(sqrt, ideal)
        elif e % 2:
            return None
    if D < 0:
        return ideal_from_form(reduce_form(sqrt.form()))
    return sqrt.normalized()


def test_is_principal_matches_whole_cycle_on_small_prime_ideals():
    checked = principal = 0
    for D in range(5, 2001):
        if not is_fundamental_discriminant(D):
            continue
        for p in filter(is_prime, range(2, 50)):
            _, ideal = split_prime(D, p)
            if ideal is not None:
                got = is_principal(ideal)
                assert got == _is_principal_whole_cycle(ideal), (D, p)
                checked, principal = checked + 1, principal + got
    assert 0 < principal < checked


def test_ideal_sqrt_matches_split_prime_walk_on_the_v4_sweep(monkeypatch):
    """Every (D, d1) that the biquadratic verdict meets on
    `verify v4 --sweep`, and the principality of each square root."""
    seen = set()

    def recorded(D, n):
        seen.add((D, n))
        return ideal_sqrt_of_element(D, n)

    monkeypatch.setattr(unitindex, "ideal_sqrt_of_element", recorded)
    sweep_v4(2000)
    results = set()
    for D, n in sorted(seen):
        got = ideal_sqrt_of_element(D, n)
        assert got == _ideal_sqrt_by_split_prime(D, n), (D, n)
        if got is not None:
            assert is_principal(got) == _is_principal_whole_cycle(got), (D, n)
        results.add(None if got is None else is_principal(got))
    assert {False, True} <= results

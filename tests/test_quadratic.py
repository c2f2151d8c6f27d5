"""Quadratic-field oracles: forms, class numbers, units, ideals."""

import inspect
import random
from math import isqrt

import pytest

from cmfields import quadratic, unitindex
from cmfields.arith import factorize, is_fundamental_discriminant, is_prime
from cmfields.errors import (InternalInconsistency, NotFundamentalDiscriminant,
                             PreconditionViolated)
from cmfields.quadratic import (
    QuadForm,
    QuadIdeal,
    SplitType,
    _cycle,
    class_number,
    fundamental_unit_norm,
    ideal_from_form,
    ideal_sqrt_of_element,
    is_principal,
    is_reduced,
    principal_form,
    reduce_form,
    reduced_forms,
    reduced_indefinite_forms,
    split_prime,
)
from cmfields.theorems import sweep_v4
from quadoracle import ideal_mul, normalized, unit_ideal


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
        assert ideal_mul(ideal, ideal).a == 1


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
        sq = ideal_mul(got, got)
        expect = unit_ideal(D)
        for p, e in factorize(abs(n)):
            typ, ideal = split_prime(D, p)
            if typ == SplitType.RAMIFIED and e % 2:
                expect = ideal_mul(expect, ideal)
        want = ideal_mul(expect, expect)
        assert (sq.a, sq.b % (2 * sq.a)) == (want.a, want.b % (2 * want.a))


def test_unit_ideal_is_principal():
    for D in (-23, -4, 40):
        assert is_principal(unit_ideal(D))


def test_principality_examples_from_unit_index_cases():
    _, b34 = split_prime(136, 2)
    assert is_principal(b34)  # 6 + sqrt(34) has norm 2
    _, b10 = split_prime(40, 2)
    assert not is_principal(b10)  # x^2 - 10 y^2 = +-2 insoluble mod 5


# -- the QuadForm walk as first written, the oracle for quadratic._cycle


def _lt_sqrt(x, D):
    """x < sqrt(D), exactly (D > 0, not a square)."""
    return x < 0 or x * x < D


def _is_reduced_indefinite(f):
    D = f.discriminant
    return (0 < f.b and _lt_sqrt(f.b, D) and _lt_sqrt(2 * abs(f.a) - f.b, D)
            and not _lt_sqrt(2 * abs(f.a) + f.b, D))


def _normalize_indefinite(f):
    D = f.discriminant
    a, b = f.a, f.b
    s = isqrt(D)
    aa = abs(a)
    b2 = b % (2 * aa)
    if aa > s:
        # b into (-|a|, |a|]
        if b2 > aa:
            b2 -= 2 * aa
    else:
        # b into (s - 2|a|, s]
        b2 += 2 * aa * ((s - b2) // (2 * aa))
    return QuadForm(a, b2, (b2 * b2 - D) // (4 * a))


def _rho(f):
    return _normalize_indefinite(QuadForm(f.c, -f.b, f.a))


def form_cycle(f):
    """The cycle of reduced forms that f reduces into (D > 0), starting at
    the reduced form of f."""
    g = _normalize_indefinite(f)
    while not _is_reduced_indefinite(g):
        g = _rho(g)
    cycle = [g]
    while (g := _rho(cycle[-1])) != cycle[0]:
        cycle.append(g)
    return cycle


def _reduced_indefinite_forms_by_scan(D):
    """Every (a, b, c) with b > 0 and a c = (b^2 - D)/4 that the oracle's
    reducedness test accepts."""
    out = []
    for b in range(D % 2, isqrt(D) + 1, 2):
        n = (D - b * b) // 4
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                for a in {d, n // d}:
                    for f in (QuadForm(a, b, -n // a), QuadForm(-a, b, n // a)):
                        if _is_reduced_indefinite(f):
                            out.append(f)
    return out


def test_cycle_matches_quadform_walk():
    """Every fundamental D < 20,001: the cycle of the principal form, and of
    the prime above 2 where 2 is not inert."""
    count = above2 = 0
    for D in range(5, 20001):
        if not is_fundamental_discriminant(D):
            continue
        f = principal_form(D)
        assert list(_cycle(f)) == form_cycle(f), D
        _, ideal = split_prime(D, 2)
        if ideal is not None:
            f = ideal.form()
            assert list(_cycle(f)) == form_cycle(f), D
            above2 += 1
        count += 1
    assert count == 6081 and 0 < above2 < count


def test_class_number_matches_cycle_partition():
    """h(D) for every fundamental 0 < D <= 8000 against the oracle's own
    scan for reduced forms, split into oracle cycles."""
    for D in range(5, 8001):
        if not is_fundamental_discriminant(D):
            continue
        forms = set(_reduced_indefinite_forms_by_scan(D))
        assert sorted(reduced_indefinite_forms(D)) == sorted(forms), D
        cycles = 0
        while forms:
            forms -= set(form_cycle(next(iter(forms))))
            cycles += 1
        narrow_equals_wide = _unit_norm_by_continued_fraction(D) == -1
        assert class_number(D) == (cycles if narrow_equals_wide
                                   else cycles // 2), D


def _narrow_class_number(D):
    """h+(D) for D > 0: the number of cycles of reduced forms."""
    forms = set(reduced_indefinite_forms(D))
    cycles = 0
    while forms:
        forms -= set(form_cycle(next(iter(forms))))
        cycles += 1
    return cycles


def _unit_norm_by_continued_fraction(D):
    """fundamental_unit_norm as first written: -1 exactly when the period
    of the continued fraction of (P + sqrt(d))/Q is odd, for the standard
    surd of D, (1 + sqrt(D))/2 or sqrt(D/4)."""
    P, Q, d = (1, 2, D) if D % 4 == 1 else (0, 1, D // 4)
    s = isqrt(d)
    seen = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(seen)
        a = (P + s) // Q if Q > 0 else (P + s - Q + 1) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
    return -1 if (len(seen) - seen[(P, Q)]) % 2 else 1


def test_unit_norm_matches_continued_fraction():
    count = 0
    for D in range(5, 20001):
        if is_fundamental_discriminant(D):
            assert fundamental_unit_norm(D) == _unit_norm_by_continued_fraction(D), D
            count += 1
    assert count == 6081


def test_unit_norm_period_parity():
    # narrow = wide exactly when the fundamental unit has norm -1
    for D in range(5, 501):
        if not is_fundamental_discriminant(D):
            continue
        narrow = _narrow_class_number(D)
        wide = class_number(D)
        if fundamental_unit_norm(D) == -1:
            assert narrow == wide
        else:
            assert narrow == 2 * wide


def test_form_cycle_closes():
    for D in (40, 136, 229):
        f = principal_form(D)
        cycle = list(_cycle(f))
        assert reduce_form(f) == cycle[0]
        assert all(QuadForm(*g).discriminant == D for g in cycle)
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
    return normalized(sqrt)


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


def test_ideal_sqrt_closed_form_matches_ideal_product():
    """Every fundamental D with |D| <= 1000, both signs, and every
    0 < |n| <= 200: the closed form against the product of the ramified
    primes by `ideal_mul`."""
    pairs = roots = 0
    for D in range(-1000, 1001):
        if not is_fundamental_discriminant(D):
            continue
        for n in range(-200, 201):
            if n:
                got = ideal_sqrt_of_element(D, n)
                assert got == _ideal_sqrt_by_split_prime(D, n), (D, n)
                pairs, roots = pairs + 1, roots + (got is not None)
    assert pairs == 242800 and roots == 29832


# The closed form's b choice, and the choice swapped
_B_CHOICE = "a if D % 2 or (a % 2 == 0 and D // 4 % 2) else 0"
_B_SWAPPED = "0 if D % 2 or (a % 2 == 0 and D // 4 % 2) else a"


def test_a_swapped_b_choice_raises():
    """A committed mutant: with b = 0 and b = a swapped, the ideal check in
    `QuadIdeal` raises, in each branch of the choice (D odd; D/4 odd with
    a odd and with a even; D/4 even with a even)."""
    source = inspect.getsource(quadratic.ideal_sqrt_of_element)
    assert source.count(_B_CHOICE) == 1
    namespace = dict(vars(quadratic))
    exec(source.replace(_B_CHOICE, _B_SWAPPED), namespace)
    mutant = namespace["ideal_sqrt_of_element"]
    for D, n in ((5, 1), (12, 1), (-20, 2), (8, 2)):
        assert ideal_sqrt_of_element(D, n) is not None
        with pytest.raises(PreconditionViolated, match="is not an ideal"):
            mutant(D, n)


def _normalize_off_by_one(a, b, D, s):
    """`quadratic._normalize_indefinite` with the offset (s - b - 1) // (2|a|)
    in place of (s - b) // (2|a|): b lands 2|a| low whenever s - b is a
    multiple of 2|a|.  For D = 8 every form it returns has b = 0, so none
    is reduced and an unbounded reduction loop would never end."""
    aa = abs(a)
    b %= 2 * aa
    if aa > s:
        if b > aa:
            b -= 2 * aa
    else:
        b += 2 * aa * ((s - b - 1) // (2 * aa))
    return a, b, (b * b - D) // (4 * a)


def test_a_faulty_normalizer_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(quadratic, "_normalize_indefinite", _normalize_off_by_one)
    with pytest.raises(InternalInconsistency, match="reduction bound exceeded"):
        fundamental_unit_norm(8)

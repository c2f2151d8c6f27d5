"""Q(zeta_m) without its character group: the closed-form odd orbit
representatives per conductor, the product of their factors, and the
lazily built field, each against the generic path it stands in for; and
the ordering oracle in `charoracle` (`orbit_min`,
`cyclotomic_odd_orbit_reps`) against brute force and `galois_orbits`.

The generic path is `AbelianField(all_characters(m))`: it enumerates the
character group, partitions the odd characters with `galois_orbits`, and
takes the least primitive key of each orbit.
"""

import math
import random
from fractions import Fraction

import pytest

from cmfields import characters, fields, hminus
from cmfields.arith import divisors, euler_phi, unit_group
from cmfields.characters import (_block_map, all_characters, check_odd_orbit_reps,
                                 galois_orbits, odd_primitive_orbit_reps, orbit_rep)
from cmfields.errors import InternalInconsistency, NonIntegralResult
from cmfields.fields import AbelianField, cyclotomic_field
from cmfields.hminus import minus_class_number, orbit_factors

from charoracle import cyclotomic_odd_orbit_reps, orbit_min

LEVELS = [m for m in range(3, 201) if m % 4 != 2]


def _brute_orbit_min(exponents, orders):
    n = 1
    for e, o in zip(exponents, orders):
        n = math.lcm(n, o // math.gcd(e, o))
    return min(tuple(k * e % o for e, o in zip(exponents, orders))
               for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_orbit_min_matches_brute_force():
    rng = random.Random(21)
    for m in range(1, 800):
        orders = unit_group(m).orders
        for _ in range(2):
            x = tuple(rng.randrange(o) for o in orders)
            assert orbit_min(x, orders) == _brute_orbit_min(x, orders), (m, x)


def test_orbit_min_where_the_lift_is_not_monotone():
    """5 is the least primitive root mod p = 40487 but not mod p^2, so the
    lift to p^2 multiplies each exponent by a discrete log and the least
    member at p is not the least member at p^2."""
    p = 40487
    orders = unit_group(p * p).orders
    reps = odd_primitive_orbit_reps(p)
    assert [chi.order for chi in reps] == [40486, 1306, 62, 2]
    moved = 0
    for chi in reps:
        lifted = _block_map(p, chi.exponents, p * p)
        least = orbit_min(lifted, orders)
        assert least == _brute_orbit_min(lifted, orders), chi
        moved += least != lifted
    assert moved


def test_reps_are_the_least_members_of_the_odd_primitive_orbits():
    for f in range(1, 601):
        if f % 4 == 2:
            assert odd_primitive_orbit_reps(f) == ()
            continue
        odd = [c for c in all_characters(f) if c.is_odd() and c.conductor() == f]
        want = sorted(orbit_rep(orbit).exponents for orbit in galois_orbits(odd))
        got = odd_primitive_orbit_reps(f)
        assert [chi.exponents for chi in got] == want, f
        assert all(chi.modulus == f for chi in got)


def test_cyclotomic_reps_follow_galois_orbit_order():
    for m in LEVELS:
        eager = AbelianField(all_characters(m))
        want = [orbit_rep(orbit).primitive_key()
                for orbit in galois_orbits(eager.odd_characters())]
        got = [chi.primitive_key() for chi in cyclotomic_odd_orbit_reps(m)]
        assert got == want, m


def _report(K):
    report = minus_class_number(K)
    return report.q, report.w, report.rule, report.h_minus


def test_minus_class_number_matches_the_character_group():
    for m in range(3, 401):
        if m % 4 == 2:
            continue
        lazy = cyclotomic_field(m, max_degree=400)
        eager = AbelianField(all_characters(m))
        got = _report(lazy)
        assert lazy._chars is None, m  # h- read no character group
        assert got == _report(eager), m
        assert orbit_factors(lazy) == orbit_factors(eager), m


def test_conductor_product_matches_the_orbit_walk(monkeypatch):
    """h-(Q(zeta_m)) as a product of P(f) over f | m against the orbit walk
    on the eagerly built field, each with memos of its own, for every
    m <= 400 with phi(m) <= 256; and each P(f) against the product of the
    walk's orbit factors of conductor f."""
    levels = [m for m in range(3, 401) if m % 4 != 2 and euler_phi(m) <= 256]
    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    walked = {}
    for m in levels:
        K = AbelianField(all_characters(m))
        report = minus_class_number(K)
        walked[m] = (report.q, report.w, report.rule, report.h_minus), orbit_factors(K)
    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    monkeypatch.setattr(hminus, "_CONDUCTOR_FACTORS", {})
    for m in levels:
        K = cyclotomic_field(m)
        report = minus_class_number(K)
        assert K._chars is None, m
        assert (report.q, report.w, report.rule, report.h_minus) == walked[m][0], m
        assert orbit_factors(K) == walked[m][1], m
        for f in divisors(m):
            by_walk = math.prod((norm for name, norm in walked[m][1]
                                 if name.startswith(f"f={f}:")), start=Fraction(1))
            assert hminus._CONDUCTOR_FACTORS[f] == by_walk, (m, f)


def test_count_check_guards_the_conductor_product(monkeypatch):
    """With the memos empty, h-(Q(zeta_m)) builds each conductor's
    representatives, so a lost one raises there too."""
    least_units = characters._least_units

    def lossy(t, g):
        units = least_units(t, g)
        return units[:-1] if len(units) > 1 else units

    monkeypatch.setattr(characters, "_least_units", lossy)
    monkeypatch.setattr(hminus, "_CONDUCTOR_FACTORS", {})
    with pytest.raises(InternalInconsistency, match="orbit representatives mod 91"):
        minus_class_number(cyclotomic_field(91))


def test_integrality_check_guards_the_conductor_product(monkeypatch):
    minus_class_number(cyclotomic_field(23))
    monkeypatch.setitem(hminus._CONDUCTOR_FACTORS, 1, Fraction(1, 7))
    with pytest.raises(NonIntegralResult, match="3/7 is not a positive integer"):
        minus_class_number(cyclotomic_field(23))


def test_lazy_field_agrees_with_the_eager_one():
    for m in LEVELS:
        eager = AbelianField(all_characters(m))
        assert repr(cyclotomic_field(m)) == repr(eager)
        lazy = cyclotomic_field(m)
        assert lazy == eager and eager == lazy, m
        assert hash(cyclotomic_field(m)) == hash(eager), m
        lazy = cyclotomic_field(m)
        assert all(lazy.contains_character(c) for c in eager.chars), m
        assert cyclotomic_field(m).is_subfield_of(eager), m
        assert eager.is_subfield_of(cyclotomic_field(m)), m
        assert cyclotomic_field(m).chars == eager.chars, m
        assert cyclotomic_field(m).odd_characters() == eager.odd_characters(), m
        two, eager_two = (cyclotomic_field(m).two_primary_subfield(),
                          eager.two_primary_subfield())
        assert two == eager_two and repr(two) == repr(eager_two), m
        assert two.chars == eager_two.chars, m


def test_lazy_field_sets_its_invariants_without_characters():
    for m in LEVELS:
        K = cyclotomic_field(m)
        assert (K.modulus, K.conductor, K.degree) == (m, m, euler_phi(m))
        assert K.roots_of_unity_order() == (m if m % 2 == 0 else 2 * m)
        assert K.is_cm()
        assert K._chars is None and K._prim_keys is None, m
    # Q(zeta_1) = Q(zeta_2) = Q keeps the eager path and is not CM
    for m in (1, 2):
        K = cyclotomic_field(m)
        assert repr(K) == "AbelianField(conductor=1, degree=1)"
        assert not K.is_cm()


def test_characters_build_their_primitive_key_on_first_use():
    chi = all_characters(60)[7]
    assert chi._key is None
    key = chi.primitive_key()
    assert chi._key is key and chi.primitive_key() is key


@pytest.mark.parametrize("f", [3, 4, 5, 8, 16, 39, 40, 105, 120])
def test_count_check_fires_on_a_dropped_rep(f):
    reps = odd_primitive_orbit_reps(f)
    check_odd_orbit_reps(f, reps)
    for i in range(len(reps)):
        with pytest.raises(InternalInconsistency):
            check_odd_orbit_reps(f, reps[:i] + reps[i + 1:])
    even = [c for c in all_characters(f) if not c.is_odd() and c.conductor() == f]
    if even:
        with pytest.raises(InternalInconsistency):
            check_odd_orbit_reps(f, reps[:-1] + (even[0],))


def test_count_check_guards_the_enumeration(monkeypatch):
    """The check runs on every conductor the enumeration builds: a unit
    choice that loses one class drops one representative, and raises."""
    least_units = characters._least_units

    def lossy(t, g):
        units = least_units(t, g)
        return units[:-1] if len(units) > 1 else units

    monkeypatch.setattr(characters, "_least_units", lossy)
    with pytest.raises(InternalInconsistency):
        # mod 91 = 7 * 13, orders 3 and 12 leave two unit classes mod 3
        odd_primitive_orbit_reps(91)


def test_table_builds_no_character_group(monkeypatch, capsys):
    from cmfields.cli import main

    enumerated = []
    original = fields.all_characters

    def counted(m):
        enumerated.append(m)
        return original(m)

    monkeypatch.setattr(fields, "all_characters", counted)
    assert main(["table", "hminus", "--zeta-range", "3..60", "--csv"]) == 0
    assert capsys.readouterr().out
    assert enumerated == []
    # a compositum builds its characters when they are read, and so
    # enumerates the factors' groups then
    K = cyclotomic_field(5).compositum(cyclotomic_field(3))
    assert enumerated == []
    K.chars
    assert enumerated == [5, 3]


def test_two_primary_subfield_makes_no_block_map_calls(monkeypatch):
    calls = []
    original = characters._block_map

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(characters, "_block_map", counted)
    for m in LEVELS:
        cyclotomic_field(m).two_primary_subfield()
    assert calls == []


def test_block_product_counts_the_odd_primitive_characters():
    for f in range(1, 400):
        brute = sum(1 for c in all_characters(f)
                    if c.is_odd() and c.conductor() == f) if f % 4 != 2 else 0
        assert characters._odd_primitive_count(f) == brute, f

"""Minus class number engine: Bernoulli numbers and the exact formula."""

import math
import random
from fractions import Fraction

import pytest

from cmfields import hminus
from cmfields.arith import UnitGroupStructure, is_prime, unit_group
from cmfields.characters import DirichletCharacter, all_characters, galois_orbits
from cmfields.cli import main
from cmfields.cyclotomic import CycNumber, absolute_norm, galois_apply
from cmfields.errors import (
    EvenCharacter,
    InternalInconsistency,
    NotClosed,
    PrincipalCharacter,
)
from cmfields.fields import (
    AbelianField,
    cyclotomic_field,
    field_from_generators,
    is_fundamental_discriminant,
    quadratic_field,
)
from cmfields.hminus import (
    bernoulli_b1,
    minus_class_number,
    minus_partial_product,
    orbit_factor,
)
from cmfields.quadratic import class_number
from cmfields.theorems import _subfields


def test_bernoulli_examples():
    assert bernoulli_b1(DirichletCharacter(4, [1])) == Fraction(-1, 2)
    assert bernoulli_b1(DirichletCharacter(3, [1])) == Fraction(-1, 3)
    chi23 = [c for c in all_characters(23) if c.order == 2][0]
    assert bernoulli_b1(chi23) == -3  # equals -h(-23)


def _bernoulli_by_values(chi):
    """B_(1,chi) summed over a = 1..f, each chi(a) by its discrete log."""
    chi = chi.primitivize()
    f = chi.modulus
    acc = [0] * chi.order
    for a in range(1, f + 1):
        t = chi.value_exponent(a)
        if t is not None:
            acc[t] += a
    return CycNumber.from_power_coeffs(chi.order, acc) / f


def test_bernoulli_matches_values():
    count = 0
    for m in range(1, 120):
        for chi in all_characters(m):
            if chi.is_odd():
                assert bernoulli_b1(chi) == _bernoulli_by_values(chi), chi
                count += 1
    assert count == 2176


def _bernoulli_by_cosets(chi):
    """B_(1,chi) by the coset walk: (Z/fZ)* built one generator power at a
    time, each residue with its value exponent."""
    f, exps = chi.primitive_key()
    n = chi.order
    ug = unit_group(f)
    units = [(1, 0)]
    for g, o, e in zip(ug.generators, ug.orders, exps):
        step = e * n // o
        cosets = [units]
        for _ in range(o - 1):
            cosets.append([(a * g % f, (t + step) % n) for a, t in cosets[-1]])
        units = [u for coset in cosets for u in coset]
    acc = [0] * n
    for a, t in units:
        acc[t] += a
    return CycNumber.from_power_coeffs(n, acc, f)


def test_bernoulli_matches_coset_walk():
    count = 0
    for f in range(3, 250):
        for chi in all_characters(f):
            if chi.conductor() == f and chi.is_odd():
                assert bernoulli_b1(chi) == _bernoulli_by_cosets(chi), chi
                count += 1
    for d in range(-3000, -2):
        if is_fundamental_discriminant(d):
            (chi,) = quadratic_field(d).odd_characters()
            assert bernoulli_b1(chi) == _bernoulli_by_cosets(chi), d
            count += 1
    assert count == 6660


def test_bernoulli_certifies_the_residue_sum(monkeypatch):
    # a unit group that misstates an order walks too few residues
    def short(m):
        ug = unit_group(m)
        return UnitGroupStructure(m, ug.generators, (ug.orders[0] // 2,)
                                  + ug.orders[1:], ug.blocks)

    monkeypatch.setattr(hminus, "unit_group", short)
    with pytest.raises(InternalInconsistency):
        bernoulli_b1(DirichletCharacter(7, [1]))


def test_bernoulli_rejects_wrong_parity():
    with pytest.raises(PrincipalCharacter):
        bernoulli_b1(DirichletCharacter(5, [0]))
    with pytest.raises(EvenCharacter):
        bernoulli_b1(DirichletCharacter(5, [2]))


def test_primitivize_then_sum():
    # an imprimitive character must be summed over its conductor: the
    # lift of chi_{-4} to modulus 20 has the same B as chi_{-4} itself
    chi = DirichletCharacter(4, [1])
    assert bernoulli_b1(chi.at_modulus(20)) == bernoulli_b1(chi)
    assert bernoulli_b1(chi.at_modulus(12)) == Fraction(-1, 2)


def test_conjugate_pairing():
    for m in (5, 7, 9, 11, 13, 16, 20):
        for chi in all_characters(m):
            if not chi.is_odd():
                continue
            b = bernoulli_b1(chi)
            from cmfields.characters import char_pow

            conj = bernoulli_b1(char_pow(chi, -1))
            assert conj == galois_apply(chi.order - 1, b)


def test_minus_class_number_examples():
    rep = minus_class_number(quadratic_field(-4))
    assert rep.h_minus == 1 and rep.q == 1 and rep.w == 4
    assert rep.orbit_factors[0][1] == Fraction(1, 4)
    assert minus_class_number(quadratic_field(-23)).h_minus == 3
    assert minus_class_number(cyclotomic_field(20)).h_minus == 1
    assert minus_class_number(quadratic_field(-20)).h_minus == 2
    assert minus_class_number(cyclotomic_field(23)).h_minus == 3


def test_q_override_scales_result():
    base = minus_class_number(quadratic_field(-23))
    doubled = minus_class_number(quadratic_field(-23), q_override=2)
    assert doubled.h_minus == 2 * base.h_minus
    assert doubled.rule == "user-override"


def test_quadratic_agreement():
    for d in range(-200, 0):
        if not is_fundamental_discriminant(d):
            continue
        assert minus_class_number(quadratic_field(d)).h_minus == class_number(d), d


def test_integrality_small_conductors():
    # cyclotomic fields and quadratic fields of conductor <= 100:
    # NonIntegralResult must never fire
    for m in range(3, 101):
        if m % 4 == 2:
            continue
        K = cyclotomic_field(m)
        if K.is_cm():
            assert minus_class_number(K).h_minus >= 1


def test_known_cyclotomic_values():
    # first nontrivial minus class numbers of prime cyclotomic fields, and
    # h-(Q(zeta_p)) for the primes p < 100 from Washington's table
    known = {23: 3, 29: 8, 31: 9, 37: 37, 39: 2, 40: 1, 41: 121, 43: 211,
             47: 695, 53: 4889, 59: 41241, 61: 76301, 67: 853513,
             71: 3882809, 73: 11957417, 79: 100146415, 83: 838216959,
             89: 13379363737, 97: 411322824001}
    for m, h in known.items():
        assert minus_class_number(cyclotomic_field(m)).h_minus == h, m


def _bernoulli_numbers(top):
    """B_0..B_top from sum_(j<=k) C(k+1, j) B_j = 0 (k >= 1)."""
    b = [Fraction(1)]
    for k in range(1, top + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def test_kummer_criterion():
    # p | h-(Q(zeta_p)) iff p divides the numerator of some B_k,
    # k = 2, 4, ..., p - 3 (Washington, Introduction to Cyclotomic Fields,
    # Ch. 5); the norms of the larger fields come only from the kernel
    b = _bernoulli_numbers(196)
    irregular = []
    for p in range(5, 200):
        if not is_prime(p):
            continue
        h = minus_class_number(cyclotomic_field(p, max_degree=p - 1)).h_minus
        kummer = any(b[k].numerator % p == 0 for k in range(2, p - 2, 2))
        assert (h % p == 0) == kummer, p
        if kummer:
            irregular.append(p)
    assert irregular == [37, 59, 67, 101, 103, 131, 149, 157]


def test_orbit_invariance():
    odd = cyclotomic_field(20).odd_characters()
    rng = random.Random(11)
    reference = minus_partial_product(odd)
    for _ in range(5):
        shuffled = list(odd)
        rng.shuffle(shuffled)
        assert minus_partial_product(shuffled) == reference


def test_partial_product_examples():
    assert minus_partial_product([]) == 1
    assert minus_partial_product(quadratic_field(-4).odd_characters()) == Fraction(1, 4)


def test_partial_product_rejects_bad_sets():
    with pytest.raises(EvenCharacter):
        minus_partial_product([DirichletCharacter(5, [2])])
    with pytest.raises(NotClosed):
        minus_partial_product([DirichletCharacter(5, [1])])


def test_orbit_factor_is_norm_of_single_factor():
    chi = DirichletCharacter(5, [1])
    b = bernoulli_b1(chi)
    from cmfields.characters import char_pow
    from cmfields.cyclotomic import absolute_norm

    assert orbit_factor(chi) == absolute_norm(-b / 2)
    # and equals the plain product over the orbit
    prod = (-b / 2) * (-bernoulli_b1(char_pow(chi, 3)) / 2)
    assert orbit_factor(chi) == prod


def test_report_product_identity():
    for spec in (cyclotomic_field(20), cyclotomic_field(23), quadratic_field(-84)):
        rep = minus_class_number(spec)
        total = Fraction(rep.q * rep.w)
        for _, norm in rep.orbit_factors:
            total *= norm
        assert total == rep.h_minus


def test_orbit_factor_constant_on_orbits(monkeypatch):
    # the memo keys on the representative's primitive key; the value may
    # not depend on which member of the orbit represents it, and must be
    # the norm taken without the memo (mod 56 has two odd orbits of one
    # order and conductor)
    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    for m in range(3, 60):
        odd = [c for c in all_characters(m) if c.is_odd()]
        for orbit in galois_orbits(odd):
            values = {orbit_factor(c) for c in orbit}
            assert values == {absolute_norm(-bernoulli_b1(orbit[0]) / 2)}, orbit


def test_orbit_factor_divides_norm_of_b_by_power_of_minus_two(monkeypatch):
    """N(-B/2) = N(B) / (-2)^phi, checked against the norm of -B/2 itself
    on every orbit of `table hminus --zeta-range 3..140`; level 2 (odd
    phi = 1, where the sign shows) included."""
    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    levels = set()
    for m in range(3, 141):
        if m % 4 == 2:
            continue
        for orbit in galois_orbits(cyclotomic_field(m).odd_characters()):
            rep = hminus._orbit_rep(orbit)
            b = bernoulli_b1(rep)
            assert orbit_factor(rep) == absolute_norm(-b / 2), (m, rep.encode())
            levels.add(b.level)
    assert 2 in levels


def test_warm_and_cleared_memo_agree():
    fields = [cyclotomic_field(m) for m in range(3, 61) if m % 4 != 2]
    warm = [minus_class_number(K) for K in fields]
    for K, report in zip(fields, warm):
        hminus._ORBIT_FACTORS.clear()
        assert minus_class_number(K) == report


def test_one_bernoulli_sum_per_orbit(monkeypatch, capsys):
    keys = []
    original = hminus.bernoulli_b1

    def counted(chi):
        keys.append(chi.primitive_key())
        return original(chi)

    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    monkeypatch.setattr(hminus, "bernoulli_b1", counted)
    assert main(["table", "hminus", "--zeta-range", "3..40"]) == 0
    assert capsys.readouterr().out
    assert keys and len(keys) == len(set(keys))
    # partial products pick the same representatives: no new sums
    done = len(keys)
    minus_partial_product(cyclotomic_field(40).odd_characters())
    assert len(keys) == done


def _primitivized_orbit_names(K):
    """The orbit names as first computed: the (order, key)-least member of
    each orbit, made primitive and encoded."""
    return [min(orbit, key=lambda c: (c.order, c.primitive_key()))
            .primitivize().encode()
            for orbit in galois_orbits(K.odd_characters())]


def test_orbit_names_match_primitivized_representatives():
    fields = {K for m in range(1, 61) for K in _subfields(m) if K.is_cm()}
    fields = sorted(fields, key=lambda K: (K.conductor, K.degree))
    fields += [cyclotomic_field(m) for m in range(3, 141) if m % 4 != 2]
    for K in fields:
        # Q scales only the product; 2 keeps it integral on every field,
        # those the unit-index cascade does not cover included
        report = minus_class_number(K, q_override=2)
        names = [name for name, _ in report.orbit_factors]
        assert names == _primitivized_orbit_names(K), K


def test_orbit_names_do_not_depend_on_member_order(monkeypatch):
    """`galois_orbits` lists each orbit from its least exponent tuple,
    whose primitive key is the least too; the name must come from the
    canonical representative, not from that listing order."""
    fields = [cyclotomic_field(m) for m in (7, 15, 16, 20, 39, 55)]
    before = [minus_class_number(K).orbit_factors for K in fields]
    monkeypatch.setattr(hminus, "galois_orbits", lambda chars: [
        orbit[::-1] for orbit in galois_orbits(chars)])
    assert [minus_class_number(K).orbit_factors for K in fields] == before


def test_orbit_names_survive_a_generator_change():
    """5 is the smallest primitive root mod p = 40487 but not mod p^2, so the
    block map does not keep exponent order: at p^2 `galois_orbits` lists the
    odd orbit from f=40487:e=5877, at p from f=40487:e=653.  The name must
    still be the least primitive key, the same at either modulus."""
    p = 40487
    (o,) = unit_group(p * p).orders
    at_p2 = AbelianField([DirichletCharacter(p * p, [k * (o // 62)]) for k in range(62)])
    at_p = field_from_generators([at_p2.chars[1]])
    assert (at_p2.modulus, at_p.modulus, at_p.degree) == (p * p, p, 62)
    first = galois_orbits(at_p2.odd_characters())[0][0]
    assert first.primitive_key() == (p, (5877,))
    reports = [minus_class_number(K) for K in (at_p2, at_p)]
    for report in reports:
        assert [name for name, _ in report.orbit_factors] == [
            "f=40487:e=653", "f=40487:e=20243"]
    assert reports[0].h_minus == reports[1].h_minus


def test_table_builds_each_primitive_once(monkeypatch, capsys):
    from cmfields import characters

    pow_calls = []
    built = {}  # id -> (character, primitives built from it)
    primitivized = []
    original_pow = characters.char_pow
    original_at = DirichletCharacter.at_modulus
    original_primitivize = DirichletCharacter.primitivize

    def counted_pow(chi, k):
        pow_calls.append((chi, k))
        return original_pow(chi, k)

    def counted_at(self, f):
        if f != self.modulus and f == self.conductor():
            entry = built.setdefault(id(self), [self, 0])
            entry[1] += 1
        return original_at(self, f)

    def counted_primitivize(self):
        primitivized.append(self)
        return original_primitivize(self)

    monkeypatch.setattr(hminus, "_ORBIT_FACTORS", {})
    monkeypatch.setattr(characters, "char_pow", counted_pow)
    monkeypatch.setattr(DirichletCharacter, "at_modulus", counted_at)
    monkeypatch.setattr(DirichletCharacter, "primitivize", counted_primitivize)
    assert main(["table", "hminus", "--zeta-range", "3..40"]) == 0
    assert capsys.readouterr().out
    assert pow_calls == []
    assert not built
    assert primitivized == []
    # each orbit is named by its primitive key, so no primitive is built
    assert main(["verify", "v4", "--sweep", "--max", "300"]) == 0
    assert capsys.readouterr().out
    assert primitivized == []


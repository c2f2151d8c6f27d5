"""The compositum of two fields of coprime conductors is their direct
product, built with no closure; the closure is its oracle here and, over
wider ranges, in `tests/compositum_sweep.py`."""

import inspect
import math
import textwrap

import pytest

from cmfields import fields, theorems
from cmfields.characters import all_characters, principal_character
from cmfields.errors import DegreeBoundExceeded, InternalInconsistency
from cmfields.fields import AbelianField, cyclotomic_field, quadratic_field
from compositum_sweep import closure, differences, discriminant_pairs

RATIONALS = AbelianField([principal_character(1)])
# the 2-primary subfield of Q(zeta_9) is Q(sqrt -3) at modulus 9
SQRT_M3_MOD_9 = AbelianField(all_characters(9)).two_primary_subfield()


def _v4_pairs():
    """(K1, K2) for the pairs `verify v4 --sweep --max 2000` checks, in both
    argument orders."""
    return [(quadratic_field(d1), quadratic_field(d2))
            for d1, d2 in discriminant_pairs(2000) if d1 < 0 and d2 < 0]


def _metsankyla_triples(monkeypatch):
    """(L1, L2), (L1, L2+) and (L2, L1+) for every pair that
    `sweep_metsankyla` checks at its default bound."""
    pairs = []
    monkeypatch.setattr(theorems, "check_metsankyla",
                        lambda l1, l2, max_degree: pairs.append((l1, l2)))
    theorems.sweep_metsankyla()
    return pairs, [(K1, K2) for l1, l2 in pairs for K1, K2 in
                   ((l1, l2), (l1, l2.maximal_real_subfield()),
                    (l2, l1.maximal_real_subfield()))]


def _mixed_pairs():
    """Composita of cyclotomic, real and quadratic fields, Q on either side,
    and a factor whose modulus exceeds its conductor."""
    pairs = [
        (quadratic_field(-4), quadratic_field(5)),
        (cyclotomic_field(3), quadratic_field(-4)),
        (cyclotomic_field(5), quadratic_field(-3)),
        (cyclotomic_field(8), quadratic_field(5)),
        (cyclotomic_field(9), quadratic_field(-4)),
        (cyclotomic_field(16), quadratic_field(-3)),
        (cyclotomic_field(7).maximal_real_subfield(), quadratic_field(-8)),
        (RATIONALS, RATIONALS),
        (RATIONALS, quadratic_field(-4)),
        (cyclotomic_field(5), RATIONALS),
        # Q at modulus 3
        (cyclotomic_field(3).maximal_real_subfield(), quadratic_field(-4)),
        (SQRT_M3_MOD_9, quadratic_field(-4)),
    ]
    return pairs + [(K2, K1) for K1, K2 in pairs]


def test_every_v4_pair_matches_the_closure():
    pairs = _v4_pairs()
    assert len(pairs) == 2 * 536
    for K1, K2 in pairs:
        assert differences(K1, K2) == [], (K1.conductor, K2.conductor)


def test_every_metsankyla_compositum_matches_the_closure(monkeypatch):
    pairs, composita = _metsankyla_triples(monkeypatch)
    assert len(pairs) == 231 and len(composita) == 693
    for K1, K2 in composita:
        assert differences(K1, K2) == [], (K1, K2)


def test_mixed_composita_match_the_closure():
    assert (SQRT_M3_MOD_9.modulus, SQRT_M3_MOD_9.conductor) == (9, 3)
    for K1, K2 in _mixed_pairs():
        assert differences(K1, K2) == [], (K1, K2)


def test_subfield_composita_match_the_closure():
    """The coprime pairs among the subfields of Q(zeta_m), m < 25, and of
    Q(zeta_8) with those of Q(zeta_9), as `tests/test_fields.py` composes
    them."""
    pairs = [(K, L) for m in range(1, 25) for K in theorems._subfields(m)
             for L in theorems._subfields(m)]
    pairs += [(K, L) for K in theorems._subfields(8)
              for L in theorems._subfields(9)]
    pairs = [(K, L) for K, L in pairs if math.gcd(K.conductor, L.conductor) == 1]
    assert len(pairs) == 258
    for K, L in pairs:
        assert differences(K, L) == [], (K, L)


def test_compositum_closes_only_where_a_prime_is_shared(monkeypatch):
    closed = []
    original = fields.field_from_generators

    def counted(gens, max_degree):
        closed.append(max_degree)
        return original(gens, max_degree=max_degree)

    monkeypatch.setattr(fields, "field_from_generators", counted)
    for K1, K2 in _mixed_pairs():
        K1.compositum(K2)
    assert closed == []
    # Martinet's Q(i) Q(sqrt 8p) and a field with itself keep the closure
    quadratic_field(-4).compositum(quadratic_field(24))
    quadratic_field(-3).compositum(quadratic_field(-3), max_degree=5)
    assert closed == [fields.DEFAULT_MAX_DEGREE, 5]


@pytest.mark.parametrize("K1, K2", [
    (quadratic_field(-3), quadratic_field(-4)),
    (cyclotomic_field(5), quadratic_field(-3)),
    (cyclotomic_field(16), cyclotomic_field(9)),
    (SQRT_M3_MOD_9, cyclotomic_field(5)),
], ids=["quad-3*quad-4", "zeta5*quad-3", "zeta16*zeta9", "mod9*zeta5"])
def test_degree_bound_is_the_closure_bound(K1, K2):
    d = K1.degree * K2.degree
    with pytest.raises(DegreeBoundExceeded) as new:
        K1.compositum(K2, d - 1)
    with pytest.raises(DegreeBoundExceeded) as old:
        closure(K1, K2, d - 1)
    assert str(new.value) == str(old.value) == f"degree exceeds bound {d - 1}"
    assert K1.compositum(K2, d).degree == d


# (exact snippet of `AbelianField._direct_product`, committed mutant)
_EXPONENTS = "_merge(m, f1, a.exponents + b.exponents)"
_W = "math.lcm(K1.roots_of_unity_order(), K2.roots_of_unity_order())"
_KEY = "chi._key = (fa * fb, _merge(fa * fb, fa, ka + kb))"
DIRECT_PRODUCT_MUTANTS = {
    "block sides swapped": (_EXPONENTS, "_merge(m, f1, b.exponents + a.exponents)"),
    "w = w1 w2": (_W, "K1.roots_of_unity_order() * K2.roots_of_unity_order()"),
    "one factor's exponents dropped": (_KEY, "chi._key = (fa, ka)"),
}


def _mutated_product(snippet, replacement):
    source = textwrap.dedent(inspect.getsource(AbelianField._direct_product))
    assert source.count(snippet) == 1
    namespace = dict(vars(fields))
    exec(source.replace(snippet, replacement), namespace)
    return namespace["_direct_product"].__get__(None, AbelianField)


def _killed(product):
    """Whether the oracle finds a difference, or the key-count check
    fires, on some V4 pair."""
    for K1, K2 in _v4_pairs():
        try:
            if differences(K1, K2, product=product):
                return True
        except InternalInconsistency:
            return True
    return False


@pytest.mark.parametrize("name", DIRECT_PRODUCT_MUTANTS)
def test_the_closure_oracle_kills_direct_product_mutants(name):
    assert _killed(_mutated_product(*DIRECT_PRODUCT_MUTANTS[name]))


def test_the_unmutated_product_is_not_killed():
    assert not _killed(_mutated_product(_KEY, _KEY))


def test_direct_product_certifies_its_keys():
    """A product whose keys collide is refused by the set-size check,
    which holds under `python -O` too."""
    mutant = _mutated_product(*DIRECT_PRODUCT_MUTANTS["one factor's exponents dropped"])
    with pytest.raises(InternalInconsistency,
                       match="conductors 3 and 4 has 2 distinct characters, not 4"):
        mutant(quadratic_field(-3), quadratic_field(-4), 4)

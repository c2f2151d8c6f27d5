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
from compositum_sweep import (closure, differences, discriminant_pairs,
                              metsankyla_pairs)

RATIONALS = AbelianField([principal_character(1)])
# the 2-primary subfield of Q(zeta_9) is Q(sqrt -3) at modulus 9
SQRT_M3_MOD_9 = AbelianField(all_characters(9)).two_primary_subfield()


def _v4_pairs():
    """(K1, K2) for the pairs `verify v4 --sweep --max 2000` checks, in both
    argument orders."""
    return [(quadratic_field(d1), quadratic_field(d2))
            for d1, d2 in discriminant_pairs(2000) if d1 < 0 and d2 < 0]


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


def test_every_metsankyla_compositum_matches_the_closure():
    composita = metsankyla_pairs()
    assert len(composita) == 3 * 231
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


def test_v4_sweep_builds_no_product_characters(monkeypatch):
    """h-, w and the unit index of every V4 field are read off its two
    quadratic factors: the sweep passes with the build refused."""
    def refuse(self):
        raise AssertionError(f"{self!r} built its characters")

    monkeypatch.setattr(AbelianField, "_build_product", refuse)
    reports = theorems.sweep_v4()
    assert len(reports) == 536 and all(r.verdict for r in reports)


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


# (function, exact snippet, replacement): committed mutants of the direct
# product, of its characters built on read and of its answers read off
# the factors
_EXPONENTS = "_merge(m, f1, a.exponents + b.exponents)"
_W = "math.lcm(K1.roots_of_unity_order(), K2.roots_of_unity_order())"
_KEY = "(fa * fb, _merge(fa * fb, fa, ka + kb))"
DIRECT_PRODUCT_MUTANTS = {
    "block sides swapped": (
        "_build_product", _EXPONENTS, "_merge(m, f1, b.exponents + a.exponents)"),
    "w = w1 w2": (
        "_direct_product", _W,
        "K1.roots_of_unity_order() * K2.roots_of_unity_order()"),
    "one factor's exponents dropped": ("_build_product", _KEY, "(fa, ka)"),
    "k over all of (Z/n2)*": (
        "_composed_orbits", "_least_units(n2, math.gcd(n1, n2))",
        "_least_units(n2, n2)"),
    "parity condition dropped": (
        "_product_odd_reps", "if x1._parity == x2._parity:", "if False:"),
    "decomposition built when a factor's is None": (
        "_product_components",
        "parts = [K._decomposition() for K in self._factors]",
        "parts = [K._decomposition() or () for K in self._factors]"),
}


def _mutate(monkeypatch, name, snippet, replacement):
    """Replace `name`, a method of AbelianField or a function of `fields`,
    by its source with `snippet` replaced, for the rest of the test."""
    owner = AbelianField if name in vars(AbelianField) else fields
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(snippet) == 1
    namespace = dict(vars(fields))
    exec(source.replace(snippet, replacement), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def _killed():
    """Whether the oracle finds a difference, or a certificate fires, on
    some V4 pair or mixed compositum."""
    for K1, K2 in _v4_pairs() + _mixed_pairs():
        try:
            if differences(K1, K2):
                return True
        except InternalInconsistency:
            return True
    return False


@pytest.mark.parametrize("name", DIRECT_PRODUCT_MUTANTS)
def test_the_closure_oracle_kills_direct_product_mutants(monkeypatch, name):
    _mutate(monkeypatch, *DIRECT_PRODUCT_MUTANTS[name])
    assert _killed()


def test_the_unmutated_product_is_not_killed(monkeypatch):
    # each mutated function once, from its own source
    for function, snippet, _ in dict((m[0], m) for m in
                                     DIRECT_PRODUCT_MUTANTS.values()).values():
        _mutate(monkeypatch, function, snippet, snippet)
    assert not _killed()


def test_direct_product_certifies_its_keys(monkeypatch):
    """A product whose keys collide is refused by the set-size check when
    its characters are first read, which holds under `python -O` too."""
    _mutate(monkeypatch, *DIRECT_PRODUCT_MUTANTS["one factor's exponents dropped"])
    K = quadratic_field(-3).compositum(quadratic_field(-4))
    with pytest.raises(InternalInconsistency,
                       match="conductors 3 and 4 has 2 distinct characters, not 4"):
        K.chars


@pytest.mark.parametrize("name, factors", [
    ("k over all of (Z/n2)*", (quadratic_field(-4), cyclotomic_field(7))),
    ("parity condition dropped", (quadratic_field(-3), quadratic_field(-4))),
])
def test_direct_product_certifies_its_odd_orbits(monkeypatch, name, factors):
    """Orbits counted twice or of the wrong parity are refused by the
    count of the odd characters they cover."""
    _mutate(monkeypatch, *DIRECT_PRODUCT_MUTANTS[name])
    K = factors[0].compositum(factors[1])
    with pytest.raises(InternalInconsistency, match="odd orbits of the product"):
        K.odd_orbit_representatives()

"""Abelian fields as character groups: lattice ops and CM attributes."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cmfields.arith import (divisors, euler_phi, factorize,
                            is_fundamental_discriminant, unit_group)
from cmfields.characters import (
    DirichletCharacter,
    all_characters,
    principal_character,
)
from cmfields.errors import (
    DegreeBoundExceeded,
    NotFundamentalDiscriminant,
    PreconditionViolated,
)
from cmfields.fields import (
    AbelianField,
    cyclotomic_field,
    field_from_generators,
    normalize_cyclotomic_modulus,
    quadratic_field,
)
from cmfields.theorems import _subfields
from charoracle import char_mul, value_exponent

SRC = Path(__file__).resolve().parent.parent / "src"

RATIONALS = AbelianField([principal_character(1)])


def test_field_from_generators_examples():
    assert field_from_generators([DirichletCharacter(4, [1])]).degree == 2
    big = field_from_generators([DirichletCharacter(4, [1]), DirichletCharacter(5, [1])])
    assert big == cyclotomic_field(20)
    assert big.degree == 8
    assert field_from_generators([principal_character(1)]) == RATIONALS


def _closure_by_bfs(gens):
    """Closure by breadth-first search: multiply every generator into each
    new element until no new element appears."""
    m = normalize_cyclotomic_modulus(math.lcm(1, *(g.conductor() for g in gens)))
    gens = [g.at_modulus(m) for g in gens]
    group = {principal_character(m)}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in gens:
            for c in frontier:
                prod = char_mul(g, c)
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return AbelianField(group)


def test_closure_matches_bfs():
    rng = random.Random(20121)
    for m in range(1, 61):
        chars = all_characters(m)
        for _ in range(20):
            gens = rng.sample(chars, min(len(chars), rng.randint(1, 3)))
            assert field_from_generators(gens).chars == _closure_by_bfs(gens).chars, gens


def test_degree_bound():
    with pytest.raises(DegreeBoundExceeded, match="degree exceeds bound 64"):
        field_from_generators([DirichletCharacter(10007, [1])], max_degree=64)
    with pytest.raises(DegreeBoundExceeded):
        field_from_generators([DirichletCharacter(5, [1])], max_degree=3)
    with pytest.raises(DegreeBoundExceeded):
        cyclotomic_field(101, max_degree=64)
    # levels past 2 * 256^2 are turned away before they are factored
    for m, n in ((10**18 + 3, 10**18 + 3), (2 * (10**29 + 1), 10**29 + 1)):
        with pytest.raises(DegreeBoundExceeded,
                           match=rf"^phi\({n}\) exceeds bound 256$"):
            cyclotomic_field(m)


def test_phi_bounds_the_level():
    """phi(m)^2 >= m / 2 for every m <= 10^5, so `cyclotomic_field` can
    reject a level past 2 B^2 unfactored without turning away one of
    degree <= B.  phi comes from a sieve, not from `euler_phi`."""
    phi = list(range(10**5 + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:
            for k in range(p, len(phi), p):
                phi[k] -= phi[k] // p
    assert all(2 * phi[m] ** 2 >= m for m in range(1, len(phi)))


def test_cyclotomic_degree_bound_matches_phi():
    for bound in range(1, 13):
        for m in range(1, 2 * bound**2 + 40):
            n = normalize_cyclotomic_modulus(m)
            if euler_phi(n) > bound:
                with pytest.raises(DegreeBoundExceeded,
                                   match=rf"^phi\({n}\) exceeds bound {bound}$"):
                    cyclotomic_field(m, max_degree=bound)
            else:
                assert cyclotomic_field(m, max_degree=bound).degree == euler_phi(n)


def test_cyclotomic_normalization():
    assert normalize_cyclotomic_modulus(6) == 3
    assert cyclotomic_field(6) == cyclotomic_field(3)
    assert cyclotomic_field(4).degree == 2


def test_quadratic_field_examples():
    neg = quadratic_field(-20)
    chi = [c for c in neg.chars if c.order == 2][0]
    assert chi.conductor() == 20 and chi.is_odd()
    pos = quadratic_field(40)
    chi = [c for c in pos.chars if c.order == 2][0]
    assert chi.conductor() == 40 and not chi.is_odd()
    with pytest.raises(NotFundamentalDiscriminant):
        quadratic_field(45)
    with pytest.raises(NotFundamentalDiscriminant):
        quadratic_field(-5)


def test_fundamental_discriminants():
    good = [-3, -4, -7, -8, -20, 5, 8, 12, 13, 40]
    bad = [0, 1, -1, 2, 3, -5, 9, 16, 18, 45]
    assert all(is_fundamental_discriminant(d) for d in good)
    assert not any(is_fundamental_discriminant(d) for d in bad)


def test_fundamental_discriminant_memo_matches_fresh_check():
    for d in range(-3000, 3001):
        assert is_fundamental_discriminant(d) == \
            is_fundamental_discriminant.__wrapped__(d), d


def test_cm_and_real_subfield():
    z5 = cyclotomic_field(5)
    assert z5.is_cm()
    plus = z5.maximal_real_subfield()
    assert plus.degree == 2 and plus.conductor == 5 and not plus.is_cm()
    assert not quadratic_field(40).is_cm()
    assert not RATIONALS.is_cm()


def test_real_subfield_idempotent():
    for m in (5, 7, 16, 20, 40):
        plus = cyclotomic_field(m).maximal_real_subfield()
        assert plus.maximal_real_subfield() == plus
        assert not plus.odd_characters()


def test_odd_even_split_for_cm():
    for m in (4, 5, 7, 15, 16, 20, 40):
        K = cyclotomic_field(m)
        assert len(K.odd_characters()) == K.degree // 2


def test_odd_characters_is_a_fresh_list():
    K = cyclotomic_field(20)
    odd = K.odd_characters()
    assert odd == [c for c in K.chars if value_exponent(c, -1) != 0]
    odd.clear()
    assert K.odd_characters() is not odd
    assert len(K.odd_characters()) == K.degree // 2 and K.is_cm()


def test_roots_of_unity_examples():
    assert cyclotomic_field(12).roots_of_unity_order() == 12
    qi_s5 = quadratic_field(-4).compositum(quadratic_field(5))
    assert qi_s5.roots_of_unity_order() == 4
    assert quadratic_field(-3).roots_of_unity_order() == 6
    assert quadratic_field(-20).roots_of_unity_order() == 2
    assert quadratic_field(40).roots_of_unity_order() == 2


def test_roots_of_unity_cyclotomic_exhaustive():
    for m in range(1, 61):
        if m % 4 == 2:
            continue
        expected = 2 * m if m % 2 else m
        if m == 1:
            expected = 2
        assert cyclotomic_field(m).roots_of_unity_order() == expected


def _w_by_scan(K):
    """Largest n | 2 * conductor with every character mod n in K, made even.
    Q(zeta_n) has phi(n) characters, so n with phi(n) > degree is skipped."""
    best = 1
    for n in divisors(2 * K.conductor):
        if n % 4 == 2 or n <= best or euler_phi(n) > K.degree:
            continue
        if all(K.contains_character(chi) for chi in all_characters(n)):
            best = n
    return best if best % 2 == 0 else 2 * best


FUNDAMENTAL = [d for d in range(-3000, 3001) if is_fundamental_discriminant(d)]


def _v4_pairs():
    """Q(sqrt d1), Q(sqrt d2) for the 3,554 pairs of distinct fundamental
    discriminants with |d1 d2| <= 3000."""
    return [(quadratic_field(d1), quadratic_field(d2))
            for d1 in FUNDAMENTAL for d2 in FUNDAMENTAL
            if d1 < d2 and abs(d1 * d2) <= 3000]


def test_roots_of_unity_matches_scan():
    fields = [K1.compositum(K2) for K1, K2 in _v4_pairs()]
    fields += [cyclotomic_field(m) for m in range(1, 80) if m % 4 != 2]
    fields += [
        quadratic_field(-4).compositum(quadratic_field(5)),
        cyclotomic_field(3).compositum(quadratic_field(-4)),
        cyclotomic_field(5).compositum(quadratic_field(-3)),
        cyclotomic_field(8).compositum(quadratic_field(5)),
        cyclotomic_field(9).compositum(quadratic_field(-4)),
        cyclotomic_field(16).compositum(quadratic_field(-3)),
        cyclotomic_field(7).maximal_real_subfield().compositum(quadratic_field(-8)),
    ]
    for K in fields:
        w = K.roots_of_unity_order()
        assert w == _w_by_scan(K) and K.roots_of_unity_order() == w, K


def test_quadratic_field_memo_matches_fresh_build():
    for d in FUNDAMENTAL:
        K = quadratic_field(d)
        fresh = quadratic_field.__wrapped__(d)
        assert quadratic_field(d) is K and fresh is not K
        assert fresh == K and fresh.conductor == K.conductor == abs(d)
        assert [c.encode() for c in fresh.chars] == [c.encode() for c in K.chars]


def _compositum_of_all_characters(K, L):
    """The compositum as it was built before: every character of both
    fields, principal ones included, handed to the closure."""
    return field_from_generators(list(K.chars) + list(L.chars))


def test_compositum_matches_all_characters():
    pairs = _v4_pairs()
    for m in range(1, 25):
        subs = _subfields(m)
        pairs += [(K, L) for K in subs for L in subs]
    pairs += [(K, L) for K in _subfields(8) for L in _subfields(9)]
    pairs += [(RATIONALS, RATIONALS), (RATIONALS, quadratic_field(-4))]
    for K, L in pairs:
        new, old = K.compositum(L), _compositum_of_all_characters(K, L)
        assert new == old, (K, L)
        assert [c.encode() for c in new.chars] == [c.encode() for c in old.chars]
        assert new.conductor == old.conductor
        assert new.roots_of_unity_order() == old.roots_of_unity_order()


def test_field_from_generators_keeps_lifted_generators():
    gens = [quadratic_field(-3).chars[1], quadratic_field(-4).chars[1]]
    K = field_from_generators(gens)
    for g in gens:
        lift = next(c for c in K.chars if c.primitive_key() == g.primitive_key())
        # the member is the lift, and its primitive is the generator
        assert DirichletCharacter(*lift.primitive_key()) == g


def test_compositum_examples():
    qi = quadratic_field(-4)
    s5 = quadratic_field(5)
    L = qi.compositum(s5)
    assert L.degree == 4 and L.conductor == 20
    assert qi.compositum(qi) == qi


def test_conductor_of_compositum_is_lcm():
    pairs = [(-4, 5), (-3, -20), (8, -7), (-8, 13)]
    for d1, d2 in pairs:
        K = quadratic_field(d1).compositum(quadratic_field(d2))
        assert K.conductor == math.lcm(abs(d1), abs(d2))


def test_subfield_relation():
    assert quadratic_field(-4).is_subfield_of(cyclotomic_field(20))
    assert quadratic_field(5).is_subfield_of(cyclotomic_field(5))
    assert not quadratic_field(-3).is_subfield_of(cyclotomic_field(20))


def _component_fields(K):
    """The components of K's decomposition as fields: each one's own
    characters with the principal character added; None when K does not
    decompose."""
    comps = K.prime_power_decomposition()
    if comps is None:
        return None
    own = set(K.chars)
    assert all(c in own and not c.is_principal() for comp in comps for c in comp)
    trivial = principal_character(K.modulus)
    return [AbelianField(comp + [trivial]) for comp in comps]


def test_prime_power_decomposition_examples():
    L = quadratic_field(-4).compositum(quadratic_field(5))
    comps = _component_fields(L)
    assert comps is not None
    assert sorted(c.conductor for c in comps) == [4, 5]
    assert comps == _decomposition_by_primitive_keys(L)
    assert quadratic_field(-20).prime_power_decomposition() is None
    assert _decomposition_by_primitive_keys(quadratic_field(-20)) is None
    K = cyclotomic_field(15)
    comps = _component_fields(K)
    assert comps is not None
    assert sorted((c.conductor, c.degree) for c in comps) == [(3, 2), (5, 4)]
    assert comps == _decomposition_by_primitive_keys(K)


def _decomposition_by_primitive_keys(K):
    """The prime-power components of K from the block slices of each
    character's primitive exponent vector, each component rebuilt at the
    lcm of its conductors; None when their degrees multiply past K's."""
    trivial = principal_character(1).primitive_key()
    parts = {p: {trivial} for p, _ in factorize(K.conductor)}
    for chi in K.chars:
        chi = DirichletCharacter(*chi.primitive_key())
        blocks = unit_group(chi.modulus).blocks
        for p, k in factorize(chi.modulus):
            exps = tuple(e for e, b in zip(chi.exponents, blocks) if b == p**k)
            parts[p].add((p**k, exps))
    total = 1
    components = []
    for p in sorted(parts):
        keys = parts[p]
        m = math.lcm(1, *(k[0] for k in keys))
        total *= len(keys)
        components.append(AbelianField(
            [DirichletCharacter(f, e).at_modulus(m) for f, e in keys]))
    return components if total == K.degree else None


def test_prime_power_decomposition_matches_primitive_keys():
    discs = [d for d in range(-3000, 3001) if is_fundamental_discriminant(d)]
    fields = [
        quadratic_field(d1).compositum(quadratic_field(d2))
        for d1 in discs for d2 in discs
        if d1 < d2 and abs(d1 * d2) <= 3000
    ]
    fields += [K for m in range(1, 41) for K in _subfields(m)]
    split = 0
    for K in fields:
        comps = _component_fields(K)
        assert comps == _decomposition_by_primitive_keys(K), K
        split += comps is not None
    assert 0 < split < len(fields)


def test_two_primary_subfield_examples():
    assert cyclotomic_field(7).two_primary_subfield() == quadratic_field(-7)
    assert cyclotomic_field(4).two_primary_subfield() == quadratic_field(-4)
    two13 = cyclotomic_field(13).two_primary_subfield()
    assert two13.degree == 4 and two13.conductor == 13


def test_two_primary_subfield_matches_sylow_characters():
    """The field itself when the degree is a power of 2, else the field of
    the characters of 2-power order, as it was always built."""
    for m in range(1, 41):
        for K in _subfields(m):
            two = K.two_primary_subfield()
            oracle = AbelianField(c for c in K.chars
                                  if c.order & (c.order - 1) == 0)
            assert two == oracle and two.degree == oracle.degree, K
            assert (two is K) == (K.degree & (K.degree - 1) == 0), K


def test_two_primary_subfield_properties():
    for m in (5, 7, 9, 13, 15, 20, 21, 28, 33, 35, 40, 45, 60):
        K = cyclotomic_field(m)
        if not K.is_cm():
            continue
        two = K.two_primary_subfield()
        assert two.is_subfield_of(K)
        assert (K.degree // two.degree) % 2 == 1
        assert two.is_cm()


def test_quadratic_subfield_discriminants():
    L = quadratic_field(-4).compositum(quadratic_field(-20))
    assert sorted(L.quadratic_subfield_discriminants()) == [-20, -4, 5]
    assert cyclotomic_field(8).quadratic_subfield_discriminants() == [-4, 8, -8]


def test_equality_is_modulus_independent():
    lifted = AbelianField([c.at_modulus(20) for c in quadratic_field(-4).chars])
    assert lifted == quadratic_field(-4)
    assert hash(lifted) == hash(quadratic_field(-4))


def test_degree_matches_phi_for_cyclotomic():
    for m in (1, 3, 4, 8, 9, 15, 16, 40):
        assert cyclotomic_field(m).degree == euler_phi(normalize_cyclotomic_modulus(m))


def test_mixed_moduli_rejected():
    chars = [principal_character(4), DirichletCharacter(5, [2])]
    with pytest.raises(PreconditionViolated):
        AbelianField(chars)
    # the check holds under python -O, which strips assert statements
    script = (
        "from cmfields.characters import DirichletCharacter, principal_character\n"
        "from cmfields.errors import PreconditionViolated\n"
        "from cmfields.fields import AbelianField\n"
        "try:\n"
        "    AbelianField([principal_character(4), DirichletCharacter(5, [2])])\n"
        "except PreconditionViolated:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('mixed moduli accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

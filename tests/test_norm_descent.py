"""`absolute_norm` goes down the cyclotomic tower one prime-power block at
a time and finishes the last block on its index-2 subgroup.  It is checked
here against the product it replaced, every Galois step in the whole half
ring Z[x]/(x^(n/2) + 1) (`norm_whole_ring` in `tests/cycoracle.py`), and
each of its checks is made to fire.  The oracle shares the Kronecker
multiply `_negacyclic_mul` with the kernel, so that multiply is checked on
its own against `negacyclic_schoolbook` at every digit width.  The checks
are `raise`, so `test_optimized_mode.py` runs this file under `python -O`
as well.
"""

import random
from math import isqrt

import pytest

from cmfields import cyclotomic
from cmfields.arith import divisors, euler_phi, is_prime, mobius, unit_group
from cmfields.characters import DirichletCharacter, galois_orbits, orbit_rep
from cmfields.cyclotomic import CycNumber, absolute_norm
from cmfields.errors import InternalInconsistency
from cmfields.fields import AbelianField, cyclotomic_field
from cmfields.fieldspec import parse_field_spec
from cmfields.hminus import bernoulli_b1
from cycoracle import negacyclic_schoolbook, norm_whole_ring


def _random_element(rng, level, support):
    phi = euler_phi(level)
    num = [0] * phi
    for _ in range(support):
        num[rng.randrange(phi)] = rng.randint(-3, 3)
    return CycNumber._from_ints(level, num, rng.randint(1, 30))


def test_descent_matches_whole_ring_on_every_level_to_300():
    rng = random.Random(19)
    for level in range(1, 301):
        x = _random_element(rng, level, 4)
        assert absolute_norm(x) == norm_whole_ring(x), level
        if level <= 60:
            y = _random_element(rng, level, euler_phi(level))
            assert absolute_norm(y) == norm_whole_ring(y), level


def test_descent_matches_whole_ring_at_levels_382_and_996():
    # 382 = 2 * 191: one block; 996 = 4 * 3 * 83: three blocks
    rng = random.Random(25)
    for level in (382, 996):
        for support in (4, 40, euler_phi(level)):
            x = _random_element(rng, level, support)
            assert absolute_norm(x) == norm_whole_ring(x), (level, support)


def test_descent_matches_whole_ring_on_every_orbit_of_prime_cyclotomics():
    count = 0
    for p in range(3, 400):
        if not is_prime(p):
            continue
        for rep in cyclotomic_field(p, max_degree=p).odd_orbit_representatives():
            b = bernoulli_b1(rep)
            assert absolute_norm(b) == norm_whole_ring(b), rep.encode()
            count += 1
    assert count == 258


def test_descent_matches_whole_ring_on_every_cyclotomic_orbit_to_200():
    reps = {}
    for m in range(3, 201):
        if m % 4 == 2:
            continue
        K = parse_field_spec(f"zeta:{m}").build(max_degree=400)
        for orbit in galois_orbits(K.odd_characters()):
            rep = orbit_rep(orbit)
            reps.setdefault(rep.primitive_key(), rep)
    levels = set()
    for rep in reps.values():
        b = bernoulli_b1(rep)
        assert absolute_norm(b) == norm_whole_ring(b), rep.encode()
        levels.add(b.level)
    # three blocks at 60, 156 and 180, two odd blocks at 138 and 198
    assert {60, 138, 156, 180, 198} <= levels


def test_descent_matches_whole_ring_under_a_generator_change():
    # the degree-62 subfield of Q(zeta_40487), built at modulus 40487^2
    p = 40487
    (o,) = unit_group(p * p).orders
    K = AbelianField([DirichletCharacter(p * p, [k * (o // 62)]) for k in range(62)])
    for orbit in galois_orbits(K.odd_characters()):
        b = bernoulli_b1(orbit_rep(orbit))
        assert absolute_norm(b) == norm_whole_ring(b)


def _element(level):
    """A dense element of Q(zeta_level) lying in no proper subfield."""
    num = [(3 * i * i + 5 * i + 1) % 7 - 3 for i in range(euler_phi(level))]
    num[1] = 2
    return CycNumber._from_ints(level, num, 1)


STEP = "not divisible by|orbit product not in Q"
LAST = "norm did not land in Q"


@pytest.mark.parametrize("level, call, match", [
    (138, 0, STEP),  # block 3 at level 138, then the descent to 46
    (138, 1, LAST),  # block 23 at level 46, the last
    (136, 0, STEP),  # block 8, generator -1, at level 136
    (136, 1, STEP),  # block 8, generator 5, at level 136
    (136, 2, LAST),  # block 17 at level 34, the last
])
def test_a_dropped_factor_is_caught(monkeypatch, level, call, match):
    original = cyclotomic._orbit_product
    calls = []

    def drop_one(p, g, o):
        calls.append(g)
        return original(p, g, o - 1 if len(calls) == call + 1 else o)

    monkeypatch.setattr(cyclotomic, "_orbit_product", drop_one)
    with pytest.raises(InternalInconsistency, match=match):
        absolute_norm(_element(level))


@pytest.mark.parametrize("level, delta, match", [
    (138, 1, "not divisible by 2"),          # p = 3: the exact division fails
    (138, 2, "orbit product not in Q\\(zeta_46\\)"),  # exact, but wrong
    (136, 1, "orbit product not in Q\\(zeta_17\\)"),  # p = 2: no division
])
def test_a_wrong_projection_weight_is_caught(monkeypatch, level, delta, match):
    original = cyclotomic._level_plan
    x = _element(level)
    assert absolute_norm(x) == norm_whole_ring(x)

    def bad_weight(n):
        gens, descent = original(n)
        if n != level:
            return gens, descent
        r, p, proj, lift = descent
        (a, j, w), *rest = proj
        return gens, (r, p, ((a, j, w + delta), *rest), lift)

    monkeypatch.setattr(cyclotomic, "_level_plan", bad_weight)
    with pytest.raises(InternalInconsistency, match=match):
        absolute_norm(x)


@pytest.mark.parametrize("level, call", [
    (46, 0),   # cyclic last block, U the only product
    (64, 1),   # 2-power block: U after the product over <-1>
    (138, 1),  # U at level 46, after the descent from 138
])
def test_a_corrupted_index_2_product_is_caught(monkeypatch, level, call):
    # coefficient 1 of U, not the constant: every sigma fixes the constant
    # term, so a change there stays in the fixed field and is not seen
    original = cyclotomic._orbit_product
    calls = []

    def corrupt(p, g, o):
        out = original(p, g, o)
        calls.append(g)
        if len(calls) == call + 1:
            out[1] += 1
        return out

    monkeypatch.setattr(cyclotomic, "_orbit_product", corrupt)
    with pytest.raises(InternalInconsistency, match=LAST):
        absolute_norm(_element(level))
    assert len(calls) == call + 1


def _width(a, b):
    """The digit width in bytes `_negacyclic_mul` derives from its inputs,
    before a width of up to 8 bytes is rounded up to a native one."""
    ma, mb = max(map(abs, a)), max(map(abs, b))
    return (max(len(a) * ma * mb, ma, mb).bit_length() + 8) // 8


@pytest.mark.parametrize("width", [*range(1, 12), 16, 17, 33])
@pytest.mark.parametrize("h", [1, 2, 3, 8, 27])
def test_kronecker_multiply_matches_schoolbook_at_every_width(width, h):
    rng = random.Random(width * 100 + h)
    top = (1 << (8 * width - 1)) - 1  # largest |coefficient| at this width
    m = isqrt(top // h)  # h m^2 <= top: the largest product coefficients
    cases = []
    for sa in (1, -1):
        for sb in (1, -1):
            # all-equal inputs reach +-h m^2 in the top coefficient
            cases.append(([sa * m] * h, [sb * m] * h))
        # an input at the largest size this width packs, times 0 and 1
        cases.append(([sa * top] * h, [0] * h))
        unit = [sa] + [0] * (h - 1)
        cases.append(([sa * (top // h)] * h, unit))
        cases.append(([rng.choice((top // h, -(top // h))) for _ in range(h)],
                      unit))
    for a, b in cases:
        assert _width(a, b) == width, (a, b)
    cases.append(([0] * h, [0] * h))
    cases += [([rng.randint(-m, m) for _ in range(h)],
               [rng.randint(-m, m) for _ in range(h)]) for _ in range(20)]
    cases += [([rng.choice((m, -m)) for _ in range(h)],
               [rng.choice((m, -m)) for _ in range(h)]) for _ in range(20)]
    for a, b in cases:
        assert cyclotomic._negacyclic_mul(a, b) == negacyclic_schoolbook(a, b), (a, b)
        assert cyclotomic._negacyclic_mul(b, a) == negacyclic_schoolbook(b, a), (a, b)


@pytest.mark.parametrize("level, call", [
    (64, 0),  # generator -1 of the last block, outside the index-2 part
    (64, 1),  # generator 5, whose square spans the rest of H
    (32, 0),
    (96, 1),  # block 3 first, then -1 at level 32 after the descent
])
def test_a_dropped_factor_at_a_two_generator_last_block_is_caught(
        monkeypatch, level, call):
    original = cyclotomic._orbit_product
    calls = []

    def drop_one(p, g, o):
        calls.append(g)
        return original(p, g, o - 1 if len(calls) == call + 1 else o)

    monkeypatch.setattr(cyclotomic, "_orbit_product", drop_one)
    with pytest.raises(InternalInconsistency, match=LAST):
        absolute_norm(_element(level))


def test_the_evaluation_point_leaves_one_candidate(monkeypatch):
    """Each finish reads N mod Phi_n(2^k) with (2^k - 1)^phi(n) above
    2 (h max|U|)^2, the bound on 2|N|, and Phi_n(2^k) agrees with the
    product of (2^(kd) - 1)^mu(n/d) over d | n."""
    original = cyclotomic._at_power_of_two
    seen = []

    def record(coeffs, k):
        seen.append((list(coeffs), k))
        return original(coeffs, k)

    monkeypatch.setattr(cyclotomic, "_at_power_of_two", record)
    rng = random.Random(7)
    elements = [_random_element(rng, level, 6) for level in range(3, 200)]
    for p in (101, 163, 199):
        elements += [bernoulli_b1(rep) for rep in
                     cyclotomic_field(p, max_degree=p).odd_orbit_representatives()]
    finishes = 0
    for x in elements:
        seen.clear()
        absolute_norm(x)
        if not seen:  # level 2
            continue
        (phi, k), (u, ku), (su, ks) = seen
        n = 2 * len(u)
        assert k == ku == ks and phi == list(cyclotomic.cyclotomic_polynomial(n))
        num = den = 1
        for d in divisors(n):
            if mobius(n // d) == 1:
                num *= (1 << k * d) - 1
            elif mobius(n // d) == -1:
                den *= (1 << k * d) - 1
        assert original(phi, k) == num // den and num % den == 0
        assert ((1 << k) - 1) ** (len(phi) - 1) > 2 * (len(u) * max(map(abs, u))) ** 2
        finishes += 1
    assert finishes > 200

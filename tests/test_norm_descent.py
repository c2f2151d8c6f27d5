"""`absolute_norm` goes down the cyclotomic tower one prime-power block at
a time.  It is checked here against the product it replaced, every Galois
step in the whole half ring Z[x]/(x^(n/2) + 1) (`norm_whole_ring` in
`tests/cycoracle.py`), and each of its checks is made to fire.  The
checks are `raise`, so `test_optimized_mode.py` runs this file under
`python -O` as well.
"""

import random

import pytest

from cmfields import cyclotomic
from cmfields.arith import euler_phi, unit_group
from cmfields.characters import DirichletCharacter, galois_orbits, orbit_rep
from cmfields.cyclotomic import CycNumber, absolute_norm
from cmfields.errors import InternalInconsistency
from cmfields.fields import AbelianField
from cmfields.fieldspec import parse_field_spec
from cmfields.hminus import bernoulli_b1
from cycoracle import norm_whole_ring


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

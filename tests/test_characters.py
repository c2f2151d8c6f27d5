"""Dirichlet character construction, evaluation, conductor, orbits."""

import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmfields.arith import divisors, euler_phi, unit_group
from cmfields.characters import (
    DirichletCharacter,
    _log,
    all_characters,
    galois_orbits,
    principal_character,
)
from cmfields.cyclotomic import galois_apply
from cmfields.errors import InternalInconsistency, LengthMismatch, NotClosed, ParseError
from cmfields.fieldspec import parse_field_spec
from cmfields.theorems import _subfields
from charoracle import char_pow, discrete_log_table, value_exponent
from cycoracle import Cyc

SRC = Path(__file__).resolve().parent.parent / "src"

CHI_M4 = DirichletCharacter(4, [1])


def _value(chi, a):
    """chi(a) as an exact element of Q(zeta_order); 0 off (Z/mZ)*."""
    t = value_exponent(chi, a)
    if t is None:
        return Cyc.from_rational(chi.order, 0)
    return Cyc.zeta(chi.order, t)


def test_make_character_examples():
    assert _value(CHI_M4, 3) == -1
    assert principal_character(5).order == 1
    chi8 = DirichletCharacter(8, [1, 0])
    assert _value(chi8, 7) == -1 and _value(chi8, 5) == 1 and _value(chi8, 3) == -1


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        DirichletCharacter(8, [1])
    with pytest.raises(LengthMismatch):
        DirichletCharacter(5, [1, 2])  # extra exponents are not dropped


def test_evaluate_examples():
    assert _value(CHI_M4, 2) == 0
    chi = DirichletCharacter(5, [1])
    assert _value(chi, 2) == Cyc.zeta(4, 1)  # 2 is the canonical generator mod 5
    assert _value(chi, 4) == -1


def test_conductor_examples():
    assert principal_character(12).conductor() == 1
    lifted = CHI_M4.at_modulus(20)
    assert lifted.conductor() == 4
    assert DirichletCharacter(5, [1]).conductor() == 5


def _conductor_by_scan(chi):
    """Smallest f | m with chi trivial on every unit a = 1 mod f."""
    m = chi.modulus
    for f in divisors(m):
        if all(
            value_exponent(chi, a) == 0
            for a in range(1, m + 1)
            if a % f == 1 % f and math.gcd(a, m) == 1
        ):
            return f


def test_conductor_matches_scan():
    for m in range(1, 200):
        for chi in all_characters(m):
            assert chi.conductor() == _conductor_by_scan(chi), chi


def _at_modulus_by_values(chi, f):
    """chi at modulus f read off its values: each generator g of (Z/fZ)*
    gets the exponent of chi(a) for a representative a = g mod f coprime
    to the modulus of chi."""
    m = chi.modulus
    ug = unit_group(f)
    exps = []
    for g, o in zip(ug.generators, ug.orders):
        a = g
        while math.gcd(a, m) != 1:
            a += f
        exps.append(value_exponent(chi, a) * o // chi.order)
    return DirichletCharacter(f, exps)


def test_at_modulus_matches_values():
    pairs = 0
    for m in range(1, 120):
        for chi in all_characters(m):
            c = chi.conductor()
            targets = {c * k for k in range(1, 7)}
            targets.update(d for d in divisors(m) if d % c == 0)
            for f in targets:
                assert chi.at_modulus(f) == _at_modulus_by_values(chi, f), (chi, f)
                pairs += 1
    assert pairs == 26788


def test_at_modulus_rejects_moduli_below_conductor():
    with pytest.raises(ValueError):
        CHI_M4.at_modulus(10)
    with pytest.raises(ValueError):
        DirichletCharacter(9, [2]).at_modulus(3)  # order 3 needs conductor 9


def test_at_modulus_generator_change():
    # 5 is the smallest primitive root mod p = 40487 but not mod p^2, so the
    # generators mod p and mod p^2 differ mod p and the exponent picks up
    # the unit d with g_(p^2) = g_p^d mod p
    p = 40487
    assert unit_group(p).generators != tuple(g % p for g in unit_group(p * p).generators)
    log = discrete_log_table(p)
    x = log[unit_group(p * p).generators[0] % p][0]  # g_(p^2) = g_p^x mod p
    chi = DirichletCharacter(p * p, [3 * p])  # chi(g_(p^2)) = zeta_(p-1)^3
    prim = DirichletCharacter(*chi.primitive_key())
    assert prim.modulus == p and prim.order == p - 1
    assert prim.exponents[0] * x % (p - 1) == 3
    psi = DirichletCharacter(p, [1])
    lifted = psi.at_modulus(p * p)
    assert lifted.exponents == (p * x % (p * (p - 1)),)
    assert DirichletCharacter(*lifted.primitive_key()) == psi


def test_log_matches_the_table_ratio_at_a_generator_change():
    """The block map's one discrete log, from 5 (mod 40487) to 10 (mod
    40487^2) and back, against the ratio of their logs in the full table."""
    p = 40487
    log = discrete_log_table(p)
    for base, x in ((5, 10), (10, 5)):
        assert _log(p, base, x) == log[x][0] * pow(log[base][0], -1, p - 1) % (p - 1)
    assert _log(p, 5, 10) == 17305
    # 4 generates only the squares, and 5 is not one
    with pytest.raises(InternalInconsistency, match="not a power of 4"):
        _log(p, 4, 5)


def test_primitivize_round_trip():
    lifted = CHI_M4.at_modulus(20)
    assert DirichletCharacter(*lifted.primitive_key()) == CHI_M4
    assert lifted.at_modulus(4) == CHI_M4
    assert lifted.primitive_key() == CHI_M4.primitive_key()


def test_parity_examples():
    assert principal_character(7).parity() == 1
    assert CHI_M4.parity() == -1
    assert DirichletCharacter(5, [2]).parity() == 1  # Kronecker character of Q(sqrt 5)


def test_parity_matches_values():
    count = 0
    for m in range(1, 300):
        for chi in all_characters(m):
            assert chi.parity() == (1 if value_exponent(chi, m - 1) == 0 else -1), chi
            count += 1
    assert count == 27318


def test_galois_orbits_examples():
    assert galois_orbits([CHI_M4]) == [[CHI_M4]]
    odd5 = [c for c in all_characters(5) if c.is_odd()]
    orbits = galois_orbits(odd5)
    assert [len(o) for o in orbits] == [2]
    odd7 = [c for c in all_characters(7) if c.is_odd()]
    sizes = sorted(len(o) for o in galois_orbits(odd7))
    assert sizes == [1, 2]


def test_galois_orbits_rejects_open_sets():
    chi = DirichletCharacter(5, [1])  # order 4, conjugate chi^3 missing
    with pytest.raises(NotClosed):
        galois_orbits([chi])


def _orbits_by_char_pow(chars):
    """Galois orbits by building every conjugate chi^k with `char_pow`,
    each orbit started from the smallest remaining (modulus, exponents)."""
    remaining = set(chars)
    universe = set(chars)
    orbits = []
    while remaining:
        rep = min(remaining, key=lambda c: (c.modulus, c.exponents))
        orbit = []
        for k in range(1, rep.order + 1):
            if math.gcd(k, max(rep.order, 1)) == 1:
                conj = char_pow(rep, k)
                if conj not in universe:
                    raise NotClosed(f"{conj.encode()} missing from the set")
                if conj not in remaining:
                    continue
                remaining.discard(conj)
                orbit.append(conj)
        orbits.append(orbit)
    return orbits


def _assert_orbits_match_oracle(chars):
    orbits = galois_orbits(chars)
    assert orbits == _orbits_by_char_pow(chars)
    inputs = {id(c) for c in chars}
    assert all(id(c) in inputs for orbit in orbits for c in orbit)


def test_galois_orbits_match_char_pow():
    for m in range(1, 120):
        chars = all_characters(m)
        _assert_orbits_match_oracle(chars)
        _assert_orbits_match_oracle([c for c in chars if c.is_odd()])
    fields = 0
    for m in range(1, 41):
        for K in _subfields(m):
            _assert_orbits_match_oracle(list(K.chars))
            _assert_orbits_match_oracle(K.odd_characters())
            fields += 1
    assert fields == 279


def test_galois_orbits_name_the_missing_conjugate():
    cases = [
        ([DirichletCharacter(5, [1])], "f=5:e=3"),
        ([DirichletCharacter(40, [1, 0, 1])], "f=40:e=1,0,3"),
        ([DirichletCharacter(7, [1]), DirichletCharacter(5, [1]),
          DirichletCharacter(5, [3])], "f=7:e=5"),
    ]
    for chars, missing in cases:
        with pytest.raises(NotClosed) as oracle:
            _orbits_by_char_pow(chars)
        with pytest.raises(NotClosed) as exc:
            galois_orbits(chars)
        assert str(exc.value) == str(oracle.value) == f"{missing} missing from the set"


def test_cached_invariants_match_fresh_characters():
    count = 0
    for m in range(1, 200):
        for chi in all_characters(m):
            key = chi.primitive_key()
            prim = DirichletCharacter(*key)
            fresh = DirichletCharacter(m, chi.exponents)
            assert prim == fresh.at_modulus(fresh.conductor())
            assert prim.conductor() == prim.modulus == chi.conductor()
            assert prim.primitive_key() == key
            if chi.conductor() == m:
                assert prim == chi and chi.at_modulus(m) is chi
            # a primitive character does not keep a reference to itself
            assert all(r is not prim for r in gc.get_referents(prim))
            oracle = 1 if value_exponent(chi, m - 1) == 0 else -1
            assert chi.parity() == oracle and chi.parity() == oracle, chi
            count += 1
    assert count == sum(euler_phi(m) for m in range(1, 200))


def test_lifts_keep_conductor_and_primitive():
    """A lift to k * m reports the conductor and primitive key that a fresh
    character with its exponents works out from scratch, whether or not the
    source knew its primitive before the lift."""
    for m in range(1, 120):
        for chi in all_characters(m):
            for known in (False, True):
                src = DirichletCharacter(m, chi.exponents)
                if known:
                    prim = DirichletCharacter(*src.primitive_key())
                    assert src.at_modulus(src.conductor()) == prim
                for k in (2, 3, 4):
                    lift = src.at_modulus(k * m)
                    fresh = DirichletCharacter(k * m, lift.exponents)
                    assert lift == fresh
                    assert lift.conductor() == fresh.conductor() == chi.conductor()
                    assert lift.primitive_key() == fresh.primitive_key(), (chi, k)
                    assert lift.order == fresh.order
                    assert lift.parity() == fresh.parity(), (chi, k)
                    prim = lift.at_modulus(lift.conductor())
                    assert prim == DirichletCharacter(*lift.primitive_key())
                    assert prim.primitive_key() == lift.primitive_key()
                    # a primitive character does not keep a reference to itself
                    assert all(r is not prim for r in gc.get_referents(prim))


def test_orbit_members_share_conductor_and_parity():
    for m in (5, 7, 16, 20):
        for orbit in galois_orbits(all_characters(m)):
            assert len({c.conductor() for c in orbit}) == 1
            assert len({c.parity() for c in orbit}) == 1
            assert len(orbit) == euler_phi(orbit[0].order)


def test_all_characters_count():
    for m in (1, 4, 8, 15, 24):
        assert len(all_characters(m)) == euler_phi(m)


def _all_characters_by_loop(modulus):
    """The character group mod m built one generator at a time: each
    exponent k > 0 on generator i times every character so far."""
    chars = [principal_character(modulus)]
    for i, o in enumerate(unit_group(modulus).orders):
        base = list(chars)
        for k in range(1, o):
            for c in base:
                e = list(c.exponents)
                e[i] = k
                chars.append(DirichletCharacter(modulus, e))
    return chars


def test_all_characters_match_loop():
    assert [c.exponents for c in all_characters(15)][:3] == [(0, 0), (1, 0), (0, 1)]
    for m in range(1, 200):
        assert all_characters(m) == _all_characters_by_loop(m), m


modest_moduli = st.sampled_from([3, 4, 5, 7, 8, 9, 12, 16, 20, 21, 40])


@settings(max_examples=60)
@given(modest_moduli, st.data())
def test_multiplicativity_and_periodicity(m, data):
    ug = unit_group(m)
    exps = tuple(data.draw(st.integers(min_value=0, max_value=o - 1)) for o in ug.orders)
    chi = DirichletCharacter(m, exps)
    a = data.draw(st.integers(min_value=1, max_value=3 * m))
    b = data.draw(st.integers(min_value=1, max_value=3 * m))
    assert _value(chi, a * b) == _value(chi, a) * _value(chi, b)
    assert _value(chi, a) == _value(chi, a + m)


@settings(max_examples=60)
@given(modest_moduli, st.data())
def test_conjugation_equivariance(m, data):
    ug = unit_group(m)
    exps = tuple(data.draw(st.integers(min_value=0, max_value=o - 1)) for o in ug.orders)
    chi = DirichletCharacter(m, exps)
    if chi.is_principal():
        return
    ks = [k for k in range(1, chi.order + 1) if math.gcd(k, chi.order) == 1]
    k = data.draw(st.sampled_from(ks))
    a = data.draw(st.integers(min_value=1, max_value=2 * m))
    val = _value(chi, a)
    powed = char_pow(chi, k)
    if val == 0:
        assert _value(powed, a) == 0
    else:
        assert galois_apply(k, val) == _value(powed, a)


def test_odd_characters_are_half():
    for m in range(3, 201):
        chars = all_characters(m)
        odd = [c for c in chars if c.is_odd()]
        assert len(odd) * 2 == len(chars)


def test_conductors_are_never_2_mod_4():
    """So neither is an lcm of conductors, the modulus that
    `field_from_generators` lifts its generators to."""
    for m in range(1, 200):
        assert all(c.conductor() % 4 != 2 for c in all_characters(m)), m


def test_encode_decode_round_trip():
    """The field-spec grammar is the one parser of the encoding."""
    for m in (1, 4, 8, 20, 40):
        for chi in all_characters(m):
            spec = parse_field_spec("chars:" + chi.encode())
            assert spec.payload == ((m, chi.exponents),)
            assert DirichletCharacter(*spec.payload[0]) == chi
    assert CHI_M4.encode() == "f=4:e=1"


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        parse_field_spec("chars:f=4")
    with pytest.raises(ParseError):
        parse_field_spec("chars:e=1:f=4")
    # the same checks hold under python -O, which strips assert statements
    script = (
        "from cmfields.errors import ParseError\n"
        "from cmfields.fieldspec import parse_field_spec\n"
        "for text in ('chars:x=5:y=1', 'chars:e=1:f=4'):\n"
        "    try:\n"
        "        parse_field_spec(text)\n"
        "    except ParseError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {text!r}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

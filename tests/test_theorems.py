"""Executable checks for the divisibility and factorization statements."""

import functools
import re
from collections import Counter
from fractions import Fraction

import pytest

import cmfields
from cmfields import cli, fields, hminus, quadratic, theorems, unitindex
from cmfields.cli import main
from cmfields.errors import (
    EvenIndex,
    NotFundamentalDiscriminant,
    NotPrimePowerConductors,
    NotSubfield,
    NotV4CM,
    PreconditionViolated,
)
from cmfields.arith import factorize
from cmfields.characters import DirichletCharacter
from cmfields.fields import (
    AbelianField,
    cyclotomic_field,
    field_from_generators,
    quadratic_field,
)
from cmfields.theorems import (
    _subfields,
    check_counterexample,
    check_masley,
    check_metsankyla,
    check_odd_degree,
    check_v4,
    derived_kuroda_q,
    fundamental_discriminants,
    sweep_counterexample_family1,
)


def test_masley_examples():
    assert check_masley(3, 3).verdict
    assert check_masley(4, 5).verdict
    rep = check_masley(23, 2)
    assert rep.verdict and rep.quantities["h_minus_small"] == 3
    # 46 normalizes to 23, so big equals small here
    assert rep.quantities["h_minus_big"] == 3


def test_odd_degree_examples():
    assert check_odd_degree(quadratic_field(-7), cyclotomic_field(7)).verdict
    rep = check_odd_degree(quadratic_field(-23), cyclotomic_field(23))
    assert rep.verdict and rep.quantities["h_minus_K"] == 3
    assert check_odd_degree(quadratic_field(-31), cyclotomic_field(31)).verdict


def test_odd_degree_preconditions():
    with pytest.raises(NotSubfield):
        check_odd_degree(quadratic_field(-3), cyclotomic_field(20))
    with pytest.raises(EvenIndex):
        check_odd_degree(quadratic_field(-4), cyclotomic_field(20))


def test_v4_examples():
    rep = check_v4(-4, -20)
    assert rep.verdict
    assert rep.quantities["h_minus_L"] == 1 and rep.quantities["rhs"] == 1
    assert check_v4(-4, -40).verdict
    assert check_v4(-3, -20).verdict
    assert check_v4(-3, -15).verdict


def test_v4_preconditions():
    with pytest.raises(NotFundamentalDiscriminant):
        check_v4(-5, -4)
    with pytest.raises(NotV4CM):
        check_v4(-4, 5)
    with pytest.raises(NotV4CM):
        check_v4(-4, -4)


def test_non_fundamental_discriminant_is_named():
    for check in (check_v4, derived_kuroda_q):
        with pytest.raises(NotFundamentalDiscriminant,
                           match="^-12 is not a fundamental discriminant$"):
            check(-4, -12)


def test_kuroda_q_examples():
    assert derived_kuroda_q(-4, 5) == 1
    assert derived_kuroda_q(-4, 40) == 1
    assert derived_kuroda_q(-4, 8) == 2  # L = Q(zeta_8)
    assert derived_kuroda_q(-4, -20) in (1, 2, 4)


def test_kuroda_q_needs_imaginary_subfields():
    with pytest.raises(NotV4CM):
        derived_kuroda_q(5, 8)


def test_metsankyla_examples():
    rep = check_metsankyla(cyclotomic_field(4), cyclotomic_field(5))
    assert rep.verdict
    assert rep.quantities["T1"] == 1 and rep.quantities["T2"] == 1
    assert rep.quantities["T1_character_sum"] == 1
    assert check_metsankyla(quadratic_field(-3), cyclotomic_field(5)).verdict
    assert check_metsankyla(cyclotomic_field(4), quadratic_field(-7)).verdict


def test_metsankyla_t1_is_a_fraction_of_h_values():
    rep = check_metsankyla(cyclotomic_field(4), cyclotomic_field(5))
    t1 = rep.quantities["T1"]
    assert isinstance(t1, Fraction) and t1.denominator == 1


def test_metsankyla_preconditions():
    with pytest.raises(NotPrimePowerConductors):
        check_metsankyla(cyclotomic_field(15), cyclotomic_field(4))
    with pytest.raises(NotPrimePowerConductors):
        check_metsankyla(cyclotomic_field(4), cyclotomic_field(8))


def test_counterexample_family1():
    rep = check_counterexample(1, d1=-4, d2=5)
    assert rep.verdict
    assert rep.quantities == {"d_K": -20, "h_minus_K": 2, "h_minus_L": 1}


def test_counterexample_family1_preconditions():
    with pytest.raises(PreconditionViolated):
        check_counterexample(1, d1=-20, d2=5)  # not a prime discriminant
    with pytest.raises(PreconditionViolated):
        check_counterexample(1, d1=-4, d2=-7)  # d2 must be real


def test_counterexample_family2():
    for m in (5, 13):
        rep = check_counterexample(2, m=m)
        assert rep.verdict and not rep.vacuous, m
    # 2m = 20 normalizes to Q(sqrt 5) where 2 is inert: the theorem's
    # hypothesis fails, though non-divisibility still holds numerically
    rep = check_counterexample(2, m=10)
    assert rep.verdict and rep.vacuous


def test_counterexample_family2_vacuous():
    # (2, sqrt 2) is principal in Q(sqrt 2)
    rep = check_counterexample(2, m=1)
    assert rep.vacuous and not rep.verdict
    with pytest.raises(PreconditionViolated):
        check_counterexample(2, m=2)  # 2m = 4 is a square
    with pytest.raises(PreconditionViolated):
        check_counterexample(2, m=0)


def test_unknown_family():
    with pytest.raises(ValueError):
        check_counterexample(3)


def test_fundamental_discriminant_range():
    ds = fundamental_discriminants(-30, 30)
    assert -4 in ds and 5 in ds and 0 not in ds and 1 not in ds


def test_family1_sweep_is_all_passes():
    reports = sweep_counterexample_family1(60)
    assert reports
    assert all(r.verdict for r in reports)


def test_summary_format():
    rep = check_masley(4, 5)
    text = rep.summary()
    assert text.startswith("[pass]") and "masley" in text


def _subfields_by_bfs(modulus):
    """Every subfield of Q(zeta_modulus): close each subfield found so far
    with each character, until nothing new appears."""
    full = cyclotomic_field(modulus)
    subgroups = {AbelianField(full.chars[:1])}
    frontier = list(subgroups)
    while frontier:
        new = []
        for sub in frontier:
            for chi in full.chars:
                bigger = field_from_generators(list(sub.chars) + [chi])
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    new.append(bigger)
        frontier = new
    return subgroups


def test_subfields_match_bfs():
    # every prime power <= 64 and, as the acceptance gate takes the CM
    # subfields of Q(zeta_m) for all m <= 40, the composite m <= 40 too
    count = 0
    for m in range(3, 65):
        if m % 4 == 2 or (m > 40 and len(factorize(m)) > 1):
            continue
        fields = _subfields(m)
        assert len(set(fields)) == len(fields), m
        assert set(fields) == _subfields_by_bfs(m), m
        count += len(fields)
    assert count == 299


def test_v4_sweep_does_each_quadratic_step_once(monkeypatch, capsys):
    """`verify v4 --sweep` builds each quadratic field and counts each class
    number once per discriminant, and never rebuilds a V4 field as its own
    2-primary subfield.  The memo bodies are wrapped with counters and
    memoized again in every module that holds them."""
    bodies = Counter()

    def counted(name, memo):
        def body(*args):
            bodies[name, args] += 1
            return memo.__wrapped__(*args)
        return functools.lru_cache(maxsize=None)(body)

    for memo in (fields.quadratic_field, quadratic.class_number):
        wrapped = counted(memo.__name__, memo)
        for ns in (cmfields, cli, fields, hminus, quadratic, theorems, unitindex):
            for key, value in list(vars(ns).items()):
                if value is memo:
                    monkeypatch.setattr(ns, key, wrapped)

    entered, inside, rebuilt = [0], [0], [0]
    two_primary = AbelianField.two_primary_subfield
    init = AbelianField.__init__

    def counted_two_primary(self):
        entered[0] += 1
        inside[0] += 1
        try:
            return two_primary(self)
        finally:
            inside[0] -= 1

    def counted_init(self, chars):
        rebuilt[0] += inside[0] > 0
        init(self, chars)

    monkeypatch.setattr(AbelianField, "two_primary_subfield", counted_two_primary)
    monkeypatch.setattr(AbelianField, "__init__", counted_init)

    assert main(["verify", "v4", "--sweep", "--max", "300"]) == 0
    out = capsys.readouterr().out
    pairs = re.findall(r"'d1': (-\d+), 'd2': (-\d+)", out)
    discs = {int(d) for pair in pairs for d in pair}
    assert len(pairs) == len(out.splitlines()) > 20 and len(discs) < 2 * len(pairs)
    assert bodies == Counter({(name, (d,)): 1 for d in discs
                              for name in ("quadratic_field", "class_number")})
    assert entered[0] == len(pairs) and rebuilt == [0]


def test_v4_sweep_decomposes_without_building(monkeypatch, capsys):
    """`prime_power_decomposition`, which the cascade still enters on
    `verify v4 --sweep`, hands back the field's own characters: it builds
    no field and no character."""
    results, inside, built = [], [0], Counter()
    decompose = AbelianField.prime_power_decomposition
    init = AbelianField.__init__
    set_character = DirichletCharacter._set

    def counted_decompose(self):
        inside[0] += 1
        try:
            comps = decompose(self)
        finally:
            inside[0] -= 1
        results.append(comps is not None)
        return comps

    def counted_init(self, chars):
        built["AbelianField"] += inside[0] > 0
        init(self, chars)

    def counted_set(self, modulus, exponents):
        built["DirichletCharacter"] += inside[0] > 0
        set_character(self, modulus, exponents)

    monkeypatch.setattr(AbelianField, "prime_power_decomposition",
                        counted_decompose)
    monkeypatch.setattr(AbelianField, "__init__", counted_init)
    monkeypatch.setattr(DirichletCharacter, "_set", counted_set)

    assert main(["verify", "v4", "--sweep", "--max", "300"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 20
    assert True in results and False in results
    assert +built == Counter()

"""Unit-index cascade and capitulation verdicts, and the closed form for
Q(zeta_m) against the cascade."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmfields import unitindex
from cmfields.errors import (InternalInconsistency, NotCMField,
                             PreconditionViolated, UnsupportedField)
from cmfields.fields import AbelianField, cyclotomic_field, quadratic_field
from cmfields.hminus import minus_class_number
from cmfields.quadratic import ideal_sqrt_of_element, is_principal
from cmfields.theorems import _subfields
from cmfields.unitindex import (
    RULE_CYC_COMPOSITE,
    RULE_CYC_PRIME_POWER,
    RULE_ESS_RAMIFIED,
    RULE_IMAG_QUADRATIC,
    RULE_ONE_IMAGINARY,
    RULE_OVERRIDE,
    RULE_PRIME_POWER_CONDUCTOR,
    RULE_TWO_IMAGINARY,
    RULE_TWO_NOT_SQUARE,
    RULE_TWO_SQUARE_NONPRINCIPAL,
    RULE_TWO_SQUARE_PRINCIPAL,
    biquadratic_verdict,
    hasse_unit_index,
    martinet_pair,
)
from unitindex_sweep import closed_form_verdict, mismatches


def biquad(d1, d2):
    return quadratic_field(d1).compositum(quadratic_field(d2))


def test_cyclotomic_rules():
    assert hasse_unit_index(cyclotomic_field(16)).q == 1
    assert hasse_unit_index(cyclotomic_field(16)).rule == RULE_CYC_PRIME_POWER
    v15 = hasse_unit_index(cyclotomic_field(15))
    assert v15.q == 2 and v15.rule == RULE_CYC_COMPOSITE
    for m in range(3, 101):
        if m % 4 == 2 or not cyclotomic_field(m).is_cm():
            continue
        v = hasse_unit_index(cyclotomic_field(m))
        from cmfields.arith import factorize

        expected = 1 if len(factorize(m)) == 1 else 2
        assert v.q == expected, m


def test_imaginary_quadratic():
    for d in (-3, -4, -20, -23):
        v = hasse_unit_index(quadratic_field(d))
        assert (v.q, v.kappa_order, v.rule) == (1, 1, RULE_IMAG_QUADRATIC)


def test_rejects_non_cm():
    with pytest.raises(NotCMField):
        hasse_unit_index(quadratic_field(5))


def test_override():
    v = hasse_unit_index(quadratic_field(-4), override=2)
    assert (v.q, v.kappa_order, v.rule) == (2, 1, RULE_OVERRIDE)


def test_override_out_of_range_rejected():
    with pytest.raises(PreconditionViolated):
        hasse_unit_index(quadratic_field(-23), override=3)
    with pytest.raises(PreconditionViolated):
        minus_class_number(quadratic_field(-23), q_override=3)


def test_biquadratic_verdict_rejects_other_fields():
    with pytest.raises(PreconditionViolated):
        biquadratic_verdict(cyclotomic_field(5))  # cyclic of degree 4


def test_input_checks_hold_under_python_O():
    # python -O strips assert statements; these checks must not be asserts
    script = (
        "from cmfields.errors import PreconditionViolated\n"
        "from cmfields.fields import cyclotomic_field, quadratic_field\n"
        "from cmfields.hminus import minus_class_number\n"
        "from cmfields.unitindex import biquadratic_verdict\n"
        "calls = {\n"
        "    'q_override=3': lambda: minus_class_number(quadratic_field(-23), q_override=3),\n"
        "    'zeta:5': lambda: biquadratic_verdict(cyclotomic_field(5)),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    try:\n"
        "        call()\n"
        "    except PreconditionViolated:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {name}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_theorem_instances():
    v = hasse_unit_index(biquad(-4, 136))  # Q(i, sqrt(34))
    assert (v.q, v.kappa_order, v.rule) == (2, 1, RULE_TWO_SQUARE_PRINCIPAL)
    v = hasse_unit_index(biquad(-4, 40))  # Q(i, sqrt(10))
    assert (v.q, v.kappa_order, v.rule) == (1, 2, RULE_TWO_SQUARE_NONPRINCIPAL)
    v = hasse_unit_index(biquad(8, -3))  # Q(sqrt 2, sqrt -3)
    assert (v.q, v.kappa_order) == (1, 1)


def test_theorem_instances_direct_subcase():
    # bypassing the decomposability shortcut must land in the stated
    # Theorem-1 branch with the same verdict
    direct = biquadratic_verdict(biquad(8, -3))
    assert (direct.q, direct.kappa_order, direct.rule) == (1, 1, RULE_ESS_RAMIFIED)
    direct = biquadratic_verdict(biquad(-4, 5))
    assert (direct.q, direct.kappa_order, direct.rule) == (1, 1, RULE_TWO_NOT_SQUARE)


def test_decomposable_rules():
    v = hasse_unit_index(biquad(-4, 5))
    assert (v.q, v.kappa_order, v.rule) == (1, 1, RULE_ONE_IMAGINARY)
    # Q(i, sqrt(-3)) = Q(zeta_12) would be caught as full cyclotomic, so
    # use a genuinely decomposable two-imaginary field
    v = hasse_unit_index(biquad(-4, -7))
    assert (v.q, v.kappa_order, v.rule) == (2, 1, RULE_TWO_IMAGINARY)


def test_prime_power_conductor_rule():
    # degree-4 CM field of conductor 16 inside Q(zeta_16)
    quartics = [f for f in _subfields(16) if f.degree == 4 and f.is_cm()
                and f.conductor == 16 and f != cyclotomic_field(16)]
    for f in quartics:
        v = hasse_unit_index(f)
        assert v.rule in (RULE_PRIME_POWER_CONDUCTOR, RULE_CYC_PRIME_POWER)
        assert v.q == 1


def test_q2_forces_trivial_capitulation():
    for d1, d2 in ((-4, 136), (-4, -7), (-3, -4), (-8, -3), (-4, 5), (-4, 40)):
        try:
            v = hasse_unit_index(biquad(d1, d2))
        except UnsupportedField:
            continue
        if v.q == 2:
            assert v.kappa_order == 1


def test_r0_idempotence():
    for m in (5, 7, 13, 15, 20, 21, 35, 40):
        K = cyclotomic_field(m)
        if not K.is_cm():
            continue
        v1 = hasse_unit_index(K)
        v2 = hasse_unit_index(K.two_primary_subfield())
        assert (v1.q, v1.kappa_order) == (v2.q, v2.kappa_order), m


def test_rule_overlap_coherence_on_decomposable_biquadratics():
    # fields decided by the decomposability rule but also covered by the
    # biquadratic case analysis must get the same Q either way
    import math

    from cmfields.arith import is_fundamental_discriminant

    checked = 0
    for d1 in (-4, -3, -7, -8, -11):
        for d2 in range(5, 60):
            if not is_fundamental_discriminant(d2) or math.gcd(d1, d2) != 1:
                continue
            K = biquad(d1, d2)
            if K.prime_power_decomposition() is None:
                continue
            from cmfields.arith import euler_phi

            if K.degree == euler_phi(K.conductor):
                continue  # full cyclotomic, outside the biquadratic case
            cascade = hasse_unit_index(K)
            direct = biquadratic_verdict(K)
            assert cascade.q == direct.q, (d1, d2)
            checked += 1
    assert checked >= 10


def test_d1_choice_independence():
    # the essential-ramification classification is the same for either
    # odd quadratic character generating K over K+
    from cmfields.arith import is_fundamental_discriminant

    for d1 in (-3, -7, -8, -11, -4):
        for d2 in range(5, 80):
            if not is_fundamental_discriminant(d2):
                continue
            K = biquad(d1, d2)
            discs = K.quadratic_subfield_discriminants()
            real = [d for d in discs if d > 0]
            imag = [d for d in discs if d < 0]
            if len(real) != 1 or K.roots_of_unity_order() % 4 != 2:
                continue
            D = real[0]
            states = set()
            for d in imag:
                ideal = ideal_sqrt_of_element(D, d)
                if ideal is None:
                    states.add("ramified")
                else:
                    states.add("principal" if is_principal(ideal) else "nonprincipal")
            assert len(states) == 1, (d1, d2, states)


def test_martinet_pairs():
    rep = martinet_pair(17)
    assert (rep.unit_norm, rep.q_biquadratic, rep.q_octic) == (1, 2, 1)
    rep = martinet_pair(41)  # norm -1: reported, not asserted against
    assert rep.unit_norm == -1 and rep.q_biquadratic is None
    with pytest.raises(PreconditionViolated):
        martinet_pair(7)
    with pytest.raises(PreconditionViolated):
        martinet_pair(33)


def test_unsupported_field_raises():
    # cyclic quartic CM of conductor 65: not cyclotomic, conductor not a
    # prime power, not decomposable, not of exponent 2 -> no rule applies
    from cmfields.characters import DirichletCharacter
    from cmfields.fields import field_from_generators
    from charoracle import char_mul

    chi = char_mul(DirichletCharacter(5, [1]), DirichletCharacter(13, [6]))
    K = field_from_generators([chi])
    assert K.degree == 4 and K.is_cm() and K.conductor == 65
    assert K.prime_power_decomposition() is None
    with pytest.raises(UnsupportedField):
        hasse_unit_index(K)


def test_cyclotomic_closed_form_matches_the_cascade():
    """(q, kappa, rule) on every Q(zeta_m), 3 <= m <= 1000, against the
    cascade on the eagerly built field; `tests/unitindex_sweep.py` runs
    the same check up to 3000."""
    assert mismatches(closed_form_verdict, 1000) == []


def test_cyclotomic_closed_form_builds_no_subfield(monkeypatch):
    def refuse(self):
        raise AssertionError("2-primary subfield built")

    monkeypatch.setattr(AbelianField, "two_primary_subfield", refuse)
    for m in (3, 5, 15, 16, 39, 40, 255, 256, 1155):
        K = cyclotomic_field(m, max_degree=m)
        hasse_unit_index(K)
        assert K._chars is None, m


# (exact snippet of `_cyclotomic_verdict`, committed mutant)
_FERMAT_TEST = "fermat = all((p - 1) & (p - 2) == 0 for p in primes)"
_Q_TWO = "return UnitIndexVerdict(2, 1, "
CLOSED_FORM_MUTANTS = {
    "fermat test dropped": (_FERMAT_TEST, "fermat = True"),
    "q = 1 for r > 1": (_Q_TWO, "return UnitIndexVerdict(1, 1, "),
}


def _mutated_closed_form(snippet, replacement):
    source = inspect.getsource(unitindex._cyclotomic_verdict)
    assert source.count(snippet) == 1
    namespace = dict(vars(unitindex))
    exec(source.replace(snippet, replacement), namespace)
    return namespace["_cyclotomic_verdict"]


@pytest.mark.parametrize("name", CLOSED_FORM_MUTANTS)
def test_the_cascade_oracle_kills_closed_form_mutants(name):
    mutant = _mutated_closed_form(*CLOSED_FORM_MUTANTS[name])
    assert mismatches(lambda m: tuple(mutant(m)), 1000)


def test_closed_form_verdicts_pass_the_invariant_check():
    """The closed form's verdicts go through `UnitIndexVerdict`, whose
    check also holds under `python -O`: q = 2 with an unknown kernel
    raises."""
    mutant = _mutated_closed_form(_Q_TWO, "return UnitIndexVerdict(2, None, ")
    assert mutant(16).q == 1
    with pytest.raises(InternalInconsistency, match="unit index 2 with"):
        mutant(15)

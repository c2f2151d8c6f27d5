"""The package's record types: field names and order, value equality,
immutability, and the checks two of them make when they are built."""

import json

import pytest

from cmfields.arith import UnitGroupStructure
from cmfields.errors import InternalInconsistency, PreconditionViolated
from cmfields.fields import quadratic_field
from cmfields.fieldspec import FieldSpec
from cmfields.hminus import MinusReport
from cmfields.quadratic import QuadForm, QuadIdeal
from cmfields.theorems import CheckReport
from cmfields.unitindex import MartinetReport, UnitIndexVerdict

# (record class, field names in order, a valid value for each field)
RECORDS = [
    (UnitGroupStructure, ("modulus", "generators", "orders", "blocks"),
     (20, (11, 17), (2, 4), (4, 5))),
    (FieldSpec, ("kind", "raw", "payload"), ("zeta", "zeta:5", (5,))),
    (MinusReport, ("field", "q", "w", "rule", "orbit_factors", "h_minus"),
     (quadratic_field(-23), 1, 2, "imaginary-quadratic",
      (("f=23:e=11", 3),), 3)),
    (UnitIndexVerdict, ("q", "kappa_order", "rule"), (1, None, "user-override")),
    (MartinetReport, ("p", "unit_norm", "q_biquadratic", "q_octic"), (17, 1, 2, 1)),
    (QuadForm, ("a", "b", "c"), (2, 1, 3)),
    (QuadIdeal, ("D", "a", "b"), (-23, 2, 1)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_fields_in_order(cls, names, values):
    rec = cls(*values)
    assert cls._fields == names
    assert [getattr(rec, name) for name in names] == list(values)
    assert rec == cls(**dict(zip(names, values)))


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_are_immutable(cls, names, values):
    rec = cls(*values)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_martinet_json_keys_keep_field_order():
    assert json.dumps(MartinetReport(17, 1, 2, 1)._asdict()) == (
        '{"p": 17, "unit_norm": 1, "q_biquadratic": 2, "q_octic": 1}')


def test_check_report_defaults_and_fresh_quantities():
    a, b = CheckReport("v4_identity", {"d1": -3}), CheckReport("v4_identity", {"d1": -3})
    assert (a.quantities, a.verdict, a.vacuous, a.statement) == ({}, False, False, "")
    assert a.quantities is not b.quantities
    a.quantities["h1"] = 1
    assert b.quantities == {}


def test_check_report_equality_by_value():
    fields = dict(name="v4_identity", inputs={"d1": -3, "d2": -4},
                  quantities={"rhs": 1}, verdict=True, statement="identity")
    assert CheckReport(**fields) == CheckReport(**fields)
    assert CheckReport(**fields) != CheckReport(**dict(fields, vacuous=True))
    # mutable, so unhashable
    with pytest.raises(TypeError):
        hash(CheckReport(**fields))


@pytest.mark.parametrize("q, kappa", [(2, None), (2, 2), (3, 1), (0, None)])
def test_unit_index_verdict_rejects_impossible_pairs(q, kappa):
    with pytest.raises(InternalInconsistency, match=f"unit index {q} with"):
        UnitIndexVerdict(q, kappa, "user-override")
    with pytest.raises(InternalInconsistency, match=f"unit index {q} with"):
        UnitIndexVerdict(1, 1, "user-override")._replace(q=q, kappa_order=kappa)


@pytest.mark.parametrize("D, a, b", [(-23, 2, 0), (-23, 0, 1), (-23, -2, 1), (40, 3, 1)])
def test_quad_ideal_rejects_non_ideals(D, a, b):
    with pytest.raises(PreconditionViolated, match="is not an ideal of discriminant"):
        QuadIdeal(D, a, b)
    with pytest.raises(PreconditionViolated, match="is not an ideal of discriminant"):
        QuadIdeal(D, 1, D % 2)._replace(a=a, b=b)

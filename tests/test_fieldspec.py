"""Field-spec mini-grammar."""

import pytest

from cmfields.errors import ParseError
from cmfields.fields import cyclotomic_field, quadratic_field
from cmfields.fieldspec import parse_field_spec


def test_parse_examples():
    assert parse_field_spec("zeta:20").build() == cyclotomic_field(20)
    L = parse_field_spec("quad:-4*quad:40").build()
    assert L.degree == 4 and L.conductor == 40
    assert parse_field_spec("chars:f=5:e=1").build() == cyclotomic_field(5)


def test_parse_quadratic():
    assert parse_field_spec("quad:-23").build() == quadratic_field(-23)


def test_chars_multiple_generators():
    K = parse_field_spec("chars:f=4:e=1+f=5:e=1").build()
    assert K == cyclotomic_field(20)


def test_chars_empty_exponents():
    # modulus 1 has no generators
    K = parse_field_spec("chars:f=1:e=").build()
    assert K.degree == 1


def test_chars_leading_negative_exponent():
    # an exponent is read mod the generator's order, the first one included
    assert (parse_field_spec("chars:f=5:e=-1").build()
            == parse_field_spec("chars:f=5:e=3").build())
    assert (parse_field_spec("chars:f=15:e=-1,-1").build()
            == parse_field_spec("chars:f=15:e=1,3").build())
    with pytest.raises(ParseError) as exc:
        parse_field_spec("chars:f=5:e=-")
    assert exc.value.offset == 12


def test_compositum_left_associative():
    spec = parse_field_spec("zeta:4*zeta:5*zeta:3")
    assert spec.kind == "compositum"
    assert spec.build() == cyclotomic_field(60)


def test_round_trip():
    for text in ("zeta:20", "quad:-4", "quad:-4*quad:40",
                 "chars:f=4:e=1+f=5:e=1", "zeta:4*quad:5*chars:f=8:e=1,0"):
        spec = parse_field_spec(text)
        assert str(spec) == text
        again = parse_field_spec(str(spec))
        assert again.build() == spec.build()


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_field_spec("zeta:x")
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse_field_spec("zeta:4!zeta:5")
    assert exc.value.offset == 6
    with pytest.raises(ParseError):
        parse_field_spec("cubic:7")
    with pytest.raises(ParseError):
        parse_field_spec("chars:g=4")


def test_max_degree_respected():
    from cmfields.errors import DegreeBoundExceeded

    with pytest.raises(DegreeBoundExceeded):
        parse_field_spec("zeta:100").build(max_degree=16)
    with pytest.raises(DegreeBoundExceeded):
        parse_field_spec("quad:-3").build(max_degree=1)
    assert parse_field_spec("quad:-3").build(max_degree=2).degree == 2

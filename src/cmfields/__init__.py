"""Exact arithmetic for abelian CM-fields: minus class numbers, Hasse
unit indices, and executable divisibility checks."""

from .arith import Rational, factorize, is_fundamental_discriminant, unit_group
from .characters import DirichletCharacter, galois_orbits
from .cyclotomic import CycNumber, absolute_norm, cyclotomic_polynomial, galois_apply
from .fields import (
    AbelianField,
    cyclotomic_field,
    field_from_generators,
    quadratic_field,
)
from .fieldspec import parse_field_spec
from .hminus import (
    MinusReport,
    bernoulli_b1,
    minus_class_number,
    minus_partial_product,
    orbit_factors,
)
from .quadratic import (
    QuadForm,
    QuadIdeal,
    class_number,
    fundamental_unit_norm,
    ideal_sqrt_of_element,
    is_principal,
    split_prime,
)
from .unitindex import UnitIndexVerdict, hasse_unit_index, martinet_pair

__all__ = [
    "AbelianField",
    "CycNumber",
    "DirichletCharacter",
    "MinusReport",
    "QuadForm",
    "QuadIdeal",
    "Rational",
    "UnitIndexVerdict",
    "absolute_norm",
    "bernoulli_b1",
    "class_number",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "factorize",
    "field_from_generators",
    "fundamental_unit_norm",
    "galois_apply",
    "galois_orbits",
    "hasse_unit_index",
    "ideal_sqrt_of_element",
    "is_fundamental_discriminant",
    "is_principal",
    "martinet_pair",
    "minus_class_number",
    "minus_partial_product",
    "orbit_factors",
    "parse_field_spec",
    "quadratic_field",
    "split_prime",
    "unit_group",
]

"""Text mini-grammar for naming abelian fields on the command line and in
JSON output:

    zeta:<m>                          cyclotomic field
    quad:<d>                          quadratic field, fundamental discriminant d
    chars:f=<m>:e=<e1,..>(+f=..)*     field generated by encoded characters
    <spec>*<spec>                     compositum

Whitespace-free; parse errors carry byte offsets.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import DirichletCharacter
from .errors import DegreeBoundExceeded, ParseError
from .fields import (
    AbelianField,
    DEFAULT_MAX_DEGREE,
    cyclotomic_field,
    field_from_generators,
    quadratic_field,
)


class FieldSpec(namedtuple("FieldSpec", "kind raw payload")):
    """A parsed spec: kind is "zeta", "quad", "chars" or "compositum", raw
    the text it was read from, payload a tuple of the kind's values."""

    __slots__ = ()

    def build(self, max_degree: int = DEFAULT_MAX_DEGREE) -> AbelianField:
        if self.kind == "zeta":
            return cyclotomic_field(self.payload[0], max_degree=max_degree)
        if self.kind == "quad":
            if max_degree < 2:
                raise DegreeBoundExceeded(f"degree 2 exceeds bound {max_degree}")
            return quadratic_field(self.payload[0])
        if self.kind == "chars":
            gens = [DirichletCharacter(m, e) for m, e in self.payload]
            return field_from_generators(gens, max_degree=max_degree)
        left, right = self.payload
        return left.build(max_degree).compositum(
            right.build(max_degree), max_degree=max_degree
        )

    def __str__(self) -> str:
        return self.raw


def parse_field_spec(text: str) -> FieldSpec:
    spec, pos = _parse_one(text, 0)
    while pos < len(text):
        if text[pos] != "*":
            raise ParseError(text, pos, "'*' or end of input")
        right, newpos = _parse_one(text, pos + 1)
        spec = FieldSpec("compositum", text[: newpos], (spec, right))
        pos = newpos
    return spec


def _parse_one(text: str, pos: int) -> tuple[FieldSpec, int]:
    rest = text[pos:]
    if rest.startswith("zeta:"):
        value, end = _parse_int(text, pos + 5)
        if value < 1:
            raise ParseError(text, pos + 5, "positive integer")
        return FieldSpec("zeta", text[pos:end], (value,)), end
    if rest.startswith("quad:"):
        value, end = _parse_int(text, pos + 5)
        return FieldSpec("quad", text[pos:end], (value,)), end
    if rest.startswith("chars:"):
        return _parse_chars(text, pos + 6, pos)
    raise ParseError(text, pos, "'zeta:', 'quad:' or 'chars:'")


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: str.isdigit() also takes '²' and '٣', which int()
    rejects or reads as another number."""
    return "0" <= ch <= "9"


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    end = pos
    if end < len(text) and text[end] == "-":
        end += 1
    while end < len(text) and _is_digit(text[end]):
        end += 1
    if end == pos or text[pos:end] == "-":
        raise ParseError(text, pos, "integer")
    return int(text[pos:end]), end


def _parse_chars(text: str, pos: int, start: int) -> tuple[FieldSpec, int]:
    gens = []
    while True:
        if not text[pos:].startswith("f="):
            raise ParseError(text, pos, "'f='")
        modulus, end = _parse_int(text, pos + 2)
        if modulus < 1:
            raise ParseError(text, pos + 2, "positive integer")
        pos = end
        if not text[pos:].startswith(":e="):
            raise ParseError(text, pos, "':e='")
        pos += 3
        exps = []
        if pos < len(text) and (_is_digit(text[pos]) or text[pos] == "-"):
            while True:
                value, pos = _parse_int(text, pos)
                exps.append(value)
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                else:
                    break
        gens.append((modulus, tuple(exps)))
        if pos < len(text) and text[pos] == "+":
            pos += 1
        else:
            break
    return FieldSpec("chars", text[start:pos], tuple(gens)), pos

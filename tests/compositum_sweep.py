"""The direct product of two fields of coprime conductors against the
closure it replaces.

    PYTHONPATH=src python tests/compositum_sweep.py [MAX_DISC [MAX_DEGREE]]

`AbelianField.compositum` builds K1 K2 for coprime conductors as a
direct product, with no closure, and builds its characters only when they
are read.  The oracle is `field_from_generators` on the non-principal
characters of both fields, the path every other compositum takes.
`differences` compares the two builds attribute by attribute: first what
h- and the unit index read off the factors, on the fresh product, which
must build no character for it; then the characters themselves.  The
script runs it on every coprime pair of fundamental discriminants of
either sign with |d1 d2| <= MAX_DISC (default 20000) and on
Q(zeta_a) Q(zeta_b) for coprime canonical levels a != b with
phi(a) phi(b) <= MAX_DEGREE (default 256), each in both argument orders,
and on every compositum `sweep_metsankyla` checks.  It prints each
mismatch and exits 1 if there is one.  `tests/test_compositum.py` runs
the same comparison on smaller ranges.
"""

from __future__ import annotations

import math
import sys

from cmfields import theorems
from cmfields.arith import euler_phi, is_fundamental_discriminant
from cmfields.characters import encode
from cmfields.errors import CMFieldsError
from cmfields.fields import (AbelianField, cyclotomic_field,
                             field_from_generators, quadratic_field)
from cmfields.hminus import minus_class_number
from cmfields.unitindex import hasse_unit_index


def closure(K1: AbelianField, K2: AbelianField, max_degree: int) -> AbelianField:
    """K1 K2 as the closure of both fields' non-principal characters."""
    gens = [c for c in K1.chars + K2.chars if not c.is_principal()]
    return field_from_generators(gens or K1.chars[:1], max_degree=max_degree)


def _character(c) -> tuple:
    return (c.modulus, c.exponents, c.order, c.conductor(), c.parity(),
            c.primitive_key())


def _outcome(call):
    """call()'s value, or the type and text of the error it raises."""
    try:
        return call()
    except CMFieldsError as exc:
        return type(exc).__name__, str(exc)


def _factor_answers(K: AbelianField) -> dict:
    """What h- and the unit index read: a direct product reads them off
    its factors."""
    comps = K.prime_power_decomposition()
    cm = K.is_cm()
    return {
        "odd orbits": [encode(*rep.primitive_key())
                       for rep in K.odd_orbit_representatives()],
        "decomposition": None if comps is None else
        [{c.primitive_key() for c in comp} for comp in comps],
        "discriminants": K.quadratic_subfield_discriminants(),
        "exponent": K.exponent(),
        "cm": cm,
        "w": K.roots_of_unity_order(),
        "unit index": _outcome(lambda: tuple(hasse_unit_index(K))),
        "h-": _outcome(lambda: minus_class_number(K).h_minus) if cm else None,
    }


def _invariants(K: AbelianField) -> dict:
    return {
        "modulus": K.modulus,
        "conductor": K.conductor,
        "degree": K.degree,
        "hash": hash(K),
        "chars": [_character(c) for c in K.chars],
        "odd": [c.encode() for c in K.odd_characters()],
    }


def differences(K1: AbelianField, K2: AbelianField,
                max_degree: int = 256) -> list[str]:
    """The attributes on which the direct product of K1 and K2 and the
    closure differ; "built" when the product's answers to h- and the unit
    index read its characters, "==" when the two are not equal fields, and
    "2-primary" when their 2-primary subfields are not."""
    new = AbelianField._direct_product(K1, K2, max_degree)
    old = closure(K1, K2, max_degree)
    got, want = _factor_answers(new), _factor_answers(old)
    out = [name for name in want if got[name] != want[name]]
    two = new.two_primary_subfield()
    if new._chars is not None or new._prim_keys is not None:
        out.append("built")
    got, want = _invariants(new), _invariants(old)
    out += [name for name in want if got[name] != want[name]]
    if new != old:
        out.append("==")
    if two != old.two_primary_subfield():
        out.append("2-primary")
    return out


def discriminant_pairs(top: int) -> list[tuple[int, int]]:
    """(d1, d2) for coprime fundamental discriminants of either sign, d1 != d2,
    with |d1 d2| <= top, in both orders."""
    discs = [d for d in range(-top // 3, top // 3 + 1)
             if is_fundamental_discriminant(d)]
    return [(d1, d2) for d1 in discs for d2 in discs
            if d1 != d2 and abs(d1 * d2) <= top and math.gcd(d1, d2) == 1]


def cyclotomic_pairs(max_degree: int) -> list[tuple[int, int]]:
    """(a, b) for coprime canonical levels a != b >= 3 with
    phi(a) phi(b) <= max_degree, in both orders."""
    # phi(b) >= 2, so phi(a) <= max_degree / 2, and phi(a) >= sqrt(a / 2)
    half = max_degree // 2
    levels = [m for m in range(3, 2 * half**2 + 1) if m % 4 != 2
              and euler_phi(m) <= half]
    return [(a, b) for a in levels for b in levels
            if a != b and math.gcd(a, b) == 1
            and euler_phi(a) * euler_phi(b) <= max_degree]


def metsankyla_pairs() -> list[tuple[AbelianField, AbelianField]]:
    """(L1, L2), (L1, L2+) and (L2, L1+) for every pair that
    `sweep_metsankyla` checks at its default bound."""
    pairs = []
    check = theorems.check_metsankyla
    theorems.check_metsankyla = lambda l1, l2, max_degree: pairs.append((l1, l2))
    try:
        theorems.sweep_metsankyla()
    finally:
        theorems.check_metsankyla = check
    return [(K1, K2) for l1, l2 in pairs for K1, K2 in
            ((l1, l2), (l1, l2.maximal_real_subfield()),
             (l2, l1.maximal_real_subfield()))]


def main(argv: list[str]) -> int:
    top = int(argv[0]) if argv else 20000
    max_degree = int(argv[1]) if len(argv) > 1 else 256
    cases = [(f"quad:{d1}*quad:{d2}", quadratic_field(d1), quadratic_field(d2))
             for d1, d2 in discriminant_pairs(top)]
    cases += [(f"zeta:{a}*zeta:{b}", cyclotomic_field(a, max_degree),
               cyclotomic_field(b, max_degree))
              for a, b in cyclotomic_pairs(max_degree)]
    cases += [(f"{K1!r}*{K2!r}", K1, K2) for K1, K2 in metsankyla_pairs()
              if K1.degree * K2.degree <= max_degree]
    bad = 0
    for name, K1, K2 in cases:
        diff = differences(K1, K2, max_degree)
        if diff:
            bad += 1
            print(f"{name}: direct product differs from the closure on "
                  f"{', '.join(diff)}")
    print(f"{len(cases)} composita, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The direct product of two fields of coprime conductors against the
closure it replaces.

    PYTHONPATH=src python tests/compositum_sweep.py [MAX_DISC [MAX_DEGREE]]

`AbelianField.compositum` builds K1 K2 for coprime conductors as a
direct product, with no closure.  The oracle is `field_from_generators`
on the non-principal characters of both fields, the path every other
compositum takes.  `differences` compares the two builds attribute by
attribute; the script runs it on every coprime pair of fundamental
discriminants of either sign with |d1 d2| <= MAX_DISC (default 20000) and
on Q(zeta_a) Q(zeta_b) for coprime canonical levels a != b with
phi(a) phi(b) <= MAX_DEGREE (default 256), each in both argument orders.
It prints each mismatch and exits 1 if there is one.
`tests/test_compositum.py` runs the same comparison on smaller ranges.
"""

from __future__ import annotations

import math
import sys

from cmfields.arith import euler_phi, is_fundamental_discriminant
from cmfields.fields import (AbelianField, cyclotomic_field,
                             field_from_generators, quadratic_field)


def closure(K1: AbelianField, K2: AbelianField, max_degree: int) -> AbelianField:
    """K1 K2 as the closure of both fields' non-principal characters."""
    gens = [c for c in K1.chars + K2.chars if not c.is_principal()]
    return field_from_generators(gens or K1.chars[:1], max_degree=max_degree)


def _character(c) -> tuple:
    return (c.modulus, c.exponents, c.order, c.conductor(), c.parity(),
            c.primitive_key())


def _invariants(K: AbelianField) -> dict:
    return {
        "modulus": K.modulus,
        "conductor": K.conductor,
        "degree": K.degree,
        "hash": hash(K),
        "chars": [_character(c) for c in K.chars],
        "w": K.roots_of_unity_order(),
        "odd": [c.encode() for c in K.odd_characters()],
    }


def differences(K1: AbelianField, K2: AbelianField, max_degree: int = 256,
                product=AbelianField._direct_product) -> list[str]:
    """The attributes on which product(K1, K2, max_degree) and the
    closure differ, with "==" when they are not equal fields."""
    new = product(K1, K2, max_degree)
    old = closure(K1, K2, max_degree)
    got, want = _invariants(new), _invariants(old)
    out = [name for name in want if got[name] != want[name]]
    if new != old:
        out.append("==")
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


def main(argv: list[str]) -> int:
    top = int(argv[0]) if argv else 20000
    max_degree = int(argv[1]) if len(argv) > 1 else 256
    cases = [(f"quad:{d1}*quad:{d2}", quadratic_field(d1), quadratic_field(d2))
             for d1, d2 in discriminant_pairs(top)]
    cases += [(f"zeta:{a}*zeta:{b}", cyclotomic_field(a, max_degree),
               cyclotomic_field(b, max_degree))
              for a, b in cyclotomic_pairs(max_degree)]
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

"""Values and the group law of Dirichlet characters: the test oracle for
`cmfields.characters`.

The program reads a character through its exponent vector alone, so it
never evaluates one and never multiplies two.  The tests check its
conductors, parities, lifts, orbits and Bernoulli sums against these:
`value_exponent` reads chi(a) off the discrete log of a, `char_mul` and
`char_pow` build products and powers by adding and scaling exponents.
The primitive character that induces chi is `DirichletCharacter(*chi.
primitive_key())`.
"""

import math

from cmfields.arith import discrete_log_table, unit_group
from cmfields.characters import DirichletCharacter


def value_exponent(chi, a):
    """t with chi(a) = zeta_order^t, or None when gcd(a, m) > 1."""
    m = chi.modulus
    vec = discrete_log_table(m).get(a % m)
    if vec is None:
        return None
    n = chi.order
    t = 0
    for e, ai, o in zip(chi.exponents, vec, unit_group(m).orders):
        t += e * ai * n // o
    return t % n


def char_mul(chi, psi):
    """chi psi at the lcm of the two moduli."""
    m = math.lcm(chi.modulus, psi.modulus)
    a, b = chi.at_modulus(m), psi.at_modulus(m)
    return DirichletCharacter(m, [x + y for x, y in zip(a.exponents, b.exponents)])


def char_pow(chi, k):
    """chi^k at the modulus of chi; k may be negative."""
    return DirichletCharacter(chi.modulus, [k * e for e in chi.exponents])

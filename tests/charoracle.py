"""Values and the group law of Dirichlet characters: the test oracle for
`cmfields.characters`.

The program reads a character through its exponent vector alone, so it
never evaluates one and never multiplies two.  The tests check its
conductors, parities, lifts, orbits and Bernoulli sums against these:
`value_exponent` reads chi(a) off the discrete log of a, from the full
table `discrete_log_table`, and `char_mul` and `char_pow` build products
and powers by adding and scaling exponents.  The one log the package takes,
`characters._log` at a change of primitive root, is checked against the
table.
The primitive character that induces chi is `DirichletCharacter(*chi.
primitive_key())`.
"""

import math
from functools import lru_cache

from cmfields.arith import euler_phi, unit_group
from cmfields.characters import DirichletCharacter
from cmfields.errors import InternalInconsistency


@lru_cache(maxsize=None)
def discrete_log_table(m: int) -> dict[int, tuple[int, ...]]:
    """Map each residue coprime to m to its exponent vector on the canonical
    generators.  Built once per modulus; idempotent, safe to rebuild."""
    ug = unit_group(m)
    table = {1 % m: (0,) * len(ug.generators)}
    # enumerate all exponent vectors by one generator at a time
    for i, (g, order) in enumerate(zip(ug.generators, ug.orders)):
        current = list(table.items())
        acc = 1
        for k in range(1, order):
            acc = acc * g % m
            for res, vec in current:
                new = list(vec)
                new[i] = k
                table[res * acc % m] = tuple(new)
    if len(table) != euler_phi(m):
        raise InternalInconsistency(
            f"{len(table)} discrete logs mod {m}, expected {euler_phi(m)}")
    return table


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

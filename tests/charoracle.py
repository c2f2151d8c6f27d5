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

`cyclotomic_odd_orbit_reps` puts the odd orbits of Q(zeta_m) in
`galois_orbits` order from the per-conductor representatives alone, with
the greedy orbit minimum `orbit_min`; both once ran in the package and
are kept here as the ordering oracle.
"""

import math
from functools import lru_cache

from cmfields.arith import divisors, euler_phi, unit_group
from cmfields.characters import (DirichletCharacter, _block_map,
                                 odd_primitive_orbit_reps)
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


def orbit_min(exponents, orders) -> tuple[int, ...]:
    """The least exponent tuple in the Galois orbit of the character with
    these exponents on generators of these orders: the least
    (k x_i mod o_i)_i over the k prime to the character's order.

    One coordinate at a time: with k fixed mod s by the earlier ones, k x
    mod o runs over the d v with d = gcd(x, o) and v a unit mod t = o/d in
    the class of k x/d mod gcd(s, t), so the least is d times the least
    such unit.  That choice fixes k mod lcm(s, t).  A lift by `_block_map`
    need not keep exponent order, so this is taken at the modulus wanted.
    """
    s, k = 1, 0
    out = []
    for x, o in zip(exponents, orders):
        d = math.gcd(x, o)
        if d == o:
            out.append(0)
            continue
        t = o // d
        if s == 1:
            # the first nontrivial coordinate: d itself, with k = (x/d)^-1
            k, s = pow(x // d, -1, t), t
            out.append(d)
            continue
        g = math.gcd(s, t)
        u = x // d
        v = k * u % g or 1
        while math.gcd(v, t) != 1:
            v += g
        # k' = k mod s and k' u = v mod t; both agree mod g
        j = (v * pow(u, -1, t) - k) // g * pow(s // g, -1, t // g)
        k += s * (j % (t // g))
        s = s * t // g
        out.append(d * v % o)
    return tuple(out)


def cyclotomic_odd_orbit_reps(m: int) -> list[DirichletCharacter]:
    """One representative per Galois orbit of the odd characters mod m, in
    the order `galois_orbits` gives their orbits (by each orbit's least
    exponent tuple mod m), each the primitive character of the orbit's
    least primitive key: the orbits of conductor f are those of the odd
    primitive characters mod f, for each f | m.  At f = m the key is the
    least tuple already; below m it is lifted and taken least again."""
    orders = unit_group(m).orders
    keyed = [(chi.exponents, chi) for chi in odd_primitive_orbit_reps(m)]
    for f in divisors(m)[:-1]:
        keyed += [(orbit_min(_block_map(f, chi.exponents, m), orders), chi)
                  for chi in odd_primitive_orbit_reps(f)]
    keyed.sort(key=lambda pair: pair[0])
    return [chi for _, chi in keyed]

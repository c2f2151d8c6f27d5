"""The analytic class number formula engine.

h-(K) = Q(K) * w_K * prod over odd characters of (-B_chi / 2), where
B_chi = (1/f) sum chi(a) a over 1 <= a <= f coprime to f = conductor(chi).
Each Galois orbit of characters contributes one exact rational factor,
computed entirely inside Q(zeta_ord(chi)); integrality of the final
product is certified, never assumed.

The odd characters mod m are the odd primitive characters of the
conductors f | m, so Q(zeta_m) multiplies one memoized factor P(f) per
conductor, the product of its orbit factors.  The per-orbit list that only
the JSON output prints is built on request, by `orbit_factors`, from the
field's character group.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .arith import divisors, unit_group
from .characters import (DirichletCharacter, encode, galois_orbits,
                         odd_primitive_orbit_reps, orbit_rep)
from .cyclotomic import CycNumber, absolute_norm
from .errors import (
    EvenCharacter,
    InternalInconsistency,
    NonIntegralResult,
    NotClosed,
    PrincipalCharacter,
)
from .fields import AbelianField
from .unitindex import UnitIndexVerdict, hasse_unit_index


def bernoulli_b1(chi: DirichletCharacter) -> CycNumber:
    """Generalized Bernoulli number B_(1,chi) for an odd character, at
    level ord(chi).  The sum runs over the conductor f, not the defining
    modulus, with the exponents of chi's primitive key; no primitive
    character is built."""
    if chi.is_principal():
        raise PrincipalCharacter(chi.encode())
    if not chi.is_odd():
        raise EvenCharacter(chi.encode())
    f, exps = chi.primitive_key()
    n = chi.order
    # (Z/fZ)* = <smaller generators> x <g>, g of the largest order o.  The
    # smaller ones make a short prefix of residues u, each with its value
    # exponent t (chi(u) = zeta_n^t); u g^k has exponent t + k s, periodic
    # in k with period n / gcd(s, n), which divides o
    ug = unit_group(f)
    *small, (o, g, e) = sorted(zip(ug.orders, ug.generators, exps))
    prefix = [(1, 0)]
    for o_i, g_i, e_i in small:
        step = e_i * n // o_i
        prefix = [(u * x % f, (t + k * step) % n)
                  for k, x in enumerate(_powers(g_i, o_i, f))
                  for u, t in prefix]
    s = e * n // o
    period = n // gcd(s, n)
    powers = _powers(g, o, f)
    acc = [0] * n
    for u, t in prefix:
        vals = [u * x % f for x in powers] if u != 1 else powers
        if period == o:  # one residue per exponent class
            for r, v in enumerate(vals):
                acc[(t + r * s) % n] += v
            continue
        for r in range(period):
            acc[(t + r * s) % n] += sum(vals[r::period])
    # a and f - a are both units, so the residues sum to f phi(f) / 2
    if sum(acc) * 2 != f * len(prefix) * o:
        raise InternalInconsistency(
            f"unit residues mod {f} sum to {sum(acc)}, "
            f"not {f} * {len(prefix) * o} / 2")
    return CycNumber.from_power_coeffs(n, acc, f)


def _powers(g: int, o: int, f: int) -> list[int]:
    """g^0, ..., g^(o-1) mod f, the list doubled by one multiplier per step."""
    powers = [1]
    while len(powers) < o:
        step = powers[-1] * g % f
        powers += [x * step % f for x in powers]
    return powers[:o]


# primitive key of an orbit's representative -> orbit_factor
_ORBIT_FACTORS: dict[tuple[int, tuple[int, ...]], Fraction] = {}


def orbit_factor(rep: DirichletCharacter) -> Fraction:
    """Product of (-B_(1,chi)/2) over the Galois orbit of rep, as the
    norm of the representative's factor from Q(zeta_ord) down to Q.

    Memoized for the life of the process on rep's primitive key: the norm
    depends only on the orbit, so any representative gives the same value,
    and callers pick the canonical one (`characters.orbit_rep`) so they
    share entries.
    """
    key = rep.primitive_key()
    norm = _ORBIT_FACTORS.get(key)
    if norm is None:
        # N(-B/2) = N(B) / (-2)^phi over the phi = len(b.num) conjugates;
        # phi is odd only at level 2
        b = bernoulli_b1(rep)
        norm = _ORBIT_FACTORS[key] = absolute_norm(b) / (-2) ** len(b.num)
    return norm


# conductor f -> product of orbit_factor over the odd primitive orbits mod f
_CONDUCTOR_FACTORS: dict[int, Fraction] = {}


def _conductor_factor(f: int) -> Fraction:
    """P(f), the product of (-B_(1,chi)/2) over the odd primitive characters
    mod f (1 when there are none), memoized for the life of the process."""
    product = _CONDUCTOR_FACTORS.get(f)
    if product is None:
        product = Fraction(1)
        for rep in odd_primitive_orbit_reps(f):
            product *= orbit_factor(rep)
        _CONDUCTOR_FACTORS[f] = product
    return product


class MinusReport(namedtuple("MinusReport", "field q w rule h_minus")):
    """h-(field) with its unit index q, the rule that gave q, and w."""

    __slots__ = ()


def minus_class_number(
    K: AbelianField, q_override: int | None = None
) -> MinusReport:
    """Exact h-(K) for a CM abelian field.  Q(zeta_m) multiplies P(f) over
    the conductors f | m; any other field multiplies the factors of the
    orbits of `K.odd_orbit_representatives()`.  The numerators and the
    denominators are multiplied as ints, and reduced once.
    `hasse_unit_index` raises NotCMField for a field that is not CM."""
    verdict: UnitIndexVerdict = hasse_unit_index(K, override=q_override)
    w = K.roots_of_unity_order()
    if K._zeta:
        factors = [_conductor_factor(f) for f in divisors(K.modulus)]
    else:
        factors = [orbit_factor(rep) for rep in K.odd_orbit_representatives()]
    num, den = verdict.q * w, 1
    for x in factors:
        num *= x.numerator
        den *= x.denominator
    total = Fraction(num, den)
    if total.denominator != 1 or total <= 0:
        raise NonIntegralResult(
            f"h-(K) = {total} is not a positive integer for {K!r}"
        )
    return MinusReport(
        field=K,
        q=verdict.q,
        w=w,
        rule=verdict.rule,
        h_minus=int(total),
    )


def orbit_factors(K: AbelianField) -> tuple[tuple[str, Fraction], ...]:
    """One (representative encoding, norm) pair per odd orbit of K, in the
    order of `K.odd_orbit_representatives()`, each named by the encoding of
    its representative's primitive key.  Q(zeta_m) builds its character
    group here; after `minus_class_number(K)` every norm is a memo hit."""
    return tuple((encode(*rep.primitive_key()), orbit_factor(rep))
                 for rep in K.odd_orbit_representatives())


def minus_partial_product(chars) -> Fraction:
    """prod of (-B_(1,chi)/2) over a conjugation-closed set of odd
    characters, as an exact rational (empty product = 1)."""
    chars = list(chars)
    if not chars:
        return Fraction(1)
    if any(not c.is_odd() for c in chars):
        raise EvenCharacter("partial products take odd characters only")
    keys = {c.primitive_key() for c in chars}
    if len(keys) != len(chars):
        raise NotClosed("duplicate characters in partial-product input")
    total = Fraction(1)
    for orbit in galois_orbits(chars):
        total *= orbit_factor(orbit_rep(orbit))
    return total

"""Dirichlet characters encoded by exponents on the canonical generators
of (Z/mZ)*.

The program reads a character through its exponent vector alone: order,
conductor, parity, the primitive key, lifts, and the Galois orbits with
their representatives.  Values chi(a), products and powers are never
needed, so none are defined here.  The odd primitive orbits of one
conductor, the factors h-(Q(zeta_m)) multiplies over, get their
representatives in closed form, with no character group built.

The text encoding "f=<m>:e=<e1,...,ek>" (defining modulus, exponents in
canonical generator order) is stable across runs and versions; `encode`
writes it and `fieldspec` parses it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .arith import divisors, euler_phi, factorize, unit_group
from .errors import InternalInconsistency, LengthMismatch, NotClosed


def _block_map(src: int, exponents: tuple[int, ...], dst: int) -> tuple[int, ...]:
    """The exponents on the generators of (Z/dst Z)* of the character that
    has `exponents` on the generators of (Z/src Z)*; its conductor divides
    both moduli.

    Each prime-power block maps on its own.  The exponent on a generator
    of order o at p^k goes to the matching generator of order o' at p^c
    (the generator itself on an odd block; -1 or 5 on a 2-power block),
    times o'/o, which is exact because the conductor divides both moduli,
    and times d with g' = g^d mod p^min(k, c).  d = 1 unless the smallest
    primitive roots mod p and mod p^2 differ, as for p = 40487, so the map
    need not keep the order of exponent tuples.  The character's order on
    the block divides phi(p^min(k, c)), so d is needed only mod that.
    """
    src, dst = unit_group(src), unit_group(dst)
    exps = []
    for g, o, q in zip(dst.generators, dst.orders, dst.blocks):
        t = 0
        for e, g0, o0, q0 in zip(exponents, src.generators, src.orders,
                                 src.blocks):
            n = math.gcd(q, q0)
            if e == 0 or n == 1 or (q % 2 == 0 and g % 4 != g0 % 4):
                continue
            t = e * o // o0
            if g % n != g0 % n:
                t *= _log(n, g0 % n, g % n)
        exps.append(t % o)
    return tuple(exps)


@lru_cache(maxsize=None)
def _log(n: int, base: int, x: int) -> int:
    """The least k >= 0 with base^k = x mod n, by a walk over the powers of
    base; memoized per process on (n, base, x).  Raises
    InternalInconsistency when phi(n) steps do not reach x, as when base
    does not generate (Z/nZ)*."""
    acc = 1
    for k in range(euler_phi(n)):
        if acc == x:
            return k
        acc = acc * base % n
    raise InternalInconsistency(f"{x} is not a power of {base} mod {n}")


class DirichletCharacter:
    """A character mod m, chi(g_i) = zeta_{order_i}^{exponents_i}.

    Hashable and compared by (modulus, exponents); use `primitive_key` to
    compare characters living at different moduli.  The order, conductor
    and parity depend only on (modulus, exponents) and are worked out
    when the character is built.  The primitive key needs a block map to
    the conductor, so it is worked out on first use and kept; a lift
    copies all four from its source.
    """

    __slots__ = ("modulus", "exponents", "order", "_conductor", "_parity",
                 "_key")

    def __init__(self, modulus: int, exponents):
        ug = unit_group(modulus)
        exponents = tuple(exponents)
        if len(exponents) != len(ug.generators):
            raise LengthMismatch(
                f"modulus {modulus} has {len(ug.generators)} generators, "
                f"got {len(exponents)} exponents"
            )
        self._set(modulus, tuple(e % o for e, o in zip(exponents, ug.orders)))

    @classmethod
    def _reduced(cls, modulus: int,
                 exponents: tuple[int, ...]) -> "DirichletCharacter":
        """A character from a tuple the program has already reduced mod the
        orders of unit_group(modulus); nothing is checked."""
        chi = cls.__new__(cls)
        chi._set(modulus, exponents)
        return chi

    def _set(self, modulus: int, exponents: tuple[int, ...]) -> None:
        """One walk over the prime-power blocks of (Z/mZ)*.

        Conductor (Washington, Introduction to Cyclotomic Fields, Ch. 3):
        on an odd p^k a component of order o > 1 has conductor
        p^(1 + v_p(o)); on a power of 2 a nonzero exponent on -1 (3 mod 4)
        needs 4, and an exponent of order 2^j >= 2 on 5 needs 2^(j + 2).
        Parity: -1 is g^(o/2) for the generator g of an odd block and is
        the generator -1 of a 2-power block, so chi(-1) = (-1)^s with s
        the sum of the exponents on those generators.
        """
        ug = unit_group(modulus)
        n = f = 1
        s = 0
        for e, g, o, q in zip(exponents, ug.generators, ug.orders, ug.blocks):
            if e == 0:
                continue
            order = o // math.gcd(o, e)
            n = math.lcm(n, order)
            if q % 2:
                # o = (p - 1) p^(k-1), so gcd(o, q) = p^(k-1) and
                # gcd(order, q) = p^v_p(order)
                f = math.lcm(f, q // math.gcd(o, q) * math.gcd(order, q))
                s += e
            elif g % q == q - 1:
                f = math.lcm(f, 4)
                s += e
            else:
                f = math.lcm(f, 4 * order)
        self.modulus = modulus
        self.exponents = exponents
        self.order = n
        self._conductor = f
        self._parity = -1 if s % 2 else 1
        self._key = None

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter({self.encode()!r})"

    def encode(self) -> str:
        return encode(self.modulus, self.exponents)

    def is_principal(self) -> bool:
        return self.order == 1

    def parity(self) -> int:
        """chi(-1); -1 means odd."""
        return self._parity

    def is_odd(self) -> bool:
        return self._parity == -1

    # -- conductor, primitive key and lifts ------------------------------

    def conductor(self) -> int:
        """Smallest f | m such that chi factors through (Z/fZ)*."""
        return self._conductor

    def primitive_key(self) -> tuple[int, tuple[int, ...]]:
        """Modulus-independent identity: (conductor, primitive exponents)."""
        if self._key is None:
            m, f = self.modulus, self._conductor
            self._key = (f, self.exponents if f == m else
                         _block_map(m, self.exponents, f))
        return self._key

    def at_modulus(self, f: int) -> "DirichletCharacter":
        """chi viewed at any modulus f that its conductor divides, mapped up
        from the primitive key; the result copies chi's order, conductor,
        parity and primitive key."""
        if f == self.modulus:
            return self
        cond, exps = self.primitive_key()
        if f % cond:
            raise ValueError(f"conductor {cond} does not divide {f}")
        lift = DirichletCharacter.__new__(DirichletCharacter)
        lift.modulus = f
        lift.exponents = _block_map(cond, exps, f)
        lift.order = self.order
        lift._conductor = cond
        lift._parity = self._parity
        lift._key = (cond, exps)
        return lift


def principal_character(modulus: int = 1) -> DirichletCharacter:
    return DirichletCharacter(modulus, [0] * len(unit_group(modulus).generators))


def all_characters(modulus: int) -> list[DirichletCharacter]:
    """The full character group mod m, the exponent on the first generator
    varying fastest: mod 15 it runs (0, 0), (1, 0), (0, 1), (1, 1), ..."""
    orders = unit_group(modulus).orders
    return [DirichletCharacter._reduced(modulus, e[::-1])
            for e in itertools.product(*map(range, reversed(orders)))]


def galois_orbits(chars) -> list[list[DirichletCharacter]]:
    """Partition a conjugation-closed set under chi -> chi^k, gcd(k, ord)=1.

    Orbits come in increasing (modulus, exponents) order of their first
    member, and members in increasing k; the members are the input objects.
    chi^k has exponents k * e_i mod o_i, so conjugates are found by key
    without building a character."""
    index = {(c.modulus, c.exponents): c for c in chars}
    seen = set()
    orbits = []
    for key in sorted(index):
        if key in seen:
            continue
        m, exps = key
        n = index[key].order
        orders = unit_group(m).orders
        orbit = []
        for k in range(1, n + 1):
            if math.gcd(k, n) != 1:
                continue
            conj = (m, tuple(k * e % o for e, o in zip(exps, orders)))
            if conj not in index:
                raise NotClosed(f"{encode(*conj)} missing from the set")
            seen.add(conj)
            orbit.append(index[conj])
        orbits.append(orbit)
    return orbits


def orbit_rep(orbit) -> DirichletCharacter:
    """The canonical representative of a Galois orbit: the member with the
    least primitive key.  Every member has the same order and conductor."""
    return min(orbit, key=DirichletCharacter.primitive_key)


@lru_cache(maxsize=None)
def _least_units(t: int, g: int) -> tuple[int, ...]:
    """For each unit class mod g | t, the least unit mod t in that class;
    (0,) for t = 1."""
    if g == 1:
        return (1 if t > 1 else 0,)
    want = euler_phi(g)
    found = {}
    for v in range(t):
        if math.gcd(v, t) == 1:
            found.setdefault(v % g, v)
            if len(found) == want:
                break
    return tuple(found.values())


@lru_cache(maxsize=None)
def _primitive_orders(g: int, o: int, q: int) -> tuple[tuple[int, int], ...]:
    """(t, b) for each order t a character primitive on the block q can
    have on the generator g mod q of order o, with b = 1 when that
    component is odd at -1.  Memoized per process: blocks recur across
    conductors.

    An odd p^k needs p^(k-1) | t and t > 1 (see `DirichletCharacter._set`);
    -1 = g^(o/2), so the component is odd when o/t is.  At 4 the one
    character is odd.  At 2^k >= 8 the exponent on 5 has full order, and
    the one on -1 is free and decides the parity."""
    if q % 2:
        pk = math.gcd(o, q)
        return tuple((t, o // t % 2) for t in divisors(o) if t > 1 and t % pk == 0)
    if g != q - 1:
        return ((o, 0),)
    return ((2, 1),) if q == 4 else ((1, 0), (2, 1))


def _odd_primitive_count(f: int) -> int:
    """The number of odd primitive characters mod f, as a product over the
    prime-power blocks.  With A the number of primitive characters on a
    block and B their sum of chi(-1), the count is (prod A - prod B) / 2:
    A = phi(p^k) - phi(p^(k-1)), B = -1 at k = 1 and 0 above; A = 1,
    B = -1 at 4; A = 2^k / 4, B = 0 at 2^k >= 8; nothing is primitive at 2.
    """
    a = b = 1
    for p, e in factorize(f):
        q = p**e
        if p == 2:
            qa, qb = (0, 0) if q == 2 else (1, -1) if q == 4 else (q // 4, 0)
        else:
            qa, qb = euler_phi(q) - euler_phi(q // p), -1 if e == 1 else 0
        a, b = a * qa, b * qb
    return (a - b) // 2


def check_odd_orbit_reps(f: int, reps) -> None:
    """Raise InternalInconsistency unless every rep is odd and primitive
    mod f and the orbits they stand for, phi(ord chi) characters each,
    add up to the odd primitive characters mod f."""
    total = 0
    for chi in reps:
        if chi.modulus != f or chi._conductor != f or chi._parity != -1:
            raise InternalInconsistency(
                f"orbit representative {chi.encode()} is not odd primitive mod {f}")
        total += euler_phi(chi.order)
    want = _odd_primitive_count(f)
    if total != want:
        raise InternalInconsistency(
            f"orbit representatives mod {f} cover {total} characters, "
            f"not the {want} odd primitive ones")


def odd_primitive_orbit_reps(f: int) -> tuple[DirichletCharacter, ...]:
    """The least-key member of each Galois orbit of odd primitive characters
    mod f, as characters mod f in increasing exponent order.

    No character group is built.  A tuple is the least of its orbit, the
    least (k x_i mod o_i)_i over the k prime to the character's order,
    exactly when on each generator it is d v with t = o/d the component's
    order and v the least unit mod t in its class mod gcd(s, t), s the lcm
    of the earlier orders: the earlier coordinates fix k mod s.  Every
    class prime to that gcd occurs.  The orders t that are primitive on
    their block and odd in sum at -1 are chosen first, and the rest is a
    product over the generators.  `check_odd_orbit_reps` certifies the
    count."""
    vectors = []
    if f % 4 != 2:
        ug = unit_group(f)
        choices = [_primitive_orders(g % q, o, q) for g, o, q in
                   zip(ug.generators, ug.orders, ug.blocks)]
        for picked in itertools.product(*choices):
            if sum(b for _, b in picked) % 2 == 0:
                continue
            columns = []
            s = 1
            for (t, _), o in zip(picked, ug.orders):
                columns.append([o // t * v for v in _least_units(t, math.gcd(s, t))])
                s = math.lcm(s, t)
            vectors += itertools.product(*columns)
    reps = tuple(DirichletCharacter._reduced(f, e) for e in sorted(vectors))
    check_odd_orbit_reps(f, reps)
    return reps


def encode(modulus: int, exponents) -> str:
    """The text "f=<m>:e=<e1,...,ek>" of the character with these
    exponents mod m; takes a primitive key as it is."""
    return f"f={modulus}:e={','.join(map(str, exponents))}"

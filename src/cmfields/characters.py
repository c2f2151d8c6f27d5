"""Dirichlet characters encoded by exponents on the canonical generators
of (Z/mZ)*.

The text encoding "f=<m>:e=<e1,...,ek>" (defining modulus, exponents in
canonical generator order) is stable across runs and versions.
"""

from __future__ import annotations

import itertools
import math

from .arith import discrete_log_table, unit_group
from .errors import LengthMismatch, NotClosed


def _block_map(src, exponents: tuple[int, ...], dst) -> tuple[int, ...]:
    """The exponents on the generators of `dst` of the character that has
    `exponents` on the generators of `src`; its conductor divides both
    moduli.

    Each prime-power block maps on its own.  The exponent on a generator
    of order o at p^k goes to the matching generator of order o' at p^c
    (the generator itself on an odd block; -1 or 5 on a 2-power block),
    times o'/o, which is exact because the conductor divides both moduli,
    and times d with g' = g^d mod p^min(k, c).  d = 1 unless the smallest
    primitive roots mod p and mod p^2 differ, as for p = 40487.
    """
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
                log = discrete_log_table(n)
                t *= log[g % n][0] * pow(log[g0 % n][0], -1, len(log))
        exps.append(t % o)
    return tuple(exps)


class DirichletCharacter:
    """A character mod m, chi(g_i) = zeta_{order_i}^{exponents_i}.

    Hashable and compared by (modulus, exponents); use `primitive_key` to
    compare characters living at different moduli.  The order, conductor,
    parity and primitive key depend only on (modulus, exponents), so they
    are worked out once, when the character is built; a lift copies them
    from its source.
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
        self._key = (f, exponents if f == modulus
                     else _block_map(ug, exponents, unit_group(f)))

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

    # -- evaluation ------------------------------------------------------

    def value_exponent(self, a: int):
        """t with chi(a) = zeta_order^t, or None when gcd(a, m) > 1."""
        m = self.modulus
        vec = discrete_log_table(m).get(a % m)
        if vec is None:
            return None
        n = self.order
        ug = unit_group(m)
        t = 0
        for e, ai, o in zip(self.exponents, vec, ug.orders):
            t += e * ai * n // o
        return t % n

    def parity(self) -> int:
        """chi(-1); -1 means odd."""
        return self._parity

    def is_odd(self) -> bool:
        return self._parity == -1

    # -- conductor and primitivization -----------------------------------

    def conductor(self) -> int:
        """Smallest f | m such that chi factors through (Z/fZ)*."""
        return self._conductor

    def primitive_key(self) -> tuple[int, tuple[int, ...]]:
        """Modulus-independent identity: (conductor, primitive exponents)."""
        return self._key

    def primitivize(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing chi: chi itself
        when chi is primitive, else a new character from the primitive key."""
        if self._conductor == self.modulus:
            return self
        return DirichletCharacter._reduced(*self._key)

    def at_modulus(self, f: int) -> "DirichletCharacter":
        """chi viewed at any modulus f that its conductor divides, mapped up
        from the primitive key; the result copies chi's order, conductor,
        parity and primitive key."""
        if f == self.modulus:
            return self
        cond, exps = self._key
        if f % cond:
            raise ValueError(f"conductor {cond} does not divide {f}")
        lift = DirichletCharacter.__new__(DirichletCharacter)
        lift.modulus = f
        lift.exponents = _block_map(unit_group(cond), exps, unit_group(f))
        lift.order = self.order
        lift._conductor = cond
        lift._parity = self._parity
        lift._key = self._key
        return lift


def principal_character(modulus: int = 1) -> DirichletCharacter:
    return DirichletCharacter(modulus, [0] * len(unit_group(modulus).generators))


def char_mul(chi: DirichletCharacter, psi: DirichletCharacter) -> DirichletCharacter:
    m = math.lcm(chi.modulus, psi.modulus)
    a, b = chi.at_modulus(m), psi.at_modulus(m)
    return DirichletCharacter(m, [x + y for x, y in zip(a.exponents, b.exponents)])


def char_pow(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    return DirichletCharacter(chi.modulus, [k * e for e in chi.exponents])


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


def encode(modulus: int, exponents) -> str:
    """The text "f=<m>:e=<e1,...,ek>" of the character with these
    exponents mod m; takes a primitive key as it is."""
    return f"f={modulus}:e={','.join(map(str, exponents))}"


def decode_character(text: str) -> DirichletCharacter:
    """Inverse of encode."""
    try:
        fpart, epart = text.split(":")
        if not (fpart.startswith("f=") and epart.startswith("e=")):
            raise ValueError("expected f=<m>:e=<e1,...>")
        modulus = int(fpart[2:])
        exps = [int(x) for x in epart[2:].split(",")] if epart[2:] else []
    except ValueError as exc:
        raise ValueError(f"bad character encoding {text!r}") from exc
    return DirichletCharacter(modulus, exps)

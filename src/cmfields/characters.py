"""Dirichlet characters encoded by exponents on the canonical generators
of (Z/mZ)*.

The text encoding "f=<m>:e=<e1,...,ek>" (defining modulus, exponents in
canonical generator order) is stable across runs and versions.
"""

from __future__ import annotations

import itertools
import math

from .arith import discrete_log_table, unit_group
from .cyclotomic import CycNumber
from .errors import LengthMismatch, NotClosed


class DirichletCharacter:
    """A character mod m, chi(g_i) = zeta_{order_i}^{exponents_i}.

    Hashable and compared by (modulus, exponents); use `primitive_key` to
    compare characters living at different moduli.  The conductor, the
    primitive character and the parity are worked out on first use and
    kept; a primitive character is its own primitive and stores none.
    """

    __slots__ = ("modulus", "exponents", "order", "_conductor", "_primitive",
                 "_parity")

    def __init__(self, modulus: int, exponents):
        ug = unit_group(modulus)
        exponents = tuple(exponents)
        if len(exponents) != len(ug.generators):
            raise LengthMismatch(
                f"modulus {modulus} has {len(ug.generators)} generators, "
                f"got {len(exponents)} exponents"
            )
        self._set(modulus, tuple(e % o for e, o in zip(exponents, ug.orders)),
                  ug.orders)

    @classmethod
    def _reduced(cls, modulus: int, exponents: tuple[int, ...],
                 orders: tuple[int, ...]) -> "DirichletCharacter":
        """A character from a tuple the program has already reduced mod
        `orders`, the orders of unit_group(modulus); nothing is checked."""
        chi = cls.__new__(cls)
        chi._set(modulus, exponents, orders)
        return chi

    def _set(self, modulus, exponents, orders) -> None:
        self.modulus = modulus
        self.exponents = exponents
        self.order = math.lcm(
            1, *(o // math.gcd(o, e) for e, o in zip(exponents, orders)))
        self._conductor = None
        self._primitive = None
        self._parity = None

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
        return f"f={self.modulus}:e={','.join(map(str, self.exponents))}"

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

    def __call__(self, a: int) -> CycNumber:
        """chi(a) as an exact element of Q(zeta_order); 0 off (Z/mZ)*."""
        t = self.value_exponent(a)
        if t is None:
            return CycNumber.from_rational(self.order, 0)
        return CycNumber.zeta(self.order, t)

    def parity(self) -> int:
        """chi(-1); -1 means odd.

        -1 is g^(o/2) for the generator g of an odd block and is the
        generator -1 (3 mod 4) of a 2-power block, so chi(-1) = (-1)^s with
        s the sum of the exponents on those generators."""
        if self._parity is None:
            ug = unit_group(self.modulus)
            s = sum(e for e, g, q in zip(self.exponents, ug.generators,
                                         ug.blocks) if q % 2 or g % 4 == 3)
            self._parity = -1 if s % 2 else 1
        return self._parity

    def is_odd(self) -> bool:
        return self.parity() == -1

    # -- conductor and primitivization -----------------------------------

    def conductor(self) -> int:
        """Smallest f | m such that chi factors through (Z/fZ)*.

        Read off the exponent vector one prime-power block of (Z/mZ)* at a
        time (Washington, Introduction to Cyclotomic Fields, Ch. 3).  Odd
        p^k: a component of order o > 1 has conductor p^(1 + v_p(o)).
        Powers of 2: a nonzero exponent on -1 (3 mod 4) needs 4, and an
        exponent of order 2^j >= 2 on 5 needs 2^(j + 2).
        """
        if self._conductor is None:
            ug = unit_group(self.modulus)
            f = 1
            for e, g, o, q in zip(self.exponents, ug.generators, ug.orders,
                                  ug.blocks):
                if e == 0:
                    continue
                order = o // math.gcd(o, e)
                if q % 2:
                    # o = (p - 1) p^(k-1), so gcd(o, q) = p^(k-1) and
                    # gcd(order, q) = p^v_p(order)
                    f = math.lcm(f, q // math.gcd(o, q) * math.gcd(order, q))
                elif g % q == q - 1:
                    f = math.lcm(f, 4)
                else:
                    f = math.lcm(f, 4 * order)
            self._conductor = f
        return self._conductor

    def primitivize(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing chi; the same
        object on every call, and chi itself when chi is primitive."""
        return self._primitive or self.at_modulus(
            self._conductor or self.conductor())

    def at_modulus(self, f: int) -> "DirichletCharacter":
        """chi viewed at any modulus f that its conductor divides.

        Each prime-power block maps on its own.  The exponent on a generator
        of order o at p^k goes to the matching generator of order o' at p^c
        (the generator itself on an odd block; -1 or 5 on a 2-power block),
        times o'/o, which is exact because the conductor divides f, and
        times d with g' = g^d mod p^min(k, c).  d = 1 unless the smallest
        primitive roots mod p and mod p^2 differ, as for p = 40487.

        The result keeps chi's conductor and primitive: at the conductor it
        is chi's primitive, built once and kept on chi, and above the
        conductor it stores that primitive.
        """
        if f == self.modulus:
            return self
        cond = self._conductor or self.conductor()
        if f % cond:
            raise ValueError(f"conductor {cond} does not divide {f}")
        prim = self._primitive or (self if cond == self.modulus else None)
        if f == cond and prim is not None:
            return prim
        src = unit_group(self.modulus)
        dst = unit_group(f)
        exps = []
        for g, o, q in zip(dst.generators, dst.orders, dst.blocks):
            t = 0
            for e, g0, o0, q0 in zip(self.exponents, src.generators,
                                     src.orders, src.blocks):
                n = math.gcd(q, q0)
                if e == 0 or n == 1 or (q % 2 == 0 and g % 4 != g0 % 4):
                    continue
                t = e * o // o0
                if g % n != g0 % n:
                    log = discrete_log_table(n)
                    t *= log[g % n][0] * pow(log[g0 % n][0], -1, len(log))
            exps.append(t % o)
        lift = DirichletCharacter._reduced(f, tuple(exps), dst.orders)
        lift._conductor = cond
        if f == cond:
            self._primitive = lift
        else:
            lift._primitive = prim
        return lift

    def primitive_key(self) -> tuple[int, tuple[int, ...]]:
        """Modulus-independent identity: (conductor, primitive exponents)."""
        chi = self.primitivize()
        return (chi.modulus, chi.exponents)


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
    return [DirichletCharacter._reduced(modulus, e[::-1], orders)
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
                missing = DirichletCharacter(*conj).encode()
                raise NotClosed(f"{missing} missing from the set")
            seen.add(conj)
            orbit.append(index[conj])
        orbits.append(orbit)
    return orbits


def decode_character(text: str) -> DirichletCharacter:
    """Inverse of DirichletCharacter.encode."""
    try:
        fpart, epart = text.split(":")
        if not (fpart.startswith("f=") and epart.startswith("e=")):
            raise ValueError("expected f=<m>:e=<e1,...>")
        modulus = int(fpart[2:])
        exps = [int(x) for x in epart[2:].split(",")] if epart[2:] else []
    except ValueError as exc:
        raise ValueError(f"bad character encoding {text!r}") from exc
    return DirichletCharacter(modulus, exps)

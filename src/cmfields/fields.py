"""Abelian number fields as finite groups of Dirichlet characters, with
the CM-specific attributes (maximal real subfield, roots of unity,
conductor, prime-power decomposability, odd Galois orbits) the
divisibility checks consume.

A field is read through its characters.  Q(zeta_m) for m >= 3 sets its
conductor m, degree phi(m) and w when it is built and enumerates its
characters only when something reads them; h- and the unit index answer
it in closed form without them.  The compositum of two fields of coprime
conductors is their direct product: its characters, their primitive keys
and w are composed from the factors', with no closure.  The prime-power
decomposition hands back the field's own characters, grouped by block,
and builds nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import (euler_phi, factorize, kronecker,
                    require_fundamental_discriminant, subgroup, unit_group)
from .characters import (DirichletCharacter, all_characters, galois_orbits,
                         orbit_rep, principal_character)
from .errors import (
    DegreeBoundExceeded,
    InternalInconsistency,
    NotCMField,
    PreconditionViolated,
)

DEFAULT_MAX_DEGREE = 256


def normalize_cyclotomic_modulus(m: int) -> int:
    """Q(zeta_2k) = Q(zeta_k) for odd k: canonical moduli are != 2 mod 4."""
    return m // 2 if m % 4 == 2 else m


class AbelianField:
    """A finite group of Dirichlet characters at a common modulus.

    Immutable; the constructor assumes the set is multiplicatively closed
    (use `field_from_generators` to close an arbitrary set).  The odd
    characters, w and the set of primitive keys behind ==, hash and
    containment are worked out once, on first use.  `cyclotomic_field`
    builds Q(zeta_m), m >= 3, with `_zeta` set: conductor, degree and w
    are set from m, and `chars` enumerates the character group only when
    it is read.  `hminus` and `unitindex` read `_zeta` for their closed
    forms; here only `is_cm` and w use what is set from m, and every other
    method reads the characters.  `compositum` of coprime conductors
    builds the direct product with its characters, primitive keys and w
    preset.
    """

    __slots__ = ("_chars", "modulus", "conductor", "degree", "_prim_keys",
                 "_odd", "_w", "_zeta")

    def __init__(self, chars):
        chars = tuple(sorted(set(chars), key=lambda c: c.exponents))
        if not chars:
            raise ValueError("empty character set")
        modulus = chars[0].modulus
        if any(c.modulus != modulus for c in chars):
            raise PreconditionViolated(
                "characters of a field must share one modulus, got "
                f"{sorted({c.modulus for c in chars})}")
        self._chars = chars
        self.modulus = modulus
        self.conductor = math.lcm(1, *(c.conductor() for c in chars))
        self.degree = len(chars)
        self._prim_keys = self._odd = self._w = None
        self._zeta = False

    @classmethod
    def _cyclotomic(cls, m: int) -> "AbelianField":
        """Q(zeta_m) for m >= 3, m != 2 mod 4, with no character built:
        w is m for even m and 2m for odd m."""
        K = cls.__new__(cls)
        K._chars = K._prim_keys = K._odd = None
        K.modulus = K.conductor = m
        K.degree = euler_phi(m)
        K._w = m if m % 2 == 0 else 2 * m
        K._zeta = True
        return K

    @classmethod
    def _direct_product(cls, K1: "AbelianField", K2: "AbelianField",
                        max_degree: int) -> "AbelianField":
        """K1 K2 for coprime conductors f1, f2, at modulus f1 f2, with no
        closure.

        Each factor's characters are taken at its conductor.  The blocks
        of (Z/f1 f2 Z)* are those of f1 and of f2, in increasing prime
        order, and each generator is the CRT lift of the same local
        generator as at f1 or f2.  So chi1 chi2 has chi1's exponents on
        the blocks of f1 and chi2's on those of f2, its order is the lcm
        of theirs, its conductor their product and its parity the product
        of theirs; its primitive key merges the two keys the same way.  A
        character of K1 K2 of conductor p^j has a trivial factor on the
        side p does not divide, so Q(zeta_(p^j)) lies in K1 K2 exactly
        when it lies in one factor: w = lcm(w1, w2).  Raises
        InternalInconsistency unless the d1 d2 products have distinct
        primitive keys."""
        degree = K1.degree * K2.degree
        if degree > max_degree:
            raise DegreeBoundExceeded(f"degree exceeds bound {max_degree}")
        f1, f2 = K1.conductor, K2.conductor
        m = f1 * f2
        left = [(c.at_modulus(f1), c.primitive_key()) for c in K1.chars]
        right = [(c.at_modulus(f2), c.primitive_key()) for c in K2.chars]
        chars = []
        for a, (fa, ka) in left:
            for b, (fb, kb) in right:
                chi = DirichletCharacter.__new__(DirichletCharacter)
                chi.modulus = m
                chi.exponents = _merge(m, f1, a.exponents + b.exponents)
                chi.order = math.lcm(a.order, b.order)
                chi._conductor = fa * fb
                chi._parity = a._parity * b._parity
                chi._key = (fa * fb, _merge(fa * fb, fa, ka + kb))
                chars.append(chi)
        K = cls.__new__(cls)
        K._chars = tuple(sorted(chars, key=lambda c: c.exponents))
        K._prim_keys = frozenset(c._key for c in chars)
        if len(K._prim_keys) != degree:
            raise InternalInconsistency(
                f"direct product of conductors {f1} and {f2} has "
                f"{len(K._prim_keys)} distinct characters, not {degree}")
        K.modulus = K.conductor = m
        K.degree = degree
        K._odd = None
        K._w = math.lcm(K1.roots_of_unity_order(), K2.roots_of_unity_order())
        K._zeta = False
        return K

    @property
    def chars(self) -> tuple[DirichletCharacter, ...]:
        """The characters, in increasing exponent order."""
        if self._chars is None:
            self._chars = tuple(sorted(all_characters(self.modulus),
                                       key=lambda c: c.exponents))
        return self._chars

    def _keys(self) -> frozenset:
        if self._prim_keys is None:
            self._prim_keys = frozenset(c.primitive_key() for c in self.chars)
        return self._prim_keys

    def __eq__(self, other):
        return isinstance(other, AbelianField) and self._keys() == other._keys()

    def __hash__(self):
        return hash(self._keys())

    def __repr__(self):
        return f"AbelianField(conductor={self.conductor}, degree={self.degree})"

    def contains_character(self, chi: DirichletCharacter) -> bool:
        return chi.primitive_key() in self._keys()

    def is_subfield_of(self, other: "AbelianField") -> bool:
        return self._keys() <= other._keys()

    # -- CM structure ----------------------------------------------------

    def _odd_chars(self) -> tuple[DirichletCharacter, ...]:
        if self._odd is None:
            self._odd = tuple(c for c in self.chars if c.is_odd())
        return self._odd

    def odd_characters(self) -> list[DirichletCharacter]:
        return list(self._odd_chars())

    def is_cm(self) -> bool:
        return self._zeta or bool(self._odd_chars())

    def odd_orbit_representatives(self) -> list[DirichletCharacter]:
        """One member per Galois orbit of the odd characters, with the
        orbit's least primitive key, in the order of `galois_orbits`."""
        return [orbit_rep(orbit) for orbit in galois_orbits(self._odd_chars())]

    def maximal_real_subfield(self) -> "AbelianField":
        return AbelianField([c for c in self.chars if not c.is_odd()])

    def roots_of_unity_order(self) -> int:
        """w, the order of the group of roots of unity in the field.

        Q(zeta_n) is the compositum of its prime-power layers Q(zeta_q), so
        w is the product over p | 2 * conductor of the largest p^j with
        Q(zeta_(p^j)) inside the field.  The characters of the field with
        conductor dividing q form a subgroup of the phi(q) characters mod q,
        so Q(zeta_q) lies in the field exactly when there are phi(q) of
        them.  Q(zeta_2) = Q: the 2-part is >= 2.
        """
        if self._w is None:
            conductors = [c.conductor() for c in self.chars]
            w = 1
            for p, e in factorize(2 * self.conductor):
                q = 1
                while q < p**e and (sum(q * p % f == 0 for f in conductors)
                                    == euler_phi(q * p)):
                    q *= p
                w *= q
            self._w = w
        return self._w

    # -- lattice ops -----------------------------------------------------

    def compositum(
        self, other: "AbelianField", max_degree: int = DEFAULT_MAX_DEGREE
    ) -> "AbelianField":
        """The smallest field holding both, at the lcm of the conductors.

        With coprime conductors it is the direct product of the two fields
        (`_direct_product`), with no closure.  Otherwise the non-principal
        characters of both are closed by `field_from_generators`; the
        principal ones add nothing and are not passed on.  Either way a
        degree past max_degree raises DegreeBoundExceeded("degree exceeds
        bound B")."""
        if math.gcd(self.conductor, other.conductor) == 1:
            return AbelianField._direct_product(self, other, max_degree)
        gens = [c for c in self.chars + other.chars if not c.is_principal()]
        return field_from_generators(gens or self.chars[:1],
                                     max_degree=max_degree)

    def prime_power_decomposition(self):
        """The components of prime-power conductor, each as the field's
        own non-principal characters that are trivial off one block q of
        the modulus, in increasing prime order; None when the field is
        non-decomposable.

        These subgroups are independent and lie in the field, so their
        product is the field exactly when their orders, len + 1 with the
        principal character, multiply to the degree.  A component is CM
        exactly when one of its characters is odd."""
        blocks = unit_group(self.modulus).blocks
        parts = {q: [] for q in blocks}
        for c in self.chars:
            reached = {b for e, b in zip(c.exponents, blocks) if e}
            if len(reached) == 1:
                parts[reached.pop()].append(c)
        comps = [comp for comp in parts.values() if comp]
        if math.prod(len(comp) + 1 for comp in comps) != self.degree:
            return None
        return comps

    def two_primary_subfield(self) -> "AbelianField":
        """Field of the 2-Sylow subgroup of the character group; has odd
        index in the field and stays CM whenever the field is.  The field
        itself when its degree is a power of 2."""
        if self.degree & (self.degree - 1) == 0:
            return self
        return AbelianField(c for c in self.chars if (c.order & (c.order - 1)) == 0)

    def quadratic_subfield_discriminants(self) -> list[int]:
        """Fundamental discriminants of the quadratic subfields."""
        out = []
        for c in self.chars:
            if c.order == 2:
                f = c.conductor()
                out.append(f if c.parity() == 1 else -f)
        return sorted(out, key=abs)


@lru_cache(maxsize=None)
def _merge_order(m: int, f: int) -> tuple[int, ...]:
    """For m = f g with gcd(f, g) = 1: the index into e + e' of the
    exponent on each generator of (Z/mZ)*, where e is on the generators of
    (Z/fZ)* and e' on those of (Z/gZ)*.  Both lists, like the one at m,
    run over their blocks in increasing prime order."""
    blocks = unit_group(m).blocks
    i, j = 0, sum(f % q == 0 for q in blocks)
    order = []
    for q in blocks:
        if f % q == 0:
            order.append(i)
            i += 1
        else:
            order.append(j)
            j += 1
    return tuple(order)


def _merge(m: int, f: int, exps: tuple[int, ...]) -> tuple[int, ...]:
    """The exponents at m of the product of a character at f and one at
    m / f (coprime to f), from their exponent tuples concatenated."""
    return tuple(map(exps.__getitem__, _merge_order(m, f)))


def field_from_generators(
    gens, max_degree: int = DEFAULT_MAX_DEGREE
) -> AbelianField:
    """Closure of a list of characters under the group law.  The lifted
    generators are members as they are, with the invariants they copied."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    m = math.lcm(1, *(g.conductor() for g in gens))  # never 2 mod 4
    orders = unit_group(m).orders
    lifted = {}
    for g in gens:
        chi = g.at_modulus(m)
        lifted.setdefault(chi.exponents, chi)
    group = subgroup(orders, lifted, max_degree)
    return AbelianField(lifted.get(e) or DirichletCharacter._reduced(m, e)
                        for e in group)


def cyclotomic_field(m: int, max_degree: int = DEFAULT_MAX_DEGREE) -> AbelianField:
    """Q(zeta_m), the full character group mod m (m normalized != 2 mod 4);
    from m = 3 on, its characters are built only when read."""
    m = normalize_cyclotomic_modulus(m)
    # phi(m) >= sqrt(m / 2), so a level past 2 B^2 is rejected unfactored
    if m > 2 * max_degree**2 or euler_phi(m) > max_degree:
        raise DegreeBoundExceeded(f"phi({m}) exceeds bound {max_degree}")
    if m < 3:
        return AbelianField(all_characters(m))
    return AbelianField._cyclotomic(m)


@lru_cache(maxsize=None)
def quadratic_field(d: int) -> AbelianField:
    """Q(sqrt(d)) via the order-2 Kronecker character (d/.) of conductor |d|.

    Memoized for the life of the process: a field is immutable, so every
    caller shares one object and its cached invariants."""
    require_fundamental_discriminant(d)
    m = abs(d)
    ug = unit_group(m)
    exps = []
    for g, o in zip(ug.generators, ug.orders):
        s = kronecker(d, g)
        if s == 0 or (s == -1 and o % 2):
            raise InternalInconsistency(
                f"({d}/{g}) = {s} on a generator of order {o}")
        exps.append(0 if s == 1 else o // 2)
    chi = DirichletCharacter(m, exps)
    if chi.conductor() != m or chi.parity() != (1 if d > 0 else -1):
        raise InternalInconsistency(
            f"Kronecker character of {d} has conductor {chi.conductor()} "
            f"and parity {chi.parity()}")
    return AbelianField([principal_character(m), chi])


def require_cm(field: AbelianField) -> None:
    if not field.is_cm():
        raise NotCMField(f"{field!r} is not CM")

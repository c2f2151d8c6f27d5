"""Abelian number fields as finite groups of Dirichlet characters, with
the CM-specific attributes (maximal real subfield, roots of unity,
conductor, prime-power decomposability, odd Galois orbits) the
divisibility checks consume.

A field is read through its characters.  Q(zeta_m) for m >= 3 sets its
conductor m, degree phi(m) and w when it is built and enumerates its
characters only when something reads them; h- and the unit index answer
it in closed form without them.  The compositum of two fields of coprime
conductors is their direct product, whose character group is the product
of the factors'.  It keeps its two factors and is read through them: w,
the CM test, the odd Galois orbits, the prime-power decomposition, the
2-primary subfield, the exponent and the quadratic subfields come from
the factors' own answers, and its characters are built, with no closure,
only when something reads them.  The prime-power decomposition hands
back the field's own characters, grouped by block, and builds no field.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import (euler_phi, factorize, kronecker,
                    require_fundamental_discriminant, subgroup, unit_group)
from .characters import (DirichletCharacter, _least_units, all_characters,
                         galois_orbits, orbit_rep, principal_character)
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
    builds the direct product with `_factors` set: modulus = conductor =
    f1 f2, degree d1 d2 and w = lcm(w1, w2).  `chars`, the primitive keys
    (and so ==, hash and containment), `odd_characters` and
    `maximal_real_subfield` build its characters on first read
    (`_build_product`).  `is_cm`, `odd_orbit_representatives`,
    `prime_power_decomposition`, `two_primary_subfield`, `exponent` and
    `quadratic_subfield_discriminants`, all that h- and the unit index
    read, answer from the factors and build none.  Each field keeps its
    Galois orbits at its conductor (`_orbit_table`), its decomposition and
    its real and 2-primary subfields once worked out, for the products it
    is a factor of.
    """

    __slots__ = ("_chars", "modulus", "conductor", "degree", "_prim_keys",
                 "_odd", "_w", "_zeta", "_factors", "_orbits", "_parts",
                 "_real", "_two")

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
        self._factors = self._orbits = self._parts = None
        self._real = self._two = None
        self._zeta = False

    @classmethod
    def _cyclotomic(cls, m: int) -> "AbelianField":
        """Q(zeta_m) for m >= 3, m != 2 mod 4, with no character built:
        w is m for even m and 2m for odd m."""
        K = cls.__new__(cls)
        K._chars = K._prim_keys = K._odd = None
        K._factors = K._orbits = K._parts = K._real = K._two = None
        K.modulus = K.conductor = m
        K.degree = euler_phi(m)
        K._w = m if m % 2 == 0 else 2 * m
        K._zeta = True
        return K

    @classmethod
    def _direct_product(cls, K1: "AbelianField", K2: "AbelianField",
                        max_degree: int) -> "AbelianField":
        """K1 K2 for coprime conductors f1, f2, at modulus f1 f2, with no
        closure and no character built.

        A character of Q(zeta_(p^j)) inside K1 K2 has a trivial factor on
        the side p does not divide, so Q(zeta_(p^j)) lies in K1 K2 exactly
        when it lies in one factor: w = lcm(w1, w2).  Everything else is
        read off the two factors, kept in `_factors`; `_build_product`
        builds the characters when something reads them."""
        degree = K1.degree * K2.degree
        if degree > max_degree:
            raise DegreeBoundExceeded(f"degree exceeds bound {max_degree}")
        K = cls.__new__(cls)
        K._chars = K._prim_keys = K._odd = K._orbits = K._parts = None
        K._real = K._two = None
        K.modulus = K.conductor = K1.conductor * K2.conductor
        K.degree = degree
        K._w = math.lcm(K1.roots_of_unity_order(), K2.roots_of_unity_order())
        K._zeta = False
        K._factors = (K1, K2)
        return K

    def _build_product(self) -> None:
        """The characters and primitive keys of a direct product K1 K2.

        Each factor's characters are taken at its conductor.  The blocks
        of (Z/f1 f2 Z)* are those of f1 and of f2, in increasing prime
        order, and each generator is the CRT lift of the same local
        generator as at f1 or f2.  So chi1 chi2 has chi1's exponents on
        the blocks of f1 and chi2's on those of f2, its order is the lcm
        of theirs, its conductor their product and its parity the product
        of theirs; its primitive key merges the two keys the same way.
        Raises InternalInconsistency unless the d1 d2 products have
        distinct primitive keys."""
        K1, K2 = self._factors
        f1, f2 = K1.conductor, K2.conductor
        m = self.modulus
        left = [(c.at_modulus(f1), c.primitive_key()) for c in K1.chars]
        right = [(c.at_modulus(f2), c.primitive_key()) for c in K2.chars]
        chars = []
        for a, (fa, ka) in left:
            for b, (fb, kb) in right:
                chars.append(_preset(
                    m, _merge(m, f1, a.exponents + b.exponents),
                    math.lcm(a.order, b.order), a._parity * b._parity,
                    (fa * fb, _merge(fa * fb, fa, ka + kb))))
        keys = frozenset(c._key for c in chars)
        if len(keys) != self.degree:
            raise InternalInconsistency(
                f"direct product of conductors {f1} and {f2} has "
                f"{len(keys)} distinct characters, not {self.degree}")
        self._chars = tuple(sorted(chars, key=lambda c: c.exponents))
        self._prim_keys = keys

    @property
    def chars(self) -> tuple[DirichletCharacter, ...]:
        """The characters, in increasing exponent order."""
        if self._chars is None:
            if self._factors:
                self._build_product()
            else:
                self._chars = tuple(sorted(all_characters(self.modulus),
                                           key=lambda c: c.exponents))
        return self._chars

    def _keys(self) -> frozenset:
        if self._prim_keys is None:
            if self._factors:
                self._build_product()
            else:
                self._prim_keys = frozenset(c.primitive_key()
                                            for c in self.chars)
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
        if self._factors:
            K1, K2 = self._factors
            return K1.is_cm() or K2.is_cm()
        return self._zeta or bool(self._odd_chars())

    def odd_orbit_representatives(self) -> list[DirichletCharacter]:
        """One member per Galois orbit of the odd characters, with the
        orbit's least primitive key, in the order of `galois_orbits`: by
        each orbit's least exponent tuple at the modulus."""
        if self._factors:
            return self._product_odd_reps()
        return [orbit_rep(orbit) for orbit in galois_orbits(self._odd_chars())]

    def _orbit_table(self) -> tuple[int, int, tuple]:
        """(odd, even, orbits): the numbers of odd and even characters, and
        for each Galois orbit of the characters taken at the conductor its
        least member by exponents and its representative, in the order of
        `galois_orbits`.  Worked out once; a direct product reads its
        factors' tables."""
        if self._orbits is None:
            f = self.conductor
            chars = [c.at_modulus(f) for c in self.chars]
            odd = sum(c.is_odd() for c in chars)
            self._orbits = (odd, len(chars) - odd,
                            tuple((orbit[0], orbit_rep(orbit))
                                  for orbit in galois_orbits(chars)))
        return self._orbits

    def _product_odd_reps(self) -> list[DirichletCharacter]:
        """The odd orbit representatives of a direct product K1 K2, from
        the orbits of its factors.

        chi1 chi2 is odd when the two have opposite parity.  Galois acts
        on the pairs (chi1^a, chi2^a); the a that fix chi1, of order n1,
        are a = 1 mod n1, whose image in (Z/n2)* is {a = 1 mod g} for
        g = gcd(n1, n2).  So the orbits over a pair of factor orbits are
        those of chi1 chi2^k, k over lifts to (Z/n2)* of (Z/g)*: phi(g)
        of them, each of phi(lcm(n1, n2)) characters.  With one side
        principal the representative is the other factor's.  Raises
        InternalInconsistency unless the orbits cover the
        odd1 even2 + even1 odd2 odd characters."""
        K1, K2 = self._factors
        f1 = K1.conductor
        m = self.modulus
        odd1, even1, orbits1 = K1._orbit_table()
        odd2, even2, orbits2 = K2._orbit_table()
        found = []  # (least exponents at m, representative)
        for x1, r1 in orbits1:
            for x2, r2 in orbits2:
                if x1._parity == x2._parity:
                    continue
                if x1.order == 1 or x2.order == 1:
                    # x1 x2 is the least member of its orbit at m
                    found.append((_merge(m, f1, x1.exponents + x2.exponents),
                                  r1 if x2.order == 1 else r2))
                else:
                    found += _composed_orbits(m, f1, x1, x2)
        covered = sum(euler_phi(rep.order) for _, rep in found)
        if covered != odd1 * even2 + even1 * odd2:
            raise InternalInconsistency(
                f"odd orbits of the product of conductors {f1} and "
                f"{K2.conductor} cover {covered} characters, not "
                f"{odd1 * even2 + even1 * odd2}")
        found.sort(key=lambda pair: pair[0])
        return [rep for _, rep in found]

    def maximal_real_subfield(self) -> "AbelianField":
        if self._real is None:
            self._real = AbelianField([c for c in self.chars
                                       if not c.is_odd()])
        return self._real

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
        (`_direct_product`): nothing is closed, and its characters are
        built only when read.  Otherwise the non-principal
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
        the modulus, in increasing prime order and each in increasing
        exponent order; None when the field is non-decomposable.

        These subgroups are independent and lie in the field, so their
        product is the field exactly when their orders, len + 1 with the
        principal character, multiply to the degree.  A component is CM
        exactly when one of its characters is odd."""
        comps = self._decomposition()
        return None if comps is None else [list(comp) for _, comp in comps]

    def _decomposition(self):
        """The components as (p, characters) pairs, or None; worked out
        once.  Each block of a direct product's modulus is a block of one
        factor's conductor, so its components are its factors', lifted to
        the modulus and merged by prime, and there are none when either
        factor has none."""
        if self._parts is None:
            # a one-tuple: the answer itself may be None
            self._parts = (self._product_components() if self._factors
                           else self._components(),)
        return self._parts[0]

    def _components(self):
        blocks = unit_group(self.modulus).blocks
        parts = {q: [] for q in blocks}
        for c in self.chars:
            reached = {b for e, b in zip(c.exponents, blocks) if e}
            if len(reached) == 1:
                parts[reached.pop()].append(c)
        comps = [(factorize(q)[0][0], tuple(comp))
                 for q, comp in parts.items() if comp]
        if math.prod(len(comp) + 1 for _, comp in comps) != self.degree:
            return None
        return tuple(comps)

    def _product_components(self):
        K1, K2 = self._factors
        parts = [K._decomposition() for K in self._factors]
        if None in parts:
            return None
        f1, f2 = K1.conductor, K2.conductor
        m = self.modulus
        zeros1 = (0,) * len(unit_group(f1).orders)
        zeros2 = (0,) * len(unit_group(f2).orders)
        comps = []
        for p, comp in parts[0]:
            comps.append((p, [_preset(m, _merge(m, f1, a.exponents + zeros2),
                                      a.order, a._parity, a.primitive_key())
                              for a in (c.at_modulus(f1) for c in comp)]))
        for p, comp in parts[1]:
            comps.append((p, [_preset(m, _merge(m, f1, zeros1 + b.exponents),
                                      b.order, b._parity, b.primitive_key())
                              for b in (c.at_modulus(f2) for c in comp)]))
        return tuple((p, tuple(sorted(comp, key=lambda c: c.exponents)))
                     for p, comp in sorted(comps, key=lambda pc: pc[0]))

    def two_primary_subfield(self) -> "AbelianField":
        """Field of the 2-Sylow subgroup of the character group; has odd
        index in the field and stays CM whenever the field is.  The field
        itself when its degree is a power of 2; for a direct product, the
        product of its factors' 2-primary subfields."""
        if self.degree & (self.degree - 1) == 0:
            return self
        if self._two is None:
            if self._factors:
                K1, K2 = self._factors
                self._two = AbelianField._direct_product(
                    K1.two_primary_subfield(), K2.two_primary_subfield(),
                    self.degree)
            else:
                self._two = AbelianField(c for c in self.chars
                                         if (c.order & (c.order - 1)) == 0)
        return self._two

    def exponent(self) -> int:
        """The exponent of the Galois group, the lcm of the characters'
        orders; for a direct product, read off its factors' orbit
        tables."""
        if self._factors:
            return math.lcm(*(x.order for K in self._factors
                              for x, _ in K._orbit_table()[2]))
        return math.lcm(1, *(c.order for c in self.chars))

    def quadratic_subfield_discriminants(self) -> list[int]:
        """Fundamental discriminants of the quadratic subfields, by |d|,
        and of d and -d (8 | d) first the one whose character is even on
        the 2-block.  A character of order 2 and conductor f gives f or -f
        by its parity.  A direct product's are d, d' and d d' over its
        factors' discriminants d and d' (their orbits of order 2, read off
        their orbit tables): coprime fundamental discriminants multiply to
        one."""
        if self._factors:
            left, right = ([1] + [x._conductor * x._parity
                                  for x, _ in K._orbit_table()[2] if x.order == 2]
                           for K in self._factors)
            out = [a * b for a in left for b in right][1:]
        else:
            out = [c._conductor * c._parity for c in self.chars if c.order == 2]
        return sorted(out, key=_discriminant_order)


def _discriminant_order(d: int) -> tuple[int, bool]:
    """Sort key for quadratic discriminants: |d|, then, of d and -d with
    8 | d, the one whose 2-part is 8, as its character has exponent 0 on
    -1, the first generator of the modulus."""
    return abs(d), d // 8 % 4 != 1


def _preset(m: int, exponents: tuple[int, ...], order: int, parity: int,
            key: tuple[int, tuple[int, ...]]) -> DirichletCharacter:
    """The character with these exponents mod m, with its order, parity
    and primitive key (and so its conductor) preset."""
    chi = DirichletCharacter.__new__(DirichletCharacter)
    chi.modulus = m
    chi.exponents = exponents
    chi.order = order
    chi._conductor = key[0]
    chi._parity = parity
    chi._key = key
    return chi


@lru_cache(maxsize=None)
def _powers(f: int, exps: tuple[int, ...], n: int, c: int,
            key: tuple[int, ...]) -> tuple:
    """(exponents at f, primitive key exponents at c) of chi^a for
    a = 0 .. n - 1, where chi has order n, these exponents at f and
    primitive key (c, key).  Memoized per process: a factor's orbits recur
    in every product it is a factor of."""
    o, p = unit_group(f).orders, unit_group(c).orders
    return tuple((tuple(a * e % q for e, q in zip(exps, o)),
                  tuple(a * e % q for e, q in zip(key, p)))
                 for a in range(n))


def _composed_orbits(m: int, f1: int, x1: DirichletCharacter,
                     x2: DirichletCharacter):
    """(least exponents at m, representative) for each Galois orbit of
    chi1 chi2^k, k over the least lifts to (Z/n2)* of (Z/g)*, where x1 and
    x2 are non-principal of orders n1 and n2 and opposite parity, at the
    coprime moduli f1 and m / f1, and g = gcd(n1, n2).  The members are
    (x1 x2^k)^a for the units a mod n = lcm(n1, n2); the representative
    is the one with the least primitive key, at m."""
    n1, n2 = x1.order, x2.order
    n = math.lcm(n1, n2)
    c1, c2 = x1.primitive_key()[0], x2.primitive_key()[0]
    c = c1 * c2
    pow1 = _powers(f1, x1.exponents, n1, *x1.primitive_key())
    pow2 = _powers(m // f1, x2.exponents, n2, *x2.primitive_key())
    at_m, at_c = _merge_order(m, f1), _merge_order(c, c1)
    units = _least_units(n, n)
    for k in _least_units(n2, math.gcd(n1, n2)):
        members = [(e1 + e2, k1 + k2) for (e1, k1), (e2, k2) in
                   ((pow1[a % n1], pow2[a * k % n2]) for a in units)]
        exps, key = min(members, key=lambda member:
                        [member[1][i] for i in at_c])
        yield (tuple(min([e[i] for i in at_m] for e, _ in members)),
               _preset(m, tuple(exps[i] for i in at_m), n, -1,
                       (c, tuple(key[i] for i in at_c))))


@lru_cache(maxsize=None)
def _merge_order(m: int, f: int) -> tuple[int, ...]:
    """For m = f g with gcd(f, g) = 1: the index into e + e' of the
    exponent on each generator of (Z/mZ)*, where e is on the generators of
    (Z/fZ)* and e' on those of (Z/gZ)*.  Both lists, like the one at m,
    run over their blocks in increasing prime order, so the one at m is
    the two merged by prime; (Z/mZ)* itself is not built."""
    tagged = []
    for n in (f, m // f):
        prime = {p**e: p for p, e in factorize(n)}
        tagged += [(prime[q], len(tagged) + i)
                   for i, q in enumerate(unit_group(n).blocks)]
    return tuple(i for _, i in sorted(tagged))


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

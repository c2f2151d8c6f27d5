"""Exact arithmetic in quadratic fields via binary quadratic forms and
ideal normal forms: class numbers, principality, prime splitting,
fundamental-unit norms, ideal square roots of rational integers.

Only fundamental discriminants are accepted; callers normalize.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import isqrt

from .arith import _xgcd, factorize, is_fundamental_discriminant, kronecker
from .errors import (
    InternalInconsistency,
    NotFundamentalDiscriminant,
    PreconditionViolated,
)


def _require_fundamental(D: int) -> None:
    if not is_fundamental_discriminant(D):
        raise NotFundamentalDiscriminant(f"{D} is not a fundamental discriminant")


# --------------------------------------------------------------------------
# forms


class QuadForm(namedtuple("QuadForm", "a b c")):
    """Binary quadratic form a x^2 + b xy + c y^2."""

    __slots__ = ()

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def principal_form(D: int) -> QuadForm:
    b = D % 2
    return QuadForm(1, b, (b * b - D) // 4)


def _lt_sqrt(x: int, D: int) -> bool:
    """x < sqrt(D), exactly (D > 0, not a square)."""
    return x < 0 or x * x < D


def is_reduced(f: QuadForm) -> bool:
    D = f.discriminant
    a, b, c = f.a, f.b, f.c
    if D < 0:
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True
    return (
        0 < b
        and _lt_sqrt(b, D)
        and _lt_sqrt(2 * abs(a) - b, D)
        and not _lt_sqrt(2 * abs(a) + b, D)
    )


def reduce_form(f: QuadForm) -> QuadForm:
    if f.discriminant < 0:
        return _reduce_definite(f)
    g = _normalize_indefinite(f)
    while not is_reduced(g):
        g = _rho(g)
    return g


def _reduce_definite(f: QuadForm) -> QuadForm:
    a, b, c = f.a, f.b, f.c
    if a < 0:
        raise ValueError("positive definite forms only")
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if abs(b) > a or (b == -a):
            # translate b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = (b2 * b2 - f.discriminant) // (4 * a)
            b = b2
            continue
        if a == c and b < 0:
            b = -b
            continue
        return QuadForm(a, b, c)


def _normalize_indefinite(f: QuadForm) -> QuadForm:
    D = f.discriminant
    a, b, c = f.a, f.b, f.c
    s = isqrt(D)
    aa = abs(a)
    if aa > s:
        # b into (-|a|, |a|]
        b2 = b % (2 * aa)
        if b2 > aa:
            b2 -= 2 * aa
    else:
        # b into (s - 2|a|, s]
        b2 = b % (2 * aa)
        b2 += 2 * aa * ((s - b2) // (2 * aa))
    c2 = (b2 * b2 - D) // (4 * a)
    return QuadForm(a, b2, c2)


def _rho(f: QuadForm) -> QuadForm:
    return _normalize_indefinite(QuadForm(f.c, -f.b, f.a))


def form_cycle(f: QuadForm) -> list[QuadForm]:
    """The cycle of reduced forms through reduce_form(f) (D > 0)."""
    return list(_cycle(f))


def _cycle(f: QuadForm):
    """Yield the forms of form_cycle(f) one at a time."""
    D = f.discriminant
    start = g = reduce_form(f)
    # proven bound on the period, with slack
    for _ in range(10 * (isqrt(D) + 2) * (D.bit_length() + 2)):
        yield g
        g = _rho(g)
        if g == start:
            return
    raise InternalInconsistency(f"cycle bound exceeded for D={D}")


def reduced_forms(D: int) -> list[QuadForm]:
    """All reduced forms of fundamental discriminant D < 0."""
    _require_fundamental(D)
    if D >= 0:
        raise PreconditionViolated(f"reduced_forms needs D < 0, got {D}")
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            f = QuadForm(a, b, c)
            if is_reduced(f):
                out.append(f)
    return out


def reduced_indefinite_forms(D: int) -> list[QuadForm]:
    _require_fundamental(D)
    if D <= 0:
        raise PreconditionViolated(f"indefinite forms need D > 0, got {D}")
    s = isqrt(D)
    out = []
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        for aa in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if aa == 0 or (b * b - D) % (4 * aa):
                continue
            for a in (aa, -aa):
                c = (b * b - D) // (4 * a)
                f = QuadForm(a, b, c)
                if is_reduced(f):
                    out.append(f)
    return out


@lru_cache(maxsize=None)
def class_number(D: int, narrow: bool = False) -> int:
    """h(D) by reduced-form enumeration (wide by default for D > 0).

    Memoized for the life of the process on (D, narrow)."""
    _require_fundamental(D)
    if D < 0:
        return len(reduced_forms(D))
    forms = set(reduced_indefinite_forms(D))
    cycles = 0
    while forms:
        f = next(iter(forms))
        forms -= set(form_cycle(f))
        cycles += 1
    if narrow:
        return cycles
    return cycles // 2 if fundamental_unit_norm(D) == 1 else cycles


# --------------------------------------------------------------------------
# continued fractions / fundamental unit


def surd_continued_fraction(P: int, Q: int, d: int) -> tuple[list[int], int]:
    """Continued fraction of (P + sqrt(d))/Q.

    Returns (terms, period): the partial quotients up to the first repeated
    state (P, Q), and the length of the period they end with."""
    s = isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    terms = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(terms)
        a = (P + s) // Q if Q > 0 else (P + s - Q + 1) // Q
        terms.append(a)
        P2 = a * Q - P
        Q2 = (d - P2 * P2) // Q
        P, Q = P2, Q2
    period = len(terms) - seen[(P, Q)]
    return terms, period


def fundamental_unit_norm(D: int) -> int:
    """Norm (+1 or -1) of the fundamental unit, by the parity of the
    continued fraction period of the standard quadratic surd."""
    _require_fundamental(D)
    if D <= 0:
        raise PreconditionViolated(f"fundamental_unit_norm needs D > 0, got {D}")
    if D % 4 == 1:
        _, period = surd_continued_fraction(1, 2, D)
    else:
        _, period = surd_continued_fraction(0, 1, D // 4)
    return -1 if period % 2 else 1


# --------------------------------------------------------------------------
# ideals


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadIdeal(namedtuple("QuadIdeal", "D a b")):
    """Primitive ideal in normal form Z*a + Z*(b + sqrt(D))/2, a = norm > 0."""

    __slots__ = ()

    def __new__(cls, D: int, a: int, b: int):
        if a <= 0 or (b * b - D) % (4 * a):
            raise PreconditionViolated(
                f"({a}, {b}) is not an ideal of discriminant {D}")
        return super().__new__(cls, D, a, b)

    # _replace builds through _make, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def normalized(self) -> "QuadIdeal":
        return QuadIdeal(self.D, self.a, self.b % (2 * self.a))

    def form(self) -> QuadForm:
        return QuadForm(self.a, self.b, (self.b * self.b - self.D) // (4 * self.a))


def unit_ideal(D: int) -> QuadIdeal:
    return QuadIdeal(D, 1, D % 2)


def ideal_from_form(f: QuadForm) -> QuadIdeal:
    if f.a <= 0:
        raise ValueError("need positive leading coefficient")
    return QuadIdeal(f.discriminant, f.a, f.b)


def ideal_mul(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """Primitive part of the product ideal (any rational content is a
    principal factor and is dropped)."""
    if I.D != J.D:
        raise PreconditionViolated(f"ideals of discriminants {I.D} and {J.D}")
    D = I.D
    # generators of the product as rows (x, y) meaning (x + y sqrt(D))/2
    rows = [
        (2 * I.a * J.a, 0),
        (I.a * J.b, I.a),
        (J.a * I.b, J.a),
        ((I.b * J.b + D) // 2, (I.b + J.b) // 2),
    ]
    m, x0, g = _hnf_2col(rows)
    if x0 % g or m % g:
        raise InternalInconsistency("product module not a multiple of its content")
    m, x0 = m // g, x0 // g
    if m % 2:
        raise InternalInconsistency(f"product ideal of odd index {m}")
    return QuadIdeal(D, m // 2, x0 % m)


def _hnf_2col(rows):
    """Hermite form of the lattice spanned by integer rows (x, y):
    returns (m, x0, g) with basis (m, 0), (x0, g)."""
    g = 0
    x0 = 0
    xs = []
    for x, y in rows:
        if y:
            if g == 0:
                g, x0 = abs(y), x if y > 0 else -x
            else:
                gg, u, v = _xgcd(g, y)
                x0 = u * x0 + v * x
                g = gg
        else:
            xs.append(x)
    # clear remaining rows against (x0, g)
    for x, y in rows:
        if y:
            k = y // g
            xs.append(x - k * x0)
    m = 0
    for x in xs:
        m = math.gcd(m, x)
    if m == 0:
        raise InternalInconsistency("ideal lattice is not of rank 2")
    return m, x0 % m, g


def ideal_pow(I: QuadIdeal, e: int) -> QuadIdeal:
    out = unit_ideal(I.D)
    for _ in range(e):
        out = ideal_mul(out, I)
    return out


def is_principal(I: QuadIdeal) -> bool:
    """Principality in the wide sense (any generator, either norm sign)."""
    f = I.form()
    if I.D < 0:
        return reduce_form(f) == principal_form(I.D)
    return any(abs(g.a) == 1 for g in _cycle(f))


def split_prime(D: int, p: int):
    """(split | inert | ramified, prime ideal above p or None if inert)."""
    _require_fundamental(D)
    sym = kronecker(D, p)
    if sym == -1:
        return SplitType.INERT, None
    for b in range(2 * p):
        if (b * b - D) % (4 * p) == 0:
            ideal = QuadIdeal(D, p, b)
            return (SplitType.RAMIFIED if sym == 0 else SplitType.SPLIT), ideal
    raise InternalInconsistency(f"no square root of {D} mod 4*{p}")


def ideal_sqrt_of_element(D: int, n: int):
    """If (n) is the square of an integral ideal of the order of
    discriminant D, return that square root (primitive part, reduced);
    otherwise None.  None signals essential ramification when n generates
    the relative quadratic extension."""
    _require_fundamental(D)
    if n == 0:
        raise ValueError("n must be nonzero")
    sqrt = unit_ideal(D)
    for p, e in factorize(abs(n)):
        if kronecker(D, p):
            # split: both conjugate exponents are e; inert: exponent e
            if e % 2:
                return None
        elif e % 2:
            # ramified: v_P(n) = 2e, the square root picks up P^e
            sqrt = ideal_mul(sqrt, split_prime(D, p)[1])
    if D < 0:
        return ideal_from_form(reduce_form(sqrt.form()))
    return sqrt.normalized()

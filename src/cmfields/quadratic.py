"""Exact arithmetic in quadratic fields via binary quadratic forms and
ideal normal forms: class numbers, principality, prime splitting,
fundamental-unit norms, ideal square roots of rational integers.

For D > 0 one walk, the cycle of reduced forms under rho, counts the
classes and decides principality and the norm of the fundamental unit.
It carries each form as plain integers (a, b, c), with D and isqrt(D)
fixed for the whole walk.

The square root of (n) is the product of the ramified primes above the
p with v_p(n) odd, written down in closed form; no general ideal product
is needed.

Only fundamental discriminants are accepted; callers normalize.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import isqrt

from .arith import factorize, kronecker, require_fundamental_discriminant
from .errors import InternalInconsistency, PreconditionViolated


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


def _reduced_indefinite(a: int, b: int, s: int) -> bool:
    """(a, b, c) of discriminant D > 0 is reduced, with s = isqrt(D): D is
    not a square, so x < sqrt(D) exactly when x <= s."""
    return 0 < b <= s and s - b < 2 * abs(a) <= s + b


def is_reduced(f: QuadForm) -> bool:
    D = f.discriminant
    a, b, c = f.a, f.b, f.c
    if D > 0:
        return _reduced_indefinite(a, b, isqrt(D))
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def reduce_form(f: QuadForm) -> QuadForm:
    if f.discriminant < 0:
        return _reduce_definite(f)
    return QuadForm(*next(_cycle(f)))


def _reduce_definite(f: QuadForm) -> QuadForm:
    a, b, c = f.a, f.b, f.c
    D = f.discriminant
    if a < 0:
        raise ValueError("positive definite forms only")
    # Every swap but the first follows a translation, so it maps a form
    # with |b| <= a and c < a to a' = c = (b^2 + |D|)/(4a): a' <= a/2 while
    # a >= sqrt|D|, and below that c < a needs a > sqrt|D|/2, with a' < a.
    # A translation or a sign flip comes only before a swap, a sign flip
    # or the return, so there are at most 2 swaps + 3 steps.
    for _ in range(2 * (max(a, c).bit_length() + isqrt(-D) + 2) + 3):
        if c < a:
            a, b, c = c, -b, a
            continue
        if abs(b) > a or (b == -a):
            # translate b into (-a, a]
            r = (a - b) // (2 * a)
            b += 2 * r * a
            c = (b * b - D) // (4 * a)
            continue
        if a == c and b < 0:
            b = -b
            continue
        return QuadForm(a, b, c)
    raise InternalInconsistency(f"reduction bound exceeded for {f}")


def _normalize_indefinite(a: int, b: int, D: int, s: int):
    """(a, b', c') with b' = b mod 2|a|, taken into (-|a|, |a|] when
    |a| > s = isqrt(D) and into (s - 2|a|, s] otherwise."""
    aa = abs(a)
    b %= 2 * aa
    if aa > s:
        if b > aa:
            b -= 2 * aa
    else:
        b += 2 * aa * ((s - b) // (2 * aa))
    return a, b, (b * b - D) // (4 * a)


def _cycle(f: QuadForm):
    """Yield (a, b, c) for each form of the cycle of reduced forms that f
    reduces into (D > 0), starting at the reduced form of f.  One rho step
    takes (a, b, c) to (c, -b, a), normalized; D and isqrt(D) stay fixed
    for the whole walk."""
    D = f.discriminant
    s = isqrt(D)
    a, b, c = _normalize_indefinite(f.a, f.b, D, s)
    # a step from a normalized form with |a| > sqrt(D) takes |a| to
    # |c| <= |a|/4; one with sqrt(D)/2 < |a| < sqrt(D) leads to |c| <
    # sqrt(D)/2, and a normalized form with 2|a| < sqrt(D) is reduced
    for _ in range(abs(a).bit_length() + 3):
        if _reduced_indefinite(a, b, s):
            break
        a, b, c = _normalize_indefinite(c, -b, D, s)
    else:
        raise InternalInconsistency(f"reduction bound exceeded for {f}")
    start = a, b, c
    # proven bound on the period, with slack
    for _ in range(10 * (s + 2) * (D.bit_length() + 2)):
        yield a, b, c
        a, b, c = _normalize_indefinite(c, -b, D, s)
        if (a, b, c) == start:
            return
    raise InternalInconsistency(f"cycle bound exceeded for D={D}")


def reduced_forms(D: int) -> list[QuadForm]:
    """All reduced forms of fundamental discriminant D < 0."""
    require_fundamental_discriminant(D)
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
    require_fundamental_discriminant(D)
    if D <= 0:
        raise PreconditionViolated(f"indefinite forms need D > 0, got {D}")
    s = isqrt(D)
    out = []
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        # 0 < b <= s and s - b < 2|a| <= s + b: every form here is reduced
        for aa in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if (b * b - D) % (4 * aa) == 0:
                out += (QuadForm(a, b, (b * b - D) // (4 * a))
                        for a in (aa, -aa))
    return out


@lru_cache(maxsize=None)
def class_number(D: int) -> int:
    """h(D) in the wide sense, by reduced-form enumeration.

    For D > 0 the reduced forms fall into cycles, one per narrow class;
    the narrow and wide groups agree exactly when the fundamental unit has
    norm -1, and otherwise the wide class number is half the cycle count.
    Memoized for the life of the process on D."""
    require_fundamental_discriminant(D)
    if D < 0:
        return len(reduced_forms(D))
    forms = set(reduced_indefinite_forms(D))
    cycles = 0
    while forms:
        f = next(iter(forms))
        forms -= set(_cycle(f))
        cycles += 1
    return cycles // 2 if fundamental_unit_norm(D) == 1 else cycles


def fundamental_unit_norm(D: int) -> int:
    """Norm (+1 or -1) of the fundamental unit: -1 exactly when the
    principal form represents -1, and a number of absolute value below
    sqrt(D)/2 is represented exactly when it is the first coefficient of
    a form in the principal cycle."""
    require_fundamental_discriminant(D)
    if D <= 0:
        raise PreconditionViolated(f"fundamental_unit_norm needs D > 0, got {D}")
    return -1 if any(a == -1 for a, _, _ in _cycle(principal_form(D))) else 1


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

    def form(self) -> QuadForm:
        return QuadForm(self.a, self.b, (self.b * self.b - self.D) // (4 * self.a))


def ideal_from_form(f: QuadForm) -> QuadIdeal:
    if f.a <= 0:
        raise ValueError("need positive leading coefficient")
    return QuadIdeal(f.discriminant, f.a, f.b)


def is_principal(I: QuadIdeal) -> bool:
    """Principality in the wide sense (any generator, either norm sign)."""
    f = I.form()
    if I.D < 0:
        return reduce_form(f) == principal_form(I.D)
    return any(abs(a) == 1 for a, _, _ in _cycle(f))


def split_prime(D: int, p: int):
    """(split | inert | ramified, prime ideal above p or None if inert)."""
    require_fundamental_discriminant(D)
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
    the relative quadratic extension.

    A prime p | n with v_p(n) odd must ramify, and the root is then the
    product of the ramified primes above those p: the ideal of norm a,
    their product, with b = 0 mod the odd part of a and b = D mod 2, and
    b^2 = D mod 8 when 2 | a.  So b = a when D is odd or D/4 is odd with
    2 | a, and b = 0 otherwise; `QuadIdeal` checks 4a | b^2 - D.  For
    D > 0, b in {0, a} is already in [0, 2a)."""
    require_fundamental_discriminant(D)
    if n == 0:
        raise ValueError("n must be nonzero")
    a = 1
    for p, e in factorize(abs(n)):
        if e % 2:
            # unless p ramifies, the p-part of (n) is a square only for e even
            if kronecker(D, p):
                return None
            a *= p
    sqrt = QuadIdeal(D, a, a if D % 2 or (a % 2 == 0 and D // 4 % 2) else 0)
    if D < 0:
        return ideal_from_form(reduce_form(sqrt.form()))
    return sqrt

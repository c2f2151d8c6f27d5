"""Exact arithmetic in Q(zeta_e): the test oracle for `cmfields.cyclotomic`.

The program keeps only the norm kernel: `CycNumber` (integer numerators
over one denominator, no arithmetic), `from_power_coeffs`, `galois_apply`
and `absolute_norm`.  `Cyc` subclasses that `CycNumber` and adds the field
arithmetic the tests check the kernel with, so `absolute_norm` and
`galois_apply` take a `Cyc` unchanged, and `galois_apply` returns one.
`Cyc.of` reads a value the program built, such as `bernoulli_b1(chi)`.
`norm_whole_ring` is the norm kernel before its descent down the tower,
the oracle for `absolute_norm`, and `negacyclic_schoolbook` is the
coefficient-by-coefficient product that checks the kernel's Kronecker
multiply `_negacyclic_mul`, which `norm_whole_ring` shares with it.

Arithmetic requires equal levels; lift explicitly with `lift` when mixing
levels (Q(zeta_e) embeds in Q(zeta_e') for e | e').  Equality and the hash
agree across levels.  Division is by nonzero rationals only.
"""

import math
from fractions import Fraction
from functools import lru_cache

from cmfields.arith import euler_phi, mobius, unit_group
from cmfields.cyclotomic import CycNumber, _orbit_product, cyclotomic_polynomial
from cmfields.errors import InternalInconsistency


class Cyc(CycNumber):
    """An element of Q(zeta_e) with field arithmetic."""

    __slots__ = ()

    def __new__(cls, level: int, coeffs):
        """From phi(level) int or Fraction power-basis coordinates."""
        n = euler_phi(level)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError(f"level {level} needs {n} coordinates, got {len(coeffs)}")
        # the lcm of lowest-terms denominators leaves gcd(den, *num) = 1
        den = math.lcm(1, *(c.denominator for c in coeffs))
        return cls._from_ints(
            level, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def of(cls, x: CycNumber) -> "Cyc":
        """The same element, with arithmetic."""
        return x if isinstance(x, cls) else cls._from_ints(x.level, x.num, x.den)

    @classmethod
    def from_rational(cls, level: int, value) -> "Cyc":
        q = Fraction(value)
        num = [q.numerator] + [0] * (euler_phi(level) - 1)
        return cls._from_ints(level, num, q.denominator)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "Cyc":
        return cls.from_power_coeffs(level, [0] * (power % level) + [1])

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InternalInconsistency(f"not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.level != self.level:
                raise ValueError(
                    f"level mismatch {self.level} vs {other.level}; lift first")
            return Cyc.of(other)
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.level, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return Cyc._from_ints(
            self.level, [a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    def __neg__(self):
        return Cyc._from_ints(self.level, [-a for a in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyc._from_ints(
                self.level, [a * q.numerator for a in self.num],
                self.den * q.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        prod[i + j] += a * b
        return Cyc.from_power_coeffs(self.level, prod, self.den * other.den)

    def __truediv__(self, other):
        """Division by a nonzero rational."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError
        q = Fraction(other)
        return Cyc._from_ints(
            self.level, [a * q.denominator for a in self.num],
            self.den * q.numerator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if isinstance(other, CycNumber):
            a, b = self, Cyc.of(other)
            if a.level != b.level:
                lcm = math.lcm(a.level, b.level)
                a, b = a.lift(lcm), b.lift(lcm)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    def __hash__(self):
        """Hash of the normalized trace Tr(x)/phi(e).  It does not depend on
        the level that holds x, so elements equal across levels hash equal,
        and on a rational q it is q itself."""
        weights = _trace_weights(self.level)
        return hash(Fraction(sum(c * w for c, w in zip(self.num, weights) if c),
                             self.den))

    def __repr__(self):
        return f"Cyc(level={self.level}, coeffs={[str(c) for c in self.coeffs]})"

    def lift(self, new_level: int) -> "Cyc":
        """Image under the embedding Q(zeta_e) -> Q(zeta_e'), e | e'."""
        if new_level == self.level:
            return self
        if new_level % self.level:
            raise ValueError(f"{self.level} does not divide {new_level}")
        step = new_level // self.level
        acc = [0] * ((len(self.num) - 1) * step + 1)
        for j, c in enumerate(self.num):
            acc[j * step] = c
        return Cyc.from_power_coeffs(new_level, acc, self.den)


@lru_cache(maxsize=None)
def _trace_weights(e: int) -> tuple:
    """Tr(zeta_e^i)/phi(e) = mu(e/g)/phi(e/g), g = gcd(i, e), for i < phi(e)."""
    return tuple(Fraction(mobius(e // g), euler_phi(e // g))
                 for g in (math.gcd(i, e) for i in range(euler_phi(e))))


def pi_element(m: int) -> Cyc:
    """2 + zeta + 1/zeta for the 2^m-th root of unity, at level 2^m.

    Totally real of norm 2 down its real tower; satisfies
    (pi_m - 2)^2 = pi_(m-1) after lifting levels.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    e = 2**m
    return Cyc.zeta(e) + Cyc.zeta(e, e - 1) + 2


def _poly_rem(num: list, den: tuple) -> list:
    """num mod den by schoolbook long division, den monic; written here
    rather than taken from the kernel, so the oracle shares no reduction
    code with the `absolute_norm` it checks."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    return num[:dn]


def negacyclic_schoolbook(a: list, b: list) -> list:
    """a * b in Z[x]/(x^h + 1), h = len(a) = len(b), one coefficient
    product at a time: x^(i+j) = -x^(i+j-h) when i + j >= h."""
    h = len(a)
    out = [0] * h
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < h:
                out[i + j] += x * y
            else:
                out[i + j - h] -= x * y
    return out


def norm_whole_ring(x: CycNumber) -> Fraction:
    """The norm of x with every Galois step in the full half ring
    Z[x]/(x^(n/2) + 1), n the even level, and one reduction mod Phi_n at
    the end: the kernel `absolute_norm` replaced by its descent down the
    tower, kept as its oracle."""
    n = x.level
    poly = list(x.num)
    if n % 2:
        poly = [-c if i % 2 else c for i, c in enumerate(poly)]
        n *= 2
    poly += [0] * (n // 2 - len(poly))
    ug = unit_group(n)
    for g, o in zip(ug.generators, ug.orders):
        poly = _orbit_product(poly, g, o)
    rem = _poly_rem(poly, cyclotomic_polynomial(n))
    if any(rem[1:]):
        raise InternalInconsistency("norm did not land in Q")
    return Fraction(rem[0], x.den ** len(x.num))

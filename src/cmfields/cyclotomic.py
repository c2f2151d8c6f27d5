"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Elements are stored on the power basis 1, z, ..., z^(phi(e)-1) modulo the
e-th cyclotomic polynomial, as integer numerators over one common
denominator.  Everything here is exact; there is no floating point
anywhere in this package.

For even e, zeta_e^(e/2) = -1, so Phi_e divides x^(e/2) + 1 and the work
before a reduction mod Phi_e is done in the half ring Z[x]/(x^(e/2) + 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import Rational, divisors, euler_phi, mobius, unit_group
from .errors import InternalInconsistency, NotCoprime


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, low to high; monic of degree phi(e).

    Phi_e = prod_(d | e) (x^d - 1)^mu(e/d): multiply by the binomials with
    mu(e/d) = +1, then divide exactly by those with mu(e/d) = -1.
    """
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    divs = divisors(e)
    poly = [1]
    for d in divs:
        if mobius(e // d) == 1:
            low, poly = poly, [0] * d + poly
            for i, c in enumerate(low):
                poly[i] -= c
    for d in divs:
        if mobius(e // d) == -1:
            poly, rem = _int_poly_divmod(poly, (-1,) + (0,) * (d - 1) + (1,))
            if any(rem):
                raise InternalInconsistency("polynomial division left a remainder")
    if len(poly) != euler_phi(e) + 1 or poly[-1] != 1:
        raise InternalInconsistency(f"Phi_{e} is not monic of degree phi({e})")
    return tuple(poly)


def _int_poly_divmod(num: list[int], den: tuple[int, ...]
                     ) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; den must be monic and
    num at least deg(den) long."""
    num = list(num)
    dn = len(den) - 1
    terms = [(j, dj) for j, dj in enumerate(den[:-1]) if dj]
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        quot[i] = c
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    return quot, num[:dn]


def _fold(level: int, coeffs) -> list[int]:
    """sum_j coeffs[j] x^j in Z[x]/(x^h + 1), h = level/2, for even level,
    and in Z[x]/(x^level - 1) for odd level (exponents only reduced mod
    level).  Either ring maps onto Q(zeta_level)."""
    h = level // 2 if level % 2 == 0 else level
    folded = [0] * h
    for j, c in enumerate(coeffs):
        if c:
            j %= level
            if j < h:
                folded[j] += c
            else:
                folded[j - h] -= c
    return folded


class CycNumber:
    """Element of Q(zeta_e) on the power basis mod Phi_e.

    Stored as integer numerators `num` over one positive common denominator
    `den` in lowest terms, gcd(den, *num) = 1, so zero is (0, ..., 0)/1 and
    two elements of one level are equal exactly when their fields are.
    Immutable.  Arithmetic requires equal levels; callers lift explicitly
    via `lift` when mixing levels (Q(zeta_e) embeds in Q(zeta_e') for e | e').
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs):
        n = euler_phi(level)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError(f"level {level} needs {n} coordinates, got {len(coeffs)}")
        # the lcm of lowest-terms denominators leaves gcd(den, *num) = 1
        den = math.lcm(1, *(c.denominator for c in coeffs))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", tuple(
            c.numerator * (den // c.denominator) for c in coeffs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNumber is immutable")

    @classmethod
    def _from_ints(cls, level: int, num, den: int) -> "CycNumber":
        """num / den, phi(level) integer numerators and den != 0, brought to
        lowest terms with den > 0."""
        if den < 0:
            num, den = [-c for c in num], -den
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
        x = object.__new__(cls)
        object.__setattr__(x, "level", level)
        object.__setattr__(x, "num", tuple(num))
        object.__setattr__(x, "den", den)
        return x

    @classmethod
    def from_rational(cls, level: int, value) -> "CycNumber":
        q = Fraction(value)
        num = [q.numerator] + [0] * (euler_phi(level) - 1)
        return cls._from_ints(level, num, q.denominator)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "CycNumber":
        return cls.from_power_coeffs(level, [0] * (power % level) + [1])

    @classmethod
    def from_power_coeffs(cls, level: int, coeffs, den: int = 1) -> "CycNumber":
        """Build (sum_j coeffs[j] * zeta^j) / den from integer coefficients
        of any length (exponents taken mod level) and a nonzero integer den.

        The coefficients are folded into the half ring (`_fold`) and
        reduced once mod Phi_level."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        _, rem = _int_poly_divmod(_fold(level, coeffs), cyclotomic_polynomial(level))
        return cls._from_ints(level, rem, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- predicates ------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Rational:
        if not self.is_rational():
            raise InternalInconsistency(f"not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.level != self.level:
                raise ValueError(
                    f"level mismatch {self.level} vs {other.level}; lift first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.level, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return CycNumber._from_ints(
            self.level, [a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber._from_ints(self.level, [-a for a in self.num], self.den)

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
            return CycNumber._from_ints(
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
        return CycNumber.from_power_coeffs(self.level, prod, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError
        q = Fraction(other)
        return CycNumber._from_ints(
            self.level, [a * q.denominator for a in self.num],
            self.den * q.numerator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if isinstance(other, CycNumber):
            a, b = self, other
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
        return f"CycNumber(level={self.level}, coeffs={[str(c) for c in self.coeffs]})"

    # -- structure maps --------------------------------------------------

    def lift(self, new_level: int) -> "CycNumber":
        """Image under the embedding Q(zeta_e) -> Q(zeta_e'), e | e'."""
        if new_level == self.level:
            return self
        if new_level % self.level:
            raise ValueError(f"{self.level} does not divide {new_level}")
        step = new_level // self.level
        acc = [0] * ((len(self.num) - 1) * step + 1)
        for j, c in enumerate(self.num):
            acc[j * step] = c
        return CycNumber.from_power_coeffs(new_level, acc, self.den)


@lru_cache(maxsize=None)
def _trace_weights(e: int) -> tuple[Fraction, ...]:
    """Tr(zeta_e^i)/phi(e) = mu(e/g)/phi(e/g), g = gcd(i, e), for i < phi(e)."""
    return tuple(Fraction(mobius(e // g), euler_phi(e // g))
                 for g in (math.gcd(i, e) for i in range(euler_phi(e))))


def galois_apply(k: int, x: CycNumber) -> CycNumber:
    """The automorphism zeta -> zeta^k of Q(zeta_e), gcd(k, e) = 1."""
    e = x.level
    if math.gcd(k, e) != 1:
        raise NotCoprime(f"gcd({k}, {e}) != 1")
    acc = [0] * e
    for i, c in enumerate(x.num):
        if c:
            acc[(i * k) % e] += c
    return CycNumber.from_power_coeffs(e, acc, x.den)


def absolute_norm(x: CycNumber) -> Rational:
    """Product of all Galois conjugates of x; certified rational.

    Computed on the numerators in the half ring Z[x]/(x^h + 1), h = n/2,
    for the even level n = x.level.  An odd level n is first lifted to 2n
    by zeta_n -> -zeta_2n: Q(zeta_n) = Q(zeta_2n), and -zeta_2n is a
    primitive n-th root of unity, so the image is a conjugate of x with
    the same norm.  The half ring maps onto Q(zeta_n) by a ring map
    commuting with every sigma_k, and there sigma_k is a signed permutation
    of the coefficients (`_sigma`).  For each canonical generator g of
    order o of (Z/nZ)*, P becomes prod_(j<o) sigma_(g^j)(P), built by the
    binary digits of o.  One reduction mod Phi_n at the end must leave a
    rational c, and the norm is c / den^phi(n).
    """
    n = x.level
    poly = list(x.num)
    if n % 2:
        poly = [-c if i % 2 else c for i, c in enumerate(poly)]
        n *= 2
    poly += [0] * (n // 2 - len(poly))
    ug = unit_group(n)
    for g, o in zip(ug.generators, ug.orders):
        poly = _orbit_product(poly, g, o)
    _, rem = _int_poly_divmod(poly, cyclotomic_polynomial(n))
    if any(rem[1:]):
        raise InternalInconsistency("norm did not land in Q")
    return Fraction(rem[0], x.den ** len(x.num))


def _orbit_product(p: list[int], g: int, o: int) -> list[int]:
    """prod_(j<o) sigma_(g^j)(p) in Z[x]/(x^h + 1), h = len(p).

    With T_k = prod_(j<k) sigma_(g^j)(p): T_2k = T_k * sigma_(g^k)(T_k) and
    T_(k+1) = p * sigma_g(T_k), taken over the binary digits of o.
    """
    n = 2 * len(p)
    t, k = p, 1
    for bit in bin(o)[3:]:
        t = _negacyclic_mul(t, _sigma(pow(g, k, n), t))
        k *= 2
        if bit == "1":
            t = _negacyclic_mul(p, _sigma(g, t))
            k += 1
    return t


def _sigma(k: int, p: list[int]) -> list[int]:
    """x -> x^k on Z[x]/(x^h + 1), k odd: coefficient i moves to
    j = i*k mod 2h, negated and taken to j - h when j >= h (x^h = -1)."""
    h = len(p)
    n = 2 * h
    out = [0] * h
    for i, c in enumerate(p):
        j = i * k % n
        if j < h:
            out[j] = c
        else:
            out[j - h] = -c
    return out


def _negacyclic_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b in Z[x]/(x^h + 1) as one big-int product.

    Kronecker substitution: evaluate at x = 2^bits with bits so wide that
    every coefficient of the product, folded mod x^h + 1, is below
    2^(bits-1) in absolute value, and read the digits back signed.
    """
    h = len(a)
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = max(h * ma * mb, ma, mb)  # the inputs are packed at this width too
    width = (bound.bit_length() + 8) // 8  # bytes per digit
    bits = 8 * width
    half = 1 << (bits - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * h, "little")

    def pack(v):
        raw = b"".join((c + half).to_bytes(width, "little") for c in v)
        return int.from_bytes(raw, "little") - offset

    prod = pack(a) * pack(b)
    # fold x^h = -1: the low h digits read as a signed number, minus the rest
    size = bits * h
    low = prod & ((1 << size) - 1)
    high = prod >> size
    if low >= 1 << (size - 1):
        low -= 1 << size
        high += 1
    raw = (low - high + offset).to_bytes(width * h, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * h, width)]


def pi_element(m: int) -> CycNumber:
    """2 + zeta + 1/zeta for the 2^m-th root of unity, at level 2^m.

    Totally real of norm 2 down its real tower; satisfies
    (pi_m - 2)^2 = pi_(m-1) after lifting levels.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    e = 2**m
    z = CycNumber.zeta(e)
    return z + CycNumber.zeta(e, e - 1) + 2


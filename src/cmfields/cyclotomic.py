"""The norm kernel for Q(zeta_e): fold, reduce mod Phi_e, take the norm.

The h- engine needs three things here.  `CycNumber.from_power_coeffs`
folds an integer vector sum_j c_j zeta^j and reduces it mod the e-th
cyclotomic polynomial, `CycNumber` holds the result on the power basis
1, z, ..., z^(phi(e)-1) as integer numerators over one denominator, and
`absolute_norm` takes its norm down to Q as an exact `Fraction`.  There
is no floating point anywhere in this package.

For even e, zeta_e^(e/2) = -1, so Phi_e divides x^(e/2) + 1 and the work
before a reduction mod Phi_e is done in the half ring Z[x]/(x^(e/2) + 1).

`CycNumber` has no arithmetic.  The field arithmetic that checks the
kernel (sums, products, lifts, cross-level equality) is a subclass in
`tests/cycoracle.py`.  `galois_apply` stays here as the conjugate map
that oracle multiplies out; it returns its argument's class.
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
    """Element of Q(zeta_e) on the power basis mod Phi_e, e = `level`.

    Integer numerators `num`, phi(e) of them, over one positive common
    denominator `den`, in lowest terms: gcd(den, *num) = 1.  Immutable,
    and with no arithmetic: the program only builds these (B_(1,chi) by
    `from_power_coeffs`) and takes their norms.
    """

    __slots__ = ("level", "num", "den")

    def __setattr__(self, *a):
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
    def from_power_coeffs(cls, level: int, coeffs, den: int = 1) -> "CycNumber":
        """Build (sum_j coeffs[j] * zeta^j) / den from integer coefficients
        of any length (exponents taken mod level) and a nonzero integer den.

        The coefficients are folded into the half ring (`_fold`) and
        reduced once mod Phi_level."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        _, rem = _int_poly_divmod(_fold(level, coeffs), cyclotomic_polynomial(level))
        return cls._from_ints(level, rem, den)


def galois_apply(k: int, x: CycNumber) -> CycNumber:
    """The automorphism zeta -> zeta^k of Q(zeta_e), gcd(k, e) = 1, as an
    element of x's own class."""
    e = x.level
    if math.gcd(k, e) != 1:
        raise NotCoprime(f"gcd({k}, {e}) != 1")
    acc = [0] * e
    for i, c in enumerate(x.num):
        if c:
            acc[(i * k) % e] += c
    return x.from_power_coeffs(e, acc, x.den)


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


"""The norm kernel for Q(zeta_e): fold, reduce mod Phi_e, take the norm.

The h- engine needs three things here.  `CycNumber.from_power_coeffs`
folds an integer vector sum_j c_j zeta^j and reduces it mod the e-th
cyclotomic polynomial, `CycNumber` holds the result on the power basis
1, z, ..., z^(phi(e)-1) as integer numerators over one denominator, and
`absolute_norm` takes its norm down to Q as an exact `Fraction`.  There
is no floating point anywhere in this package.

Phi_e is built once per level from prod_(d | e) (x^d - 1)^mu(e/d), each
division by x^d - 1 one in-place pass from the top that must leave no
remainder.  `_reduce` is the one loop that divides by Phi_e.

For even e, zeta_e^(e/2) = -1, so Phi_e divides x^(e/2) + 1 and the work
before a reduction mod Phi_e is done in the half ring Z[x]/(x^(e/2) + 1).

The norm goes down the tower Q(zeta_n) > Q(zeta_(n/q)) > ... > Q one
prime-power block q of (Z/nZ)* at a time, the smallest group first, so
the largest group's products run in the smallest ring.  Each step down
is a Ramanujan-sum projection, checked twice: an exact division by
p - 1, and the lift back up, which must give the orbit product again.
The last block stops at its index-2 subgroup H: the orbit product U over
H must be fixed by each generator of H, and the norm U * sigma_g(U),
g outside H, is then rational and is read off one integer product at
x = 2^k, modulo Phi_n(2^k).  All three checks raise
`InternalInconsistency`.

Products in the half ring are one big-int multiplication each (Kronecker
substitution); digits of up to 8 bytes are packed and unpacked through
`array` buffers, wider ones through bytes.

`CycNumber` has no arithmetic.  The field arithmetic that checks the
kernel (sums, products, lifts, cross-level equality) is a subclass in
`tests/cycoracle.py`, next to `norm_whole_ring`, the product over every
generator in the whole half ring that the descent replaced.
`galois_apply` stays here as the conjugate map the oracle multiplies
out; it returns its argument's class.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache

from .arith import Rational, divisors, euler_phi, factorize, mobius, unit_group
from .errors import InternalInconsistency, NotCoprime


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, low to high; monic of degree phi(e).

    Phi_e = prod_(d | e) (x^d - 1)^mu(e/d): multiply by the binomials with
    mu(e/d) = +1, then divide exactly by those with mu(e/d) = -1.  The
    quotient by x^d - 1 comes from the top, q_(i-d) = c_i + q_i, in place:
    the quotient is left above x^d and the remainder below it.
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
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i - d] += poly[i]
            if any(poly[:d]):
                raise InternalInconsistency("polynomial division left a remainder")
            poly = poly[d:]
    if len(poly) != euler_phi(e) + 1 or poly[-1] != 1:
        raise InternalInconsistency(f"Phi_{e} is not monic of degree phi({e})")
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(e), the nonzero (j, c) of Phi_e below its leading term)."""
    phi = cyclotomic_polynomial(e)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(num: list[int], e: int) -> list[int]:
    """num mod Phi_e, phi(e) coefficients; num is at least phi(e) long and
    is used up as scratch."""
    dn, terms = _phi_terms(e)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn]
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    return num[:dn]


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
        return cls._from_ints(level, _reduce(_fold(level, coeffs), level), den)


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
    of the coefficients (`_sigma`).

    The norm goes down the tower one prime-power block q || n of (Z/nZ)*
    at a time, the smallest group first.  For each canonical generator g
    of order o of the block, P becomes prod_(j<o) sigma_(g^j)(P), built by
    the binary digits of o.  While another block is left, P now lies in
    Q(zeta_(n/q)) and `_descend` carries it there, checked, so the next
    block works in a ring about phi(q) times smaller.  The last block is
    finished on its index-2 subgroup (`_finish`), and the norm is the
    rational it gives over den^phi(n).  A level with one block takes no
    descent.
    """
    poly, n = _half_ring(list(x.num), x.level)
    while True:
        gens, descent = _level_plan(n)
        if descent is None:
            break
        for g, o in gens:
            poly = _orbit_product(poly, g, o)
        poly, n = _descend(poly, n, descent)
    return Fraction(_finish(poly, n, gens), x.den ** len(x.num))


def _finish(poly: list[int], n: int, gens) -> int:
    """The norm of P down the last block, gens, of the even level n.

    With g of order o the last generator (o is even for n > 2), U is the
    orbit product of P over the index-2 subgroup H = <the other
    generators, g^2>.  U must be fixed mod Phi_n by each generator of H,
    or InternalInconsistency is raised; then U lies in a quadratic field
    and N = U * sigma_g(U) is rational.  N is read at x = 2^k: Phi_n
    divides U * sigma_g(U) - N in Z[x], so N is the centred residue of
    U(2^k) * sigma_g(U)(2^k) mod Phi_n(2^k).  Phi_n(2^k) >= (2^k - 1)^phi(n)
    and |N| = |U(zeta)| |sigma_g(U)(zeta)| <= h^2 max|U|^2, so k with
    (2^k - 1)^phi(n) > 2 h^2 max|U|^2 leaves one candidate.  So the widest
    product of the orbit becomes two evaluations and one multiply about h
    times narrower.  Level 2 has no generator: P is an integer already.
    """
    if not gens:  # level 2: the half ring Z[x]/(x + 1) is Z
        return poly[0]
    *rest, (g, o) = gens
    fixers = [t for t, _ in rest] + [g * g % n]  # generators of H
    for t, ot in rest:
        poly = _orbit_product(poly, t, ot)
    u = _orbit_product(poly, fixers[-1], o // 2)
    for t in fixers:
        if any(_reduce([a - b for a, b in zip(_sigma(t, u), u)], n)):
            raise InternalInconsistency(
                f"norm did not land in Q: the index-2 orbit product at level"
                f" {n} is not fixed by sigma_{t}")
    phi = cyclotomic_polynomial(n)
    bound = 2 * (len(u) * max(map(abs, u))) ** 2
    # (2^k - 1)^phi(n) >= 2^((k-1) phi(n)) > bound
    k = -(-bound.bit_length() // (len(phi) - 1)) + 1
    modulus = _at_power_of_two(phi, k)
    r = _at_power_of_two(u, k) * _at_power_of_two(_sigma(g, u), k) % modulus
    return r - modulus if 2 * r > modulus else r


def _at_power_of_two(coeffs, k: int) -> int:
    """sum_j coeffs[j] 2^(k j), by Horner's rule."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


@lru_cache(maxsize=None)
def _level_plan(n: int):
    """(gens, descent) for the even level n.

    gens lists (g, o) for the canonical generators of the block q = p^k
    of (Z/nZ)* with the smallest group (ties to the smaller q).  descent
    is None when no other block has generators.  Else it is
    (r, p, proj, lift) with r = n/q:
      - proj lists (a, j, w): coefficient a of P adds w * P_a to
        coefficient j at level r, in Z[y]/(y^(r/2) + 1) for even r and in
        Z[y]/(y^r - 1) for odd r.  With eta = zeta_n^e, e = 1 mod r and
        e = 0 mod q, the trace of zeta_n^a down the block is
        eta^a * c_q(a), c_q the Ramanujan sum, so w is c_q(a) (p-1)/phi(q):
        p - 1 if q | a, -1 if q/p | a and q does not, else 0 (folded sign
        included);
      - lift lists (j, i, s): eta^j = s * x^i in the half ring of n.
    """
    ug = unit_group(n)
    blocks = {}
    for g, o, q in zip(ug.generators, ug.orders, ug.blocks):
        blocks.setdefault(q, []).append((g, o))
    if len(blocks) < 2:
        return tuple(zip(ug.generators, ug.orders)), None
    q = min(blocks, key=lambda q: (euler_phi(q), q))
    ((p, _),) = factorize(q)
    r, h = n // q, n // 2
    e = q * pow(q, -1, r) % n
    fold = r // 2 if r % 2 == 0 else 0
    proj = []
    for a in range(h):
        if a % q == 0:
            w = p - 1
        elif a % (q // p) == 0:
            w = -1
        else:
            continue
        j = a % r
        if fold and j >= fold:
            j, w = j - fold, -w
        proj.append((a, j, w))
    lift = []
    for j in range(euler_phi(r)):
        i = j * e % n
        lift.append((j, i, 1) if i < h else (j, i - h, -1))
    return tuple(blocks[q]), (r, p, tuple(proj), tuple(lift))


def _descend(poly: list[int], n: int, descent) -> tuple[list[int], int]:
    """Carry P, the half-ring image of an element of Q(zeta_r) at level n,
    down to level r (to 2r when r is odd, as `absolute_norm` lifts odd
    levels); returns (coefficients, new even level).

    (p-1) P = sum_a w_a P_a eta^a, reduced mod Phi_r, must divide exactly
    by p - 1, and lifted back through eta^j = zeta_n^(je) it must equal P
    mod Phi_n.  Either failure raises InternalInconsistency.
    """
    r, p, proj, lift = descent
    acc = [0] * (r // 2 if r % 2 == 0 else r)
    for a, j, w in proj:
        acc[j] += w * poly[a]
    low = _reduce(acc, r)
    if p > 2:
        if any(c % (p - 1) for c in low):
            raise InternalInconsistency(
                f"projection to Q(zeta_{r}) not divisible by {p - 1}")
        low = [c // (p - 1) for c in low]
    diff = list(poly)
    for j, i, s in lift:
        diff[i] -= s * low[j]
    if any(_reduce(diff, n)):
        raise InternalInconsistency(f"orbit product not in Q(zeta_{r})")
    return _half_ring(low, r)


def _half_ring(poly: list[int], n: int) -> tuple[list[int], int]:
    """poly, an element of Q(zeta_n) on the power basis, as n'/2
    coefficients of the half ring of the even level n' = n or 2n; an odd
    level takes zeta_n -> -zeta_2n, a conjugate with the same norm."""
    if n % 2:
        poly = [-c if i % 2 else c for i, c in enumerate(poly)]
        n *= 2
    return poly + [0] * (n // 2 - len(poly)), n


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


# the array typecode of each native digit width in bytes (1, 2, 4, 8)
_TYPECODES = {array(t).itemsize: t for t in "bhilq"}
_SWAP = sys.byteorder == "big"


def _negacyclic_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b in Z[x]/(x^h + 1) as one big-int product.

    Kronecker substitution: evaluate at x = 2^bits with bits so wide that
    every coefficient of the product, folded mod x^h + 1, is below
    2^(bits-1) in absolute value, and read the digits back signed.

    Digits of up to 8 bytes take the next native width and move through
    `array` buffers as two's complement; one XOR with the offset integer
    (2^(bits-1) in every digit) turns that into offset form, c + 2^(bits-1),
    and back.  Wider digits go through bytes one digit at a time.
    """
    h = len(a)
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = max(h * ma * mb, ma, mb)  # the inputs are packed at this width too
    width = (bound.bit_length() + 8) // 8  # bytes per digit
    code = None
    if width <= 8:
        width = min(w for w in _TYPECODES if w >= width)
        code = _TYPECODES[width]
    bits = 8 * width
    half = 1 << (bits - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * h, "little")

    def pack(v):
        if code is None:
            raw = b"".join((c + half).to_bytes(width, "little") for c in v)
            return int.from_bytes(raw, "little") - offset
        buf = array(code, v)
        if _SWAP:
            buf.byteswap()
        return (int.from_bytes(buf.tobytes(), "little") ^ offset) - offset

    prod = pack(a) * pack(b)
    # fold x^h = -1: the low h digits read as a signed number, minus the rest
    size = bits * h
    low = prod & ((1 << size) - 1)
    high = prod >> size
    if low >= 1 << (size - 1):
        low -= 1 << size
        high += 1
    folded = low - high + offset
    if code is None:
        raw = folded.to_bytes(width * h, "little")
        return [int.from_bytes(raw[i:i + width], "little") - half
                for i in range(0, width * h, width)]
    buf = array(code, (folded ^ offset).to_bytes(width * h, "little"))
    if _SWAP:
        buf.byteswap()
    return buf.tolist()

"""Integer substrate: factorization, (Z/mZ)* structure, Kronecker symbols.

All rational arithmetic in the package uses `fractions.Fraction`, re-exported
here as `Rational`; it is exact and always stored in lowest terms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeBoundExceeded, InternalInconsistency, PreconditionViolated

Rational = Fraction


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1 as [(p, e), ...], p increasing."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """The Moebius function: 0 unless n is squarefree, else (-1)^(number of
    prime factors)."""
    parts = factorize(n)
    return 0 if any(e > 1 for _, e in parts) else (-1) ** len(parts)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


@lru_cache(maxsize=None)
def is_fundamental_discriminant(d: int) -> bool:
    """Memoized for the life of the process: the V4 path asks again for
    discriminants it has already checked."""
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and is_squarefree(q)
    return False


def multiplicative_order(a: int, m: int) -> int:
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} not invertible mod {m}")
    order = euler_phi(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


@lru_cache(maxsize=None)
def smallest_primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q."""
    phi = euler_phi(q)
    for g in range(2, q):
        if math.gcd(g, q) == 1 and multiplicative_order(g, q) == phi:
            return g
    raise ValueError(f"no primitive root mod {q}")


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i mod m_i for pairwise coprime moduli."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g, inv, _ = _xgcd(m, mi)
        if g != 1:
            raise PreconditionViolated(f"moduli {moduli} are not pairwise coprime")
        x = (x + (r - x) * inv % mi * m) % (m * mi)
        m *= mi
    return x


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with a*u + b*v = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # pull out factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (a/n) for odd n > 0
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def subgroup(orders, gens, max_size=None) -> set[tuple[int, ...]]:
    """The subgroup of Z/o_1 x ... x Z/o_r generated by exponent vectors.

    Closes by cosets: H + <g> is the union of the cosets k g + H, up to the
    first multiple k g already in H.  Raises DegreeBoundExceeded as soon as
    the group would grow past max_size.
    """
    group = {(0,) * len(orders)}
    for g in gens:
        g = tuple(x % o for x, o in zip(g, orders))
        base, power = list(group), g
        while power not in group:
            if max_size is not None and len(group) + len(base) > max_size:
                raise DegreeBoundExceeded(f"degree exceeds bound {max_size}")
            group.update(tuple((x + y) % o for x, y, o in zip(power, h, orders))
                         for h in base)
            power = tuple((x + y) % o for x, y, o in zip(power, g, orders))
    return group


class UnitGroupStructure(
        namedtuple("UnitGroupStructure", "modulus generators orders blocks")):
    """Canonical generators of (Z/mZ)* with their orders.

    Every residue coprime to m is uniquely a product of generator powers
    with exponents reduced modulo the orders.  `blocks[i]` records the
    prime-power part of m that generator i came from.  The last three
    fields are tuples of int.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def unit_group(m: int) -> UnitGroupStructure:
    """Structure of (Z/mZ)* over frozen canonical generators.

    For an odd prime power p^k: the smallest primitive root mod p^k.
    For 2: trivial; for 4: the residue 3; for 2^k, k >= 3: (-1 mod 2^k, 5).
    Composite m: CRT lifts, generator lists concatenated in increasing
    prime order.  The choice is frozen so character encodings are stable.
    """
    if m < 1:
        raise ValueError(f"unit_group requires m >= 1, got {m}")
    parts = factorize(m)
    gens: list[int] = []
    orders: list[int] = []
    blocks: list[int] = []
    for p, e in parts:
        q = p**e
        if p == 2:
            if e == 1:
                local: list[tuple[int, int]] = []
            elif e == 2:
                local = [(3, 2)]
            else:
                local = [(q - 1, 2), (5, 2 ** (e - 2))]
        else:
            local = [(smallest_primitive_root(q), euler_phi(q))]
        for g, order in local:
            # lift to a residue mod m that is g mod q and 1 mod m/q
            lifted = crt([g, 1], [q, m // q]) if m != q else g
            gens.append(lifted)
            orders.append(order)
            blocks.append(q)
    return UnitGroupStructure(m, tuple(gens), tuple(orders), tuple(blocks))


@lru_cache(maxsize=None)
def discrete_log_table(m: int) -> dict[int, tuple[int, ...]]:
    """Map each residue coprime to m to its exponent vector on the canonical
    generators.  Built once per modulus; idempotent, safe to rebuild."""
    ug = unit_group(m)
    table = {1 % m: (0,) * len(ug.generators)}
    # enumerate all exponent vectors by one generator at a time
    for i, (g, order) in enumerate(zip(ug.generators, ug.orders)):
        current = list(table.items())
        acc = 1
        for k in range(1, order):
            acc = acc * g % m
            for res, vec in current:
                new = list(vec)
                new[i] = k
                table[res * acc % m] = tuple(new)
    if len(table) != euler_phi(m):
        raise InternalInconsistency(
            f"{len(table)} discrete logs mod {m}, expected {euler_phi(m)}")
    return table

"""General ideal and CRT arithmetic: the test oracle for the special cases
the package computes in closed form.

`quadratic.ideal_sqrt_of_element` writes the square root of (n) down as
the product of the ramified primes above the p with v_p(n) odd; the tests
build that product here with `ideal_mul`, a general ideal product through
a two-column Hermite form.  `arith.unit_group` lifts each generator from
its prime-power block by one modular inverse; `crt` is the general lift it
is checked against.
"""

import math

from cmfields.errors import InternalInconsistency, PreconditionViolated
from cmfields.quadratic import QuadIdeal


def unit_ideal(D: int) -> QuadIdeal:
    return QuadIdeal(D, 1, D % 2)


def normalized(I: QuadIdeal) -> QuadIdeal:
    """I with b taken into [0, 2a)."""
    return QuadIdeal(I.D, I.a, I.b % (2 * I.a))


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

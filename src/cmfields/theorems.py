"""Verification harness: the divisibility statements, the V4 class number
identity, the two-prime factorization of h-, and the explicit
non-divisibility counterexample families, each as an executable check
returning a CheckReport with all exact intermediate values.

No tolerances anywhere: every comparison is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from .arith import (divisors, factorize, is_fundamental_discriminant,
                    require_fundamental_discriminant, subgroup, unit_group)
from .characters import DirichletCharacter, principal_character
from .errors import (
    EvenIndex,
    InternalInconsistency,
    NotPrimePowerConductors,
    NotSubfield,
    NotV4CM,
    PreconditionViolated,
)
from .fields import (
    AbelianField,
    DEFAULT_MAX_DEGREE,
    cyclotomic_field,
    field_from_generators,
    quadratic_field,
)
from .hminus import minus_class_number, minus_partial_product
from .quadratic import class_number, is_principal, split_prime, SplitType
from .unitindex import hasse_unit_index


class CheckReport:
    """One check's inputs, exact quantities and verdict; vacuous when the
    instance falls outside the statement's hypotheses."""

    __slots__ = ("name", "inputs", "quantities", "verdict", "vacuous", "statement")

    def __init__(self, name: str, inputs: dict, quantities: dict | None = None,
                 verdict: bool = False, vacuous: bool = False, statement: str = ""):
        self.name = name
        self.inputs = inputs
        self.quantities = {} if quantities is None else quantities
        self.verdict = verdict
        self.vacuous = vacuous
        self.statement = statement

    def __eq__(self, other):
        return type(other) is CheckReport and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def summary(self) -> str:
        status = "vacuous" if self.vacuous else ("pass" if self.verdict else "FAIL")
        qs = ", ".join(f"{k}={v}" for k, v in self.quantities.items())
        return f"[{status}] {self.name} {self.inputs}: {qs}"


# --------------------------------------------------------------------------
# divisibility h-(m) | h-(mn) for cyclotomic fields


def _hminus_cyclotomic(m: int, max_degree: int = DEFAULT_MAX_DEGREE) -> int:
    K = cyclotomic_field(m, max_degree=max_degree)
    if not K.is_cm():
        return 1  # K = Q
    return minus_class_number(K).h_minus


def check_masley(m: int, n: int, max_degree: int = DEFAULT_MAX_DEGREE) -> CheckReport:
    """h-(Q(zeta_m)) divides h-(Q(zeta_mn))."""
    h_small = _hminus_cyclotomic(m, max_degree)
    h_big = _hminus_cyclotomic(m * n, max_degree)
    return CheckReport(
        name="masley",
        inputs={"m": m, "n": n},
        quantities={"h_minus_small": h_small, "h_minus_big": h_big},
        verdict=h_big % h_small == 0,
        statement="minus class number divisibility along cyclotomic towers",
    )


def check_odd_degree(K: AbelianField, L: AbelianField) -> CheckReport:
    """h-(K) | h-(L) for CM K inside CM L of odd relative degree.  The
    p-part containment for primes p not dividing the relative degree
    follows: p^v_p(h-(K)) divides h-(K), hence h-(L)."""
    if not K.is_subfield_of(L):
        raise NotSubfield(f"{K!r} is not contained in {L!r}")
    index = L.degree // K.degree
    if index % 2 == 0:
        raise EvenIndex(f"relative degree {index} is even")
    h_k = minus_class_number(K).h_minus
    h_l = minus_class_number(L).h_minus
    return CheckReport(
        name="odd_degree_divisibility",
        inputs={"K": repr(K), "L": repr(L), "index": index},
        quantities={"h_minus_K": h_k, "h_minus_L": h_l},
        verdict=h_l % h_k == 0,
        statement="minus class number divisibility for odd relative degree",
    )


# --------------------------------------------------------------------------
# V4 identity


def check_v4(d1: int, d2: int, max_degree: int = DEFAULT_MAX_DEGREE) -> CheckReport:
    """Both sides of the biquadratic identity
    h-(L) = (Q(L)/(Q1 Q2)) (w_L/(w1 w2)) h-(K1) h-(K2)
    for L = Q(sqrt(d1), sqrt(d2)) with two imaginary quadratic subfields."""
    for d in (d1, d2):
        require_fundamental_discriminant(d)
    if not (d1 < 0 and d2 < 0 and d1 != d2):
        raise NotV4CM("need two distinct negative fundamental discriminants")
    K1, K2 = quadratic_field(d1), quadratic_field(d2)
    L = K1.compositum(K2, max_degree)
    if L.degree != 4:
        raise InternalInconsistency(f"Q(sqrt {d1}, sqrt {d2}) has degree {L.degree}")
    report = minus_class_number(L)
    h1 = class_number(d1)
    h2 = class_number(d2)
    rhs = Fraction(report.q * report.w * h1 * h2,
                   K1.roots_of_unity_order() * K2.roots_of_unity_order())
    return CheckReport(
        name="v4_identity",
        inputs={"d1": d1, "d2": d2},
        quantities={
            "h_minus_L": report.h_minus,
            "Q_L": report.q,
            "w_L": report.w,
            "h1": h1,
            "h2": h2,
            "rhs": rhs,
        },
        verdict=rhs == report.h_minus,
        statement="biquadratic minus class number identity",
    )


def derived_kuroda_q(d1: int, d2: int) -> Fraction:
    """The (2,2)-extension unit index q(L) = 2 Q(L) w_L / (Q1 Q2 w1 w2)
    over the rational base field, reported as a derived value and
    checked to lie in {1, 2, 4}."""
    for d in (d1, d2):
        require_fundamental_discriminant(d)
    if not (d1 < 0 and d2 < 0 or (d1 < 0 < d2) or (d2 < 0 < d1)):
        raise NotV4CM("need at least one imaginary quadratic subfield")
    L = quadratic_field(d1).compositum(quadratic_field(d2))
    discs = L.quadratic_subfield_discriminants()
    imag = [d for d in discs if d < 0]
    if len(imag) != 2:
        raise NotV4CM("need exactly two imaginary quadratic subfields")
    verdict = hasse_unit_index(L)
    w_l = L.roots_of_unity_order()
    w1, w2 = (quadratic_field(d).roots_of_unity_order() for d in imag)
    q = Fraction(2 * verdict.q * w_l, w1 * w2)
    if q not in (1, 2, 4):
        raise InternalInconsistency(f"q(L) = {q} outside the (2,2) unit index range")
    return q


# --------------------------------------------------------------------------
# two-prime factorization of h-


def _prime_power_conductor_prime(K: AbelianField) -> int:
    parts = factorize(K.conductor)
    if len(parts) != 1:
        raise NotPrimePowerConductors(f"conductor {K.conductor} is not a prime power")
    return parts[0][0]


def check_metsankyla(
    L1: AbelianField, L2: AbelianField, max_degree: int = DEFAULT_MAX_DEGREE
) -> CheckReport:
    """h-(L1 L2) = h-(L1) h-(L2) T1 T2 with integer correction factors
    T1 = h-(L1 L2+)/h-(L1), T2 = h-(L2 L1+)/h-(L2), for CM fields of
    coprime prime-power conductors; T1 is also recomputed as the partial
    product over the odd characters new to L1 L2+."""
    p = _prime_power_conductor_prime(L1)
    q = _prime_power_conductor_prime(L2)
    if p == q:
        raise NotPrimePowerConductors("conductors share their prime")
    L = L1.compositum(L2, max_degree=max_degree)
    K1 = L1.compositum(L2.maximal_real_subfield(), max_degree=max_degree)
    K2 = L2.compositum(L1.maximal_real_subfield(), max_degree=max_degree)
    h = minus_class_number(L).h_minus
    h1 = minus_class_number(L1).h_minus
    h2 = minus_class_number(L2).h_minus
    hk1 = minus_class_number(K1).h_minus
    hk2 = minus_class_number(K2).h_minus
    t1 = Fraction(hk1, h1)
    t2 = Fraction(hk2, h2)
    integral = t1.denominator == 1 and t2.denominator == 1
    product_ok = h == h1 * h2 * t1 * t2
    # character-sum identification: T1 as a partial product over the odd
    # characters of L1 L2+ that do not come from L1
    new_odd = [c for c in K1.odd_characters() if not L1.contains_character(c)]
    t1_sum = minus_partial_product(new_odd)
    return CheckReport(
        name="metsankyla_factorization",
        inputs={"L1": repr(L1), "L2": repr(L2)},
        quantities={
            "h_minus_L": h,
            "h_minus_L1": h1,
            "h_minus_L2": h2,
            "T1": t1,
            "T2": t2,
            "T1_character_sum": t1_sum,
        },
        verdict=integral and product_ok and t1 == t1_sum,
        statement="two-prime factorization of the minus class number",
    )


# --------------------------------------------------------------------------
# counterexample families


def check_counterexample(
    family: int, max_degree: int = DEFAULT_MAX_DEGREE, **params
) -> CheckReport:
    """Families where h-(K) does not divide h-(L) for K inside L.

    family 1: K = Q(sqrt(d1 d2)), L = Q(sqrt(d1), sqrt(d2)) with d1 a
    negative prime discriminant and d2 > 0 coprime to it.
    family 2: d2 = 8m for odd m with the ramified prime above 2 of
    Q(sqrt(2m)) non-principal; K = Q(sqrt(-2m)), L = Q(i, sqrt(2m)).
    """
    vacuous = False
    if family == 1:
        d1, d2 = params["d1"], params["d2"]
        if d1 not in (-4, -8) and not (
            d1 < 0 and is_fundamental_discriminant(d1) and (-d1) % 4 == 3
            and len(factorize(-d1)) == 1
        ):
            raise PreconditionViolated(f"d1={d1} is not a negative prime discriminant")
        if not (d2 > 0 and is_fundamental_discriminant(d2) and math.gcd(d1, d2) == 1):
            raise PreconditionViolated(f"d2={d2} invalid for family 1")
    elif family == 2:
        m = params["m"]
        if m < 1:
            raise PreconditionViolated("family 2 needs m >= 1")
        # K = Q(sqrt(-2m)), L = Q(i, sqrt(2m)); normalize to the
        # fundamental discriminant of Q(sqrt(2m))
        d1 = -4
        d2 = _fundamental_part(2 * m)
        if d2 == 1:
            raise PreconditionViolated(f"2m = {2 * m} is a square")
        typ, t_ideal = split_prime(d2, 2)
        # the stated sufficient condition: 2 ramified with non-principal
        # ramified prime; failing it makes the instance vacuous for the
        # theorem even when non-divisibility happens to hold anyway
        vacuous = typ != SplitType.RAMIFIED or is_principal(t_ideal)
    else:
        raise ValueError(f"unknown family {family}")

    dk = _fundamental_part(d1 * d2)
    K = quadratic_field(dk)
    L = quadratic_field(d1).compositum(quadratic_field(d2), max_degree)
    h_k = minus_class_number(K).h_minus
    h_l = minus_class_number(L).h_minus
    return CheckReport(
        name=f"counterexample_family{family}",
        inputs=dict(params),
        quantities={"d_K": dk, "h_minus_K": h_k, "h_minus_L": h_l},
        verdict=h_l % h_k != 0,
        vacuous=vacuous,
        statement="h-(K) does not divide h-(L)",
    )


def _fundamental_part(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d))."""
    if d == 0:
        raise PreconditionViolated("Q(sqrt 0) is not a field")
    core = 1
    for p, e in factorize(abs(d)):
        if e % 2:
            core *= p
    if d < 0:
        core = -core
    return core if core % 4 == 1 else 4 * core


# --------------------------------------------------------------------------
# sweeps


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, hi + 1) if is_fundamental_discriminant(d)]


def sweep_masley(
    max_modulus: int = 60, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[CheckReport]:
    reports = []
    for big in range(1, max_modulus + 1):
        if big % 4 == 2:
            continue
        for small in range(1, big + 1):
            if big % small or small % 4 == 2:
                continue
            reports.append(check_masley(small, big // small, max_degree))
    return reports


def sweep_v4(
    max_product: int = 2000, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[CheckReport]:
    reports = []
    negatives = sorted(fundamental_discriminants(-max_product, -3), key=abs)
    for i, d1 in enumerate(negatives):
        for d2 in negatives[i + 1:]:
            if abs(d1 * d2) > max_product:
                break
            if math.gcd(d1, d2) != 1:
                continue
            reports.append(check_v4(d1, d2, max_degree))
    return reports


def _subgroups(orders: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Every subgroup of Z/o_1 x ... x Z/o_r exactly once, each as at most r
    generators (exponent vectors).

    A subgroup H of A x Z/o, A the first r - 1 factors, projects onto <d>
    for a divisor d of o, and K = H meet A is a subgroup of A.  Then
    H = K + <(a, d)> with a fixed mod K and (o/d) a in K, and every such
    triple (K, d, a + K) gives one H.  So a cyclic group has one subgroup
    <d> per divisor d of its order, and Z/2 x Z/2^j (powers of 2) has 3j + 2
    subgroups, none needing more than two generators.
    """
    if not orders:
        return [[]]
    rest, o = orders[:-1], orders[-1]
    out = []
    for gens in _subgroups(rest):
        kernel = subgroup(rest, gens)
        cosets = {min(tuple((x + y) % n for x, y, n in zip(a, k, rest))
                      for k in kernel)
                  for a in itertools.product(*map(range, rest))}
        lifted = [g + (0,) for g in gens]
        for d in divisors(o):
            for a in sorted(cosets):
                if tuple(x * (o // d) % n for x, n in zip(a, rest)) in kernel:
                    out.append(lifted + [a + (d % o,)])
    return out


def _subfields(modulus: int, max_degree: int = DEFAULT_MAX_DEGREE):
    """All subfields of Q(zeta_modulus), one per subgroup of its character
    group (`_subgroups` over the orders of the canonical generators)."""
    return [
        field_from_generators(
            [DirichletCharacter(modulus, g) for g in gens]
            or [principal_character(modulus)], max_degree)
        for gens in _subgroups(unit_group(modulus).orders)
    ]


def _cm_subfields(modulus: int, max_degree: int = DEFAULT_MAX_DEGREE):
    """All CM subfields of Q(zeta_modulus)."""
    return [f for f in _subfields(modulus, max_degree) if f.is_cm()]


# The largest compositum degree that sweep_metsankyla checks.
METSANKYLA_MAX_COMPOSITUM = 48


def sweep_metsankyla(
    max_conductor: int = 32, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[CheckReport]:
    """All pairs of CM fields of distinct prime-power conductors up to the
    bound whose compositum degree stays within METSANKYLA_MAX_COMPOSITUM.
    A field of degree above max_degree raises DegreeBoundExceeded."""
    prime_powers = [
        n for n in range(3, max_conductor + 1) if len(factorize(n)) == 1 and n % 2 != 0
    ] + [2**k for k in range(2, max_conductor.bit_length()) if 2**k <= max_conductor]
    candidates = []
    for n in sorted(prime_powers):
        candidates.extend(_cm_subfields(n, max_degree))
    # dedupe: subfields of zeta_p^k recur under larger powers
    unique = sorted(set(candidates), key=lambda f: (f.conductor, f.degree))
    reports = []
    for i, l1 in enumerate(unique):
        for l2 in unique[i + 1 :]:
            p = factorize(l1.conductor)[0][0]
            q = factorize(l2.conductor)[0][0]
            if p == q or l1.degree * l2.degree > METSANKYLA_MAX_COMPOSITUM:
                continue
            reports.append(check_metsankyla(l1, l2, max_degree=max_degree))
    return reports


def sweep_counterexample_family1(
    max_d2: int = 200, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[CheckReport]:
    """d1 = -4 against all coprime real fundamental d2 <= bound with even
    h(d1 d2); non-divisibility is predicted in every such case."""
    reports = []
    for d2 in fundamental_discriminants(2, max_d2):
        if math.gcd(4, d2) != 1:
            continue
        if class_number(_fundamental_part(-4 * d2)) % 2:
            continue
        reports.append(check_counterexample(1, max_degree, d1=-4, d2=d2))
    return reports

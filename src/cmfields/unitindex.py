"""Decision engine for Hasse's unit index Q(K) in {1, 2} and the order of
the capitulation kernel for the supported classes of abelian CM-fields.

Q(zeta_m) is answered in closed form from the primes dividing m (see
`_cyclotomic_verdict`), with no subfield built.  Every other field goes
through the cascade, which runs first-match-wins after reducing to the
subfield of 2-power degree (the unit index is invariant under odd-degree
reduction).
A decomposable field is decided by how many of its prime-power
components are imaginary, read off the field's own characters (a
component is imaginary when one of its characters is odd); a
biquadratic one, of degree 4 and exponent 2, by principality in its real
quadratic subfield.  A direct product answers the 2-primary subfield,
the decomposition, the exponent, the quadratic subfields and w from its
two factors, and builds no character for the cascade.
Fields outside the supported classes raise UnsupportedField; callers may
re-invoke with an explicit override.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import euler_phi, factorize, is_prime
from .errors import InternalInconsistency, PreconditionViolated, UnsupportedField
from .fields import DEFAULT_MAX_DEGREE, AbelianField, quadratic_field, require_cm
from .quadratic import (
    SplitType,
    fundamental_unit_norm,
    ideal_sqrt_of_element,
    is_principal,
    split_prime,
)

RULE_OVERRIDE = "user-override"
RULE_IMAG_QUADRATIC = "imaginary-quadratic"
RULE_CYC_PRIME_POWER = "cyclotomic-prime-power"
RULE_CYC_COMPOSITE = "cyclotomic-composite"
RULE_PRIME_POWER_CONDUCTOR = "prime-power-conductor"
RULE_ONE_IMAGINARY = "decomposable-one-imaginary"
RULE_TWO_IMAGINARY = "decomposable-two-imaginary"
RULE_ESS_RAMIFIED = "essentially-ramified"
RULE_SQRT_PRINCIPAL = "sqrt-ideal-principal"
RULE_SQRT_NONPRINCIPAL = "sqrt-ideal-nonprincipal"
RULE_TWO_NOT_SQUARE = "norm2-not-ideal-square"
RULE_TWO_SQUARE_PRINCIPAL = "norm2-square-principal"
RULE_TWO_SQUARE_NONPRINCIPAL = "norm2-square-nonprincipal"


class UnitIndexVerdict(namedtuple("UnitIndexVerdict", "q kappa_order rule")):
    """Hasse unit index q (1 or 2), the order of the capitulation kernel
    (1 or 2; None if unknown) and the cascade rule that decided them."""

    __slots__ = ()

    def __new__(cls, q: int, kappa_order: int | None, rule: str):
        # Q = 2 forces trivial capitulation
        if q not in (1, 2) or (q == 2 and kappa_order != 1):
            raise InternalInconsistency(
                f"unit index {q} with capitulation kernel {kappa_order}")
        return super().__new__(cls, q, kappa_order, rule)

    # _replace builds through _make, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))


def _is_full_cyclotomic(K: AbelianField) -> bool:
    return K.degree == euler_phi(K.conductor)


def _is_prime_power(n: int) -> bool:
    return len(factorize(n)) == 1


def hasse_unit_index(
    K: AbelianField, override: int | None = None
) -> UnitIndexVerdict:
    """Unit index and capitulation-kernel order of a supported CM-field."""
    require_cm(K)
    if override is not None:
        if override not in (1, 2):
            raise PreconditionViolated(
                f"unit index override must be 1 or 2, got {override}")
        return UnitIndexVerdict(override, 1 if override == 2 else None, RULE_OVERRIDE)
    if K._zeta:
        return _cyclotomic_verdict(K.modulus)

    # reduction to the 2-power-degree subfield: odd relative degree does
    # not change the unit index
    K = K.two_primary_subfield()
    if not K.is_cm():
        raise InternalInconsistency(f"2-primary subfield {K!r} is not CM")

    if K.degree == 2:
        return UnitIndexVerdict(1, 1, RULE_IMAG_QUADRATIC)

    if _is_full_cyclotomic(K):
        if _is_prime_power(K.conductor):
            return UnitIndexVerdict(1, 1, RULE_CYC_PRIME_POWER)
        return UnitIndexVerdict(2, 1, RULE_CYC_COMPOSITE)

    if _is_prime_power(K.conductor):
        return UnitIndexVerdict(1, 1, RULE_PRIME_POWER_CONDUCTOR)

    components = K.prime_power_decomposition()
    if components is not None:
        imaginary = sum(any(c.is_odd() for c in comp) for comp in components)
        if imaginary == 0:
            raise InternalInconsistency("CM field with no CM component")
        if imaginary == 1:
            return UnitIndexVerdict(1, 1, RULE_ONE_IMAGINARY)
        return UnitIndexVerdict(2, 1, RULE_TWO_IMAGINARY)

    if K.degree == 4 and K.exponent() <= 2:
        return _biquadratic_verdict(K)

    raise UnsupportedField(
        f"no unit-index rule for field of conductor {K.conductor}, "
        f"degree {K.degree}"
    )


def _cyclotomic_verdict(m: int) -> UnitIndexVerdict:
    """The cascade's verdict on Q(zeta_m), m >= 3 and m != 2 mod 4, read off
    the primes dividing m.

    The 2-primary subfield is the compositum over p^k || m of the 2-Sylow
    subfield of Q(zeta_(p^k)): Q(zeta_(2^k)) itself, and for odd p the
    subfield of degree 2^v_2(p - 1) and conductor p, which is CM and is all
    of Q(zeta_p) exactly when p is a Fermat prime.  So with 2 || phi(m) it
    is imaginary quadratic; else it is full cyclotomic when every odd p | m
    is a Fermat prime, and otherwise of prime-power conductor for one prime
    and decomposable with every component imaginary for more.  Q is 2
    exactly when more than one prime divides m."""
    if euler_phi(m) % 4 == 2:
        return UnitIndexVerdict(1, 1, RULE_IMAG_QUADRATIC)
    primes = [p for p, _ in factorize(m)]
    # p - 1 a power of 2: p = 2 or a Fermat prime
    fermat = all((p - 1) & (p - 2) == 0 for p in primes)
    if len(primes) == 1:
        rule = RULE_CYC_PRIME_POWER if fermat else RULE_PRIME_POWER_CONDUCTOR
        return UnitIndexVerdict(1, 1, rule)
    return UnitIndexVerdict(2, 1, RULE_CYC_COMPOSITE if fermat else RULE_TWO_IMAGINARY)


def biquadratic_verdict(K: AbelianField) -> UnitIndexVerdict:
    """Direct decision for a biquadratic CM-field from the quadratic
    splitting/principality oracles, bypassing the earlier cascade rules.

    Exposed so decomposable biquadratic fields can be cross-checked
    against the cascade verdict (both routes must agree on Q)."""
    require_cm(K)
    if K.degree != 4 or K.exponent() > 2:
        raise PreconditionViolated(f"{K!r} is not biquadratic")
    return _biquadratic_verdict(K)


def _biquadratic_verdict(K: AbelianField) -> UnitIndexVerdict:
    discs = K.quadratic_subfield_discriminants()
    real = [d for d in discs if d > 0]
    imag = [d for d in discs if d < 0]
    if len(real) != 1 or len(imag) != 2:
        raise InternalInconsistency(
            f"biquadratic CM field with quadratic subfields {discs}")
    D = real[0]  # discriminant of the maximal real subfield
    w = K.roots_of_unity_order()
    # w in 8Z would force a full cyclotomic field, caught earlier
    if w not in (2, 4, 6):
        raise InternalInconsistency(f"unexpected root-of-unity order {w}")

    if w % 4 == 2:
        # K = K+(sqrt(d1)) for the odd quadratic discriminant of smallest
        # conductor; any choice gives the same answer (tested)
        d1 = imag[0]
        sqrt_ideal = ideal_sqrt_of_element(D, d1)
        if sqrt_ideal is None:
            return UnitIndexVerdict(1, 1, RULE_ESS_RAMIFIED)
        if is_principal(sqrt_ideal):
            return UnitIndexVerdict(2, 1, RULE_SQRT_PRINCIPAL)
        return UnitIndexVerdict(1, 2, RULE_SQRT_NONPRINCIPAL)

    # w = 4: sqrt(-1) in K; decide by whether (2) is an ideal square in K+
    typ, ideal = split_prime(D, 2)
    if typ != SplitType.RAMIFIED:
        return UnitIndexVerdict(1, 1, RULE_TWO_NOT_SQUARE)
    if is_principal(ideal):
        return UnitIndexVerdict(2, 1, RULE_TWO_SQUARE_PRINCIPAL)
    return UnitIndexVerdict(1, 2, RULE_TWO_SQUARE_NONPRINCIPAL)


class MartinetReport(
        namedtuple("MartinetReport", "p unit_norm q_biquadratic q_octic")):
    """unit_norm is the norm of the fundamental unit of Q(sqrt(2p)); when it
    is +1, q_biquadratic and q_octic are Q of Q(i, sqrt(2p)) and of
    Q(i, sqrt(2), sqrt(p)), else None."""

    __slots__ = ()


def martinet_pair(p: int, max_degree: int = DEFAULT_MAX_DEGREE) -> MartinetReport:
    """For p = 1 mod 8 with fundamental unit of Q(sqrt(2p)) of norm +1,
    the pair Q(i, sqrt(2p)) / Q(i, sqrt(2), sqrt(p)) has unit indices 2/1."""
    if not (is_prime(p) and p % 8 == 1):
        raise PreconditionViolated(f"{p} is not a prime = 1 mod 8")
    norm = fundamental_unit_norm(8 * p)
    if norm != 1:
        return MartinetReport(p, norm, None, None)
    K = quadratic_field(-4).compositum(quadratic_field(8 * p), max_degree)
    L = quadratic_field(-4).compositum(quadratic_field(8), max_degree).compositum(
        quadratic_field(p), max_degree)
    vk = hasse_unit_index(K)
    vl = hasse_unit_index(L)
    if vk.q != 2 or vl.q != 1:
        raise InternalInconsistency(
            f"Martinet pair for p = {p} has unit indices {vk.q}/{vl.q}, not 2/1")
    return MartinetReport(p, norm, vk.q, vl.q)

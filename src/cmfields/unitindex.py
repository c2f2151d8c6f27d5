"""Decision engine for Hasse's unit index Q(K) in {1, 2} and the order of
the capitulation kernel for the supported classes of abelian CM-fields.

The cascade runs first-match-wins after reducing to the subfield of
2-power degree (the unit index is invariant under odd-degree reduction).
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
        imaginary = sum(1 for comp in components if comp.is_cm())
        if imaginary == 0:
            raise InternalInconsistency("CM field with no CM component")
        if imaginary == 1:
            return UnitIndexVerdict(1, 1, RULE_ONE_IMAGINARY)
        return UnitIndexVerdict(2, 1, RULE_TWO_IMAGINARY)

    if K.degree == 4 and all(c.order <= 2 for c in K.chars):
        return _biquadratic_verdict(K)

    raise UnsupportedField(
        f"no unit-index rule for field of conductor {K.conductor}, "
        f"degree {K.degree}"
    )


def biquadratic_verdict(K: AbelianField) -> UnitIndexVerdict:
    """Direct decision for a biquadratic CM-field from the quadratic
    splitting/principality oracles, bypassing the earlier cascade rules.

    Exposed so decomposable biquadratic fields can be cross-checked
    against the cascade verdict (both routes must agree on Q)."""
    require_cm(K)
    if K.degree != 4 or any(c.order > 2 for c in K.chars):
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

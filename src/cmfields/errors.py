"""Exception hierarchy shared by all modules."""


class CMFieldsError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(CMFieldsError):
    pass


class InternalInconsistency(CMFieldsError):
    """An exact identity that must hold by theory failed; indicates a bug."""


class LengthMismatch(CMFieldsError):
    pass


class NotClosed(CMFieldsError):
    """A character set that must be closed (under the group law or under
    Galois conjugation) is not."""


class DegreeBoundExceeded(CMFieldsError):
    pass


class NotFundamentalDiscriminant(CMFieldsError):
    pass


class NotCMField(CMFieldsError):
    pass


class EvenCharacter(CMFieldsError):
    pass


class PrincipalCharacter(CMFieldsError):
    pass


class UnsupportedField(CMFieldsError):
    """The unit-index rule engine has no rule for this field; callers may
    retry with an explicit override."""


class NonIntegralResult(InternalInconsistency):
    """The class number formula produced a non-integer; must abort loudly."""


class NotSubfield(CMFieldsError):
    pass


class EvenIndex(CMFieldsError):
    pass


class NotV4CM(CMFieldsError):
    pass


class NotPrimePowerConductors(CMFieldsError):
    pass


class PreconditionViolated(CMFieldsError):
    pass


class ParseError(CMFieldsError):
    def __init__(self, text: str, offset: int, expected: str):
        self.text = text
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected} in {text!r}")

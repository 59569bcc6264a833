"""Exception types shared across the package, and the base of the records
whose construction raises them.

Every error that carries mathematical meaning (as opposed to plain misuse)
gets its own class, so callers can branch on "q does not divide p" versus
"you passed polynomials from different rings".
"""


class Validated:
    """Mixin for a NamedTuple record whose `__new__` checks its fields:
    `_make`, and so `_replace`, build through `__new__` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class LndError(Exception):
    """Base class for all package errors."""


class RingMismatchError(LndError):
    """Operands live over different variable lists."""


class NonDivisibleError(LndError):
    """Exact division failed; the quotient does not exist in the ring.

    This is a meaningful signal (e.g. an automorphism is not a modification),
    not merely an input error.
    """


class MissingImageError(LndError):
    """A substitution map lacks an image for a variable that occurs."""


class NotLocallyNilpotentError(LndError):
    """A nilpotency certificate was required, but its series hit a bound."""


class NotUnipotentError(LndError):
    """The logarithm series hit a bound, or its round trip failed."""


class NotInKernelError(LndError):
    """A polynomial was required to be annihilated by a derivation but is not."""


class NotInNError(LndError):
    """An automorphism failed the membership test for the unipotent subgroup N."""


class SearchExhaustedError(LndError):
    """A bounded linear-algebra search found no solution within its bound."""


class VerificationError(LndError):
    """An internal consistency check that should always hold has failed."""


class ContextError(LndError):
    """A plinth-family context could not be constructed or validated."""


class LawHypothesisError(LndError):
    """A group law violates the hypotheses needed by the presentation lemma."""


class NotInvertibleError(LndError):
    """No inverse could be produced (not unipotent, not affine, no witness)."""


class ParseError(LndError):
    """Syntax or name-resolution error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

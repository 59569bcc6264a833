"""Exception types shared across the package, and the base of the records
whose construction raises them.

A failure raises LndError with a message that names the failed condition;
the runner reports that message as the directive's ERROR line.  A subclass
exists only where code catches it by name or where it carries fields.
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


class NonDivisibleError(LndError):
    """Exact division failed; the quotient does not exist in the ring.

    This is a meaningful signal (e.g. an automorphism is not a modification),
    not merely an input error.
    """


class NotLocallyNilpotentError(LndError):
    """A nilpotency certificate was required, but its series hit a bound."""


class ParseError(LndError):
    """Syntax or name-resolution error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

"""Typed errors shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(AlgebraError):
    """Operands belong to different rings."""


class NotPrimeError(AlgebraError):
    """Declared characteristic is not a prime number."""


class FrobeniusPowerError(AlgebraError):
    """q is not a power of the ring characteristic."""


class HomogeneityError(AlgebraError):
    """A polynomial that must be homogeneous is not."""


class UnitRelationError(AlgebraError):
    """A quotient relation is a nonzero constant, so the ring would be zero."""


class ContainmentError(AlgebraError):
    """Expected ideal containment does not hold."""


class InfiniteLengthError(AlgebraError):
    """A finite length was required but the quotient has positive dimension."""


class PreconditionError(AlgebraError):
    """An operation's input contract is violated."""


class ResourceLimitError(AlgebraError):
    """A configured step/size budget was exceeded; no partial answer is returned."""


class ScriptError(AlgebraError):
    """Session-script parse or validation error with source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column

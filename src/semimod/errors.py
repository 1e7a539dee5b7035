"""Exception hierarchy shared by every module.

Each class carries a stable ``code`` string; the CLI puts that code into
machine-readable error reports.
"""


class SemimodError(Exception):
    code = "Error"


class MismatchedFieldError(SemimodError):
    """Operands belong to different coefficient fields."""

    code = "MismatchedField"


class DivisionByZeroError(SemimodError):
    code = "DivisionByZero"


class InfiniteFieldError(SemimodError):
    """Enumeration was requested for a field with infinitely many elements."""

    code = "InfiniteField"


class MismatchedRingError(SemimodError):
    """Operands belong to different polynomial rings."""

    code = "MismatchedRing"


class DimensionMismatchError(SemimodError):
    """Operands have different ranks, or matrices different sizes, or a
    point or polynomial does not fit the ring's x-block."""

    code = "DimensionMismatch"


class ZeroCovectorError(SemimodError):
    code = "ZeroCovector"


class ResourceLimitExceededError(SemimodError):
    """A basis computation crossed its pair or degree cap, or a report
    would print a coefficient too long to print.

    This signals that the instance is beyond desk scale; it is never a
    wrong answer.
    """

    code = "ResourceLimitExceeded"


class EnumerationCapExceededError(SemimodError):
    code = "EnumerationCapExceeded"


class InvariantViolationError(SemimodError):
    """A soundness re-check failed: the program is wrong, not the input."""

    code = "InternalInvariant"


class ProblemSyntaxError(SemimodError):
    """Problem text failed to parse; carries the 1-based position."""

    code = "SyntaxError"

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UndefinedNameError(SemimodError):
    code = "UndefinedName"

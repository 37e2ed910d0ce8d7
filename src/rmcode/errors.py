"""Exception hierarchy shared by all rmcode modules."""


class RMCodeError(Exception):
    """Base class for all rmcode errors."""


class NonPrimeP(RMCodeError):
    pass


class ReducibleModulus(RMCodeError):
    pass


class NoModulusAvailable(RMCodeError):
    pass


class DivisionByZero(RMCodeError):
    pass


class FieldMismatch(RMCodeError):
    pass


class DimensionMismatch(RMCodeError):
    pass


class RingMismatch(RMCodeError):
    pass


class ZeroPoint(RMCodeError):
    pass


class DuplicatePoint(RMCodeError):
    pass


class TooFewPoints(RMCodeError):
    pass


class InternalInconsistency(RMCodeError):
    """A statement the engine is entitled to rely on failed at runtime.

    Raised only by bug traps: certified facts disagreeing with direct
    verification. Mapped to exit code 4 by the CLI.
    """


class BudgetExceeded(RMCodeError):
    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class Unsupported(RMCodeError):
    pass


class NotEssential(RMCodeError):
    pass


class ConditionFailed(RMCodeError):
    def __init__(self, which, message=""):
        super().__init__(message or f"condition ({which}) failed")
        self.which = which


class NotRegular(RMCodeError):
    pass


class IdentityViolated(InternalInconsistency):
    def __init__(self, which, message=""):
        super().__init__(message or f"identity ({which}) violated")
        self.which = which


class NotGorenstein(RMCodeError):
    pass


class ParseError(RMCodeError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvalidParams(RMCodeError):
    pass

"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A mechanism, sampler, or accountant was configured inconsistently."""


class LedgerUsageError(RuntimeError):
    """Ledger API called out of order (nested or dangling rounds)."""


class LedgerParseError(ValueError):
    """A serialized ledger could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InfiniteSensitivityError(ValueError):
    """A sum query with zero noise has unbounded effective sensitivity."""


class AccountingRefusal(RuntimeError):
    """The accountant refuses to emit a guarantee for this ledger."""


class InsecureLedgerError(AccountingRefusal):
    """The ledger contains rounds recorded with zero noise (test mode)."""


class SensitivityRangeError(AccountingRefusal):
    """No finite epsilon follows from the ledger's values: a round's
    equivalent sensitivity S* is not a positive finite float (S* = 0 for
    a round with no sum queries, or a nonzero sigma_sum so small that S*
    overflows to inf), or every order of the grid diverged."""


class UnsupportedPolicyError(AccountingRefusal):
    """The ledger contains rounds under a sampling policy without a
    supported privacy analysis."""


class CalibrationError(RuntimeError):
    """Binary-search calibration could not produce a knob value.

    ``bracket`` holds the (epsilon_at_lower, epsilon_at_upper) pair when the
    failure was an unbracketed target.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        self.bracket = bracket
        super().__init__(message)

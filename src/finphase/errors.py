"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`FinphaseError` so the CLI
can separate domain errors (exit 1) from usage errors (exit 2) and bugs.
A bad value (a config field or flag, an agent or sector a table lacks) is an
:class:`InvalidConfig` naming it, a bad input row (a sector listed twice) a
:class:`ParseError` with its line; no class stands for one parameter.
"""


class FinphaseError(Exception):
    """Base class for all domain errors raised by this package."""


# --- ledger ---------------------------------------------------------------

class InsufficientFunds(FinphaseError):
    """Deposit too small to cover the requested amount."""


class NoSuchDebt(FinphaseError):
    """Repayment larger than the outstanding debt."""


class MoneyOverflow(FinphaseError):
    """Result of a money operation left the signed 64-bit range."""


# --- preconditions and samples --------------------------------------------

class InvalidConfig(FinphaseError):
    """A configuration value or function parameter violates a documented
    precondition; the message names the parameter."""


class DegenerateSample(FinphaseError):
    """Sample carries no usable signal (e.g. all-zero wealth, an empty
    histogram, too few points)."""


# --- input files ----------------------------------------------------------

class ParseError(FinphaseError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line

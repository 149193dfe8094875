"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`FinphaseError` so the CLI
can separate domain errors (exit 1) from usage errors (exit 2) and bugs.
A bad value (a config field or flag, an agent or sector a table lacks) is an
:class:`InvalidConfig` naming it, a bad input row (a sector listed twice) a
:class:`ParseError` with its line; no class stands for one parameter.
A config dataclass declares each field's bound in the field's metadata
and checks them all with :func:`check_bounds` when it is built.
"""

import math
from dataclasses import fields


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


def check_bounds(config) -> None:
    """Raise InvalidConfig for the first non-finite float field of the
    dataclass ``config``, else for its first field, in field order, outside
    its ``metadata["range"]``: ``(lo, None)`` is ``>= lo``, ``(lo, hi)`` is
    [lo, hi] and ``(lo, hi, ")")`` is [lo, hi)."""
    values = [(f.name, getattr(config, f.name), f.metadata.get("range")) for f in fields(config)]
    for name, value, _ in values:
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{name} must be finite, got {value}")
    for name, value, bound in values:
        if bound is None:
            continue
        lo, hi, *rest = bound
        close = rest[0] if rest else "]"
        if hi is None and value < lo:
            raise InvalidConfig(f"{name} must be >= {lo}")
        if hi is not None and not (lo <= value < hi if close == ")" else lo <= value <= hi):
            shown = f"2**{hi.bit_length()} - 1" if hi > 2**32 and not hi & (hi + 1) else hi
            raise InvalidConfig(f"{name} must be in [{lo}, {shown}{close}")


class DegenerateSample(FinphaseError):
    """Sample carries no usable signal (e.g. all-zero wealth, an empty
    histogram, too few points)."""


# --- input files ----------------------------------------------------------

class ParseError(FinphaseError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line

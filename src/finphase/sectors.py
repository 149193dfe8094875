"""Sectoral net-lending tables and the zero-sum identity.

The conservation of borrowing and lending applies to whole economic
sectors exactly as it does to individual agents: the sectoral balances
must sum to zero. Balances are integer money in an explicit scale unit
(e.g. billions), in the signed 64-bit money range, so the identity is
checked exactly, never in floats.

Pure functions over immutable tables; thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from importlib import resources

from .errors import InvalidConfig, ParseError
from .ledger import Money, checked_money


@dataclass(frozen=True)
class SectorTable:
    period: str
    scale: str
    entries: tuple  # ordered (sector_name, balance) pairs

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(names) != len(set(names)):
            raise InvalidConfig("sector names must be unique")
        if len(names) < 2:
            raise ValueError("a sector table needs at least 2 sectors")

    def balance(self, sector: str) -> Money:
        for name, value in self.entries:
            if name == sector:
                return value
        raise InvalidConfig(f"no sector named {sector!r}")


@dataclass(frozen=True)
class BalanceReport:
    residual: Money
    is_balanced: bool  # |residual| <= tolerance
    largest_surplus: str
    largest_deficit: str


@dataclass(frozen=True)
class CounterfactualResult:
    table: SectorTable
    required_offset: Money  # -(residual of the new table)


def load_sectors(path) -> SectorTable:
    """Parse a ``sector,balance`` CSV with optional ``#period,`` and
    ``#scale,`` metadata lines; malformed rows and balances outside the
    money range are hard errors."""
    period = ""
    scale = ""
    entries: list[tuple[str, Money]] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        lines = fh.readlines()
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#period,"):
            period = line.split(",", 1)[1]
            continue
        if line.startswith("#scale,"):
            scale = line.split(",", 1)[1]
            continue
        if line.startswith("#"):
            raise ParseError(lineno, f"unknown metadata line {line!r}")
        parts = line.split(",")
        if parts[0] == "sector":
            if parts != ["sector", "balance"]:
                raise ParseError(lineno, "header must be 'sector,balance'")
            saw_header = True
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'sector,balance', got {line!r}")
        name = parts[0].strip()
        if not name:
            raise ParseError(lineno, "empty sector name")
        if name in seen:
            raise ParseError(lineno, f"sector {name!r} listed twice")
        seen.add(name)
        try:
            value = int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"balance {parts[1]!r} is not an integer")
        entries.append((name, checked_money("balance", value, partial(ParseError, lineno))))
    if not saw_header:
        raise ParseError(1, "missing 'sector,balance' header")
    if len(entries) < 2:
        raise ParseError(len(lines) or 1, "need at least 2 sector rows")
    return SectorTable(period, scale, tuple(entries))


def check_zero_sum(table: SectorTable, tolerance: Money = 0) -> BalanceReport:
    """Sum the balances and report against the declared tolerance; a sum
    outside the money range is a MoneyOverflow."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    residual = checked_money("residual", sum(value for _, value in table.entries))
    largest_surplus = max(table.entries, key=lambda e: e[1])[0]
    largest_deficit = min(table.entries, key=lambda e: e[1])[0]
    return BalanceReport(
        residual=residual,
        is_balanced=abs(residual) <= tolerance,
        largest_surplus=largest_surplus,
        largest_deficit=largest_deficit,
    )


def counterfactual(
    table: SectorTable, sector: str, new_value: Money
) -> CounterfactualResult:
    """Set one sector's balance and report the aggregate adjustment the
    other sectors must absorb for the zero-sum identity to hold again
    (required_offset = -(new residual)); how that adjustment distributes
    across sectors is deliberately not guessed. ``new_value`` must lie in
    the money range, and a required_offset outside it is a MoneyOverflow."""
    table.balance(sector)  # raises InvalidConfig for an unknown sector
    checked_money("new_value", new_value, InvalidConfig)
    entries = tuple(
        (name, new_value if name == sector else value)
        for name, value in table.entries
    )
    new_table = SectorTable(table.period, table.scale, entries)
    offset = -sum(value for _, value in entries)
    return CounterfactualResult(new_table, checked_money("required_offset", offset))


def bundled_eurozone_2012q1() -> SectorTable:
    """The packaged Eurozone 2012 Q1 net-surplus table (billions of
    euros): Households 48, Nonfinancial 22, Financial 39, Govt -122,
    RestOfWorld 13 -- which sums to exactly zero."""
    ref = resources.files("finphase.data").joinpath("eurozone_2012q1.csv")
    with resources.as_file(ref) as path:
        return load_sectors(path)

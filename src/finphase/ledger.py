"""Exact double-entry money ledger for a single-bank credit economy.

All amounts are integer minor currency units (``Money = int``) constrained
to the signed 64-bit range, so the central conservation identity

    sum(deposit - debt over all agents) + bank_equity == base_money

holds bit-exactly after every operation, never approximately. Deposits and
debts are always non-negative; an agent's net position is derived, never
stored. Loan creation adds a matching asset/liability pair to one account,
repayment cancels such a pair, and bankruptcy annihilation wipes an account
with the difference absorbed by bank equity (which may go negative).

Storage is two int64 numpy columns, ``deposit`` and ``debt``, indexed by
agent id, plus bank equity as a Python int. A new ledger holds its whole
base money as bank equity, and money enters and moves only through the
one posting primitive, :meth:`Ledger.post`: signed change columns for
agents ``0 .. k-1`` (a prefix; the firm economy puts its firms first),
each a 1-d ``np.int64`` array and nothing else, and a change of bank
equity. Transfers, loans, repayments, interest paid to the bank and
write-offs are all such columns, the caller netting every flow of a kind
into one entry per agent. A posting must conserve money, summed
exactly. It is atomic: every resulting deposit and debt is compared
against its headroom (``-dep`` and ``MONEY_MAX - dep``) instead of being
formed first, the equity is range-checked, and nothing is written unless
every check passes. A payer may therefore spend within a posting what it
receives in the same posting. A posting costs O(k): a few vectorised
passes over views of the first k rows, no gathers, and one in-place add
per column.

Money is int64 throughout, and one kernel sums it exactly. Each value
splits into two limbs, ``x == (hi << 31) + lo`` with ``0 <= lo < 2**31``
and ``-2**32 <= hi < 2**32``, and each limb is summed in int64: fewer
than 2**31 terms keep ``|sum(hi)| < 2**63`` and ``sum(lo) < 2**62``, so
no partial sum can wrap. :func:`_total` sums a column into a Python int;
:func:`_sums` sums rows into per-agent int64 totals and flags the totals
that leave the int64 range.

Concurrency: a Ledger has a single writer; read-only queries are safe
concurrently when nothing is mutating.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientFunds, MoneyOverflow, NoSuchDebt, UnknownAgent

Money = int

MONEY_MAX = 2**63 - 1
MONEY_MIN = -(2**63)


def checked_money(name: str, value: int, error=MoneyOverflow) -> Money:
    """``value``, or ``error(message)`` naming ``name`` if it is outside the money range."""
    if not MONEY_MIN <= value <= MONEY_MAX:
        raise error(f"{name} must be in the money range [{MONEY_MIN}, {MONEY_MAX}], got {value}")
    return value


_LO = 2**31 - 1  # the low limb's bits


def _total(column: np.ndarray) -> int:
    """Exact sum of an int64 column, as a Python int."""
    return (int((column >> 31).sum()) << 31) + int((column & _LO).sum())


def _sums(start: np.ndarray, target: np.ndarray, amount: np.ndarray):
    """``start[i]`` plus every ``amount[k]`` with ``target[k] == i``, summed
    exactly for each i: the int64 sums, and a mask of the sums outside the
    int64 range (whose entries in the sums are not meaningful)."""
    hi, lo = start >> 31, start & _LO
    np.add.at(hi, target, amount >> 31)
    np.add.at(lo, target, amount & _LO)
    hi += lo >> 31
    return (hi << 31) + (lo & _LO), (hi < -(2**32)) | (hi >= 2**32)


class Ledger:
    """Complete account map of the single bank plus its equity.

    Agent ids are dense ``0 .. n_agents-1``. ``base_money`` is fixed at
    construction and starts as bank equity, i.e. as the bank's reserve,
    so the conservation identity holds from birth; accounts are funded
    by postings, such as ``post(deposits, equity_change=-total)``.
    """

    __slots__ = ("_dep", "_debt", "_bank_equity", "_base_money")

    def __init__(self, n_agents: int, base_money: Money):
        if n_agents < 0:
            raise ValueError("n_agents must be >= 0")
        if not 0 <= base_money <= MONEY_MAX:
            raise MoneyOverflow(f"base_money {base_money} out of range")
        self._dep = np.zeros(n_agents, dtype=np.int64)
        self._debt = np.zeros(n_agents, dtype=np.int64)
        self._bank_equity = self._base_money = base_money

    # -- queries -----------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self._dep)

    @property
    def base_money(self) -> Money:
        return self._base_money

    @property
    def bank_equity(self) -> Money:
        return self._bank_equity

    @property
    def deposits(self) -> np.ndarray:
        """Read-only int64 view of the deposit column, indexed by agent id.

        The view follows later postings; numpy rejects writes through it.
        """
        view = self._dep.view()
        view.flags.writeable = False
        return view

    @property
    def debts(self) -> np.ndarray:
        """Read-only int64 view of the debt column; see :attr:`deposits`."""
        view = self._debt.view()
        view.flags.writeable = False
        return view

    def conservation_residual(self) -> Money:
        """sum(deposit - debt) + bank_equity - base_money; must be 0.

        Computed by exact full summation every call, not tracked
        incrementally, so it doubles as a self-check of the postings.
        """
        return _total(self._dep) - _total(self._debt) + self._bank_equity - self._base_money

    # -- posting ---------------------------------------------------------------

    def post(self, dep_change, debt_change=None, equity_change: Money = 0) -> None:
        """Add ``dep_change[i]`` to agent i's deposit and ``debt_change[i]``
        to its debt for every i in the column, and ``equity_change`` to bank
        equity. A column covers agents ``0 .. k-1``, a prefix of the ledger
        (firms come first, so a column of firms is shorter than one that
        reaches the workers); an omitted column changes nothing. A column
        is a 1-d ``np.int64`` array: anything else (a list, a uint64,
        float or object array, a 2-d array) is a TypeError naming its type
        and shape, raised before anything is written.

        The posting must conserve money: sum(dep_change) - sum(debt_change)
        + equity_change == 0, summed exactly. It is atomic: every resulting
        deposit and debt must lie in [0, MONEY_MAX] and the equity in the
        signed 64-bit range, each compared against its headroom, and a
        failure names the lowest failing agent and writes nothing.
        """
        n = len(self._dep)
        equity_change = int(equity_change)
        columns = []
        total = equity_change
        for col, change, sign, verb, short_error in (
            (self._dep, dep_change, 1, "holds", InsufficientFunds),
            (self._debt, debt_change, -1, "owes", NoSuchDebt),
        ):
            if change is None:
                continue
            if not isinstance(change, np.ndarray):
                raise TypeError(f"changes must be 1-d int64 columns, got {type(change).__name__}")
            if change.dtype != np.int64 or change.ndim != 1:
                raise TypeError(
                    f"changes must be 1-d int64 columns, got {change.dtype} {change.shape}"
                )
            if len(change) > n:
                raise UnknownAgent(f"no agent {n} in ledger of {n}")
            columns.append((col[: len(change)], change, verb, short_error))
            total += sign * _total(change)
        if total != 0:
            raise ValueError("posting does not conserve money")
        for cur, change, verb, short_error in columns:
            short = change < -cur
            if short.any():
                i = int(np.argmax(short))
                raise short_error(f"agent {i} {verb} {cur[i]}, batch takes {-int(change[i])}")
            over = change > MONEY_MAX - cur
            if over.any():
                raise MoneyOverflow(
                    f"balance of agent {int(np.argmax(over))} would exceed 64-bit range"
                )
        new_equity = self._bank_equity + equity_change
        if not MONEY_MIN <= new_equity <= MONEY_MAX:
            raise MoneyOverflow(f"bank equity {new_equity} out of 64-bit range")
        for cur, change, _, _ in columns:
            cur += change  # in range: checked above
        self._bank_equity = new_equity

    def copy(self) -> "Ledger":
        return Ledger._of(self._dep.copy(), self._debt.copy(), self._bank_equity, self._base_money)

    @classmethod
    def _of(cls, dep, debt, equity: Money, base: Money) -> "Ledger":
        """A ledger on the given int64 columns, unchecked."""
        led = cls.__new__(cls)
        led._dep, led._debt = dep, debt
        led._bank_equity, led._base_money = equity, base
        return led

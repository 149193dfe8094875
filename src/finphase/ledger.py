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
agent id, plus bank equity as a Python int. Every posting is a batch: the
``*_many`` operations take equal-length columns of agent ids and amounts,
the scalar operations are one-element batches, and ``settle_many`` posts
the net result of a mix of transfers, loans and repayments, one row per
agent. A batch is atomic. Its inputs (agent bounds, no self-transfer,
amounts >= 0) and its result (no deposit or debt outside [0, MONEY_MAX],
no equity outside the signed 64-bit range) are checked, vectorised,
before anything is written, and the check is made on the batch's net
effect per account: a payer may spend within a batch what it receives in
the same batch. Because int64 wraps silently, each per-account net is
summed in int64 only when the batch total fits the money range (then no
partial sum can wrap), and in Python ints otherwise, and every range
check compares against the headroom (``MONEY_MAX - dep``) instead of
forming the sum first. A batch costs O(batch size), apart from the rare
one whose total exceeds MONEY_MAX, which sums in an object column of all
agents.

Concurrency: a Ledger has a single writer; read-only queries are safe
concurrently when nothing is mutating.
"""

from __future__ import annotations

import csv
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InsufficientFunds,
    MoneyOverflow,
    NoSuchDebt,
    ParseError,
    SelfTransfer,
    UnknownAgent,
)

Money = int
AgentId = int

MONEY_MAX = 2**63 - 1
MONEY_MIN = -(2**63)


class Account(NamedTuple):
    """Deposit/debt pair for one agent; both sides are always >= 0."""

    deposit: Money
    debt: Money


def _column(values, what: str) -> np.ndarray:
    """A 1-d integer array; Python ints beyond int64 stay exact (object)."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuO"):
        raise TypeError(f"{what} must be a column of integers, got {arr.dtype} {arr.shape}")
    return arr


def _money(values) -> np.ndarray:
    """Amounts as an int64 column; negative amounts are a ValueError and
    amounts above MONEY_MAX a MoneyOverflow."""
    arr = _column(values, "amounts")
    if arr.size:
        if arr.min() < 0:
            raise ValueError(f"amount must be >= 0, got {arr.min()}")
        if arr.dtype != np.int64 and arr.max() > MONEY_MAX:
            raise MoneyOverflow(f"amount {arr.max()} exceeds 64-bit money range")
    return arr.astype(np.int64, copy=False)


def _signed(values) -> np.ndarray:
    """Signed changes as an int64 column, or MoneyOverflow."""
    arr = _column(values, "changes")
    if arr.size and arr.dtype != np.int64 and not MONEY_MIN <= arr.min() <= arr.max() <= MONEY_MAX:
        raise MoneyOverflow("change out of 64-bit money range")
    return arr.astype(np.int64, copy=False)


def _total(amount: np.ndarray) -> int:
    """Exact sum of a non-negative int64 column, as a Python int."""
    if amount.size == 0:
        return 0
    if int(amount.max()) <= MONEY_MAX // amount.size:
        return int(amount.sum())  # no partial sum can exceed the total
    return sum(amount.tolist())


def _exact(amount: np.ndarray) -> np.ndarray:
    """``amount``, widened to Python ints (object dtype) if its total is
    above MONEY_MAX: only then can a per-agent sum of it wrap int64."""
    if amount.size == 0 or int(amount.max()) <= MONEY_MAX // amount.size:
        return amount  # the total is at most size * max: no sum needed
    return amount if _total(amount) <= MONEY_MAX else amount.astype(object)


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted
    column. (``np.unique`` finds the same, but its first call imports
    ``numpy.ma``, ~19 ms, into every process that posts a batch.)"""
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


class Ledger:
    """Complete account map of the single bank plus its equity.

    Agent ids are dense ``0 .. n_agents-1``. ``base_money`` is fixed at
    construction; ``bank_equity`` is initialised to
    ``base_money - sum(initial_deposits)`` so the conservation identity
    holds from birth (with no initial deposits the whole base money sits
    as bank equity, i.e. as the bank's reserve).
    """

    __slots__ = ("_dep", "_debt", "_net", "_bank_equity", "_base_money")

    def __init__(
        self,
        n_agents: int,
        base_money: Money,
        initial_deposits: Optional[Sequence[Money]] = None,
    ):
        if n_agents < 0:
            raise ValueError("n_agents must be >= 0")
        if not 0 <= base_money <= MONEY_MAX:
            raise MoneyOverflow(f"base_money {base_money} out of range")
        if initial_deposits is None:
            self._dep = np.zeros(n_agents, dtype=np.int64)
        else:
            if len(initial_deposits) != n_agents:
                raise ValueError("initial_deposits length != n_agents")
            self._dep = _money(list(initial_deposits))
        self._debt = np.zeros(n_agents, dtype=np.int64)
        self._net = np.zeros(n_agents, dtype=np.int64)  # see _commit
        self._base_money = base_money
        self._bank_equity = base_money - _total(self._dep)
        if self._bank_equity < MONEY_MIN:
            raise MoneyOverflow("initial deposits exceed representable equity")

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

    def _check_agent(self, agent: AgentId) -> None:
        if not 0 <= agent < len(self._dep):
            raise UnknownAgent(f"no agent {agent} in ledger of {len(self._dep)}")

    def account(self, agent: AgentId) -> Account:
        self._check_agent(agent)
        return Account(int(self._dep[agent]), int(self._debt[agent]))

    def deposit(self, agent: AgentId) -> Money:
        self._check_agent(agent)
        return int(self._dep[agent])

    def debt(self, agent: AgentId) -> Money:
        self._check_agent(agent)
        return int(self._debt[agent])

    def net_position(self, agent: AgentId) -> Money:
        """deposit - debt (signed)."""
        self._check_agent(agent)
        return int(self._dep[agent]) - int(self._debt[agent])

    def accounts(self) -> Iterator[tuple[AgentId, Account]]:
        for i, (d, b) in enumerate(zip(self._dep.tolist(), self._debt.tolist())):
            yield i, Account(d, b)

    def conservation_residual(self) -> Money:
        """sum(deposit - debt) + bank_equity - base_money; must be 0.

        Computed by exact full summation every call, not tracked
        incrementally, so it doubles as a self-check of the postings.
        """
        return _total(self._dep) - _total(self._debt) + self._bank_equity - self._base_money

    # -- batch checking and posting -------------------------------------------

    def _agents(self, agents) -> np.ndarray:
        idx = _column(agents, "agent ids")
        n = len(self._dep)
        # viewed as uint64 a negative id is larger than any valid one
        if idx.size and not (idx.dtype == np.int64 and int(idx.view(np.uint64).max()) < n):
            bad = [a for a in idx.tolist() if not 0 <= a < n]
            if bad:
                raise UnknownAgent(f"no agent {bad[0]} in ledger of {n}")
        return idx.astype(np.intp, copy=False)

    def _pair(self, agents, amount):
        agents, amount = self._agents(agents), _money(amount)
        if len(agents) != len(amount):
            raise ValueError("agent and amount lengths differ")
        return agents, amount

    def _commit(self, idx, dep_delta=None, debt_delta=None, equity_delta: Money = 0) -> None:
        """Post one batch: ``dep_delta[k]`` and ``debt_delta[k]`` are added
        to agent ``idx[k]`` (repeated ids sum) and ``equity_delta`` to bank
        equity. Every resulting value is range-checked before anything is
        written.

        Work is O(batch): per-agent nets accumulate in ``_net``, a column
        that is all zero between batches and is cleared again at the
        batch's own rows. A wide batch (object-dtype Python-int deltas,
        see :func:`_exact`) sums in a fresh object column instead.
        """
        writes = []
        for col, delta, verb, short_error in (
            (self._dep, dep_delta, "holds", InsufficientFunds),
            (self._debt, debt_delta, "owes", NoSuchDebt),
        ):
            if delta is None:
                continue
            net = self._net if delta.dtype == np.int64 else np.zeros(len(col), dtype=object)
            np.add.at(net, idx, delta)
            change = net[idx]
            net[idx] = 0
            cur = col[idx]
            short = change < -cur
            if short.any():
                k = int(np.argmax(short))
                raise short_error(f"agent {idx[k]} {verb} {cur[k]}, batch takes {-change[k]}")
            over = change > MONEY_MAX - cur
            if over.any():
                k = int(np.argmax(over))
                raise MoneyOverflow(f"balance of agent {idx[k]} would exceed 64-bit range")
            writes.append((col, cur + change))
        new_equity = self._bank_equity + equity_delta
        if not MONEY_MIN <= new_equity <= MONEY_MAX:
            raise MoneyOverflow(f"bank equity {new_equity} out of 64-bit range")
        for col, new in writes:
            col[idx] = new  # a repeated id gets the same value each time
        self._bank_equity = new_equity

    # -- batch operations -------------------------------------------------------

    def transfer_many(self, src, dst, amount) -> None:
        """Move ``amount[k]`` of deposit from ``src[k]`` to ``dst[k]`` for
        every k, zero-sum; checked on each account's net change."""
        src, dst = self._agents(src), self._agents(dst)
        amount = _money(amount)
        if not len(src) == len(dst) == len(amount):
            raise ValueError("src, dst and amount lengths differ")
        same = src == dst
        if same.any():
            raise SelfTransfer(f"agent {src[np.argmax(same)]} cannot transfer to itself")
        amount = _exact(amount)
        self._commit(np.concatenate((dst, src)), dep_delta=np.concatenate((amount, -amount)))

    def create_loan_many(self, borrower, amount) -> None:
        """Create deposit/debt pairs: borrowers' net positions are unchanged."""
        borrower, amount = self._pair(borrower, amount)
        amount = _exact(amount)
        self._commit(borrower, dep_delta=amount, debt_delta=amount)

    def repay_many(self, borrower, amount) -> None:
        """Cancel deposit/debt pairs; exact inverse of create_loan_many."""
        borrower, amount = self._pair(borrower, amount)
        amount = -_exact(amount)
        self._commit(borrower, dep_delta=amount, debt_delta=amount)

    def pay_to_bank_many(self, agent, amount) -> None:
        """Move deposits into bank equity (e.g. interest)."""
        agent, amount = self._pair(agent, amount)
        self._commit(agent, dep_delta=-_exact(amount), equity_delta=_total(amount))

    def settle_many(self, agent, dep_change, debt_change) -> None:
        """Apply signed deposit and debt changes, one row per distinct
        agent: the net result of a sequence of transfers, loans and
        repayments, posted as one batch. The changes must leave
        sum(deposit - debt) unchanged (equal totals), so money is only
        moved, lent or repaid, never created.
        """
        agent = self._agents(agent)
        dep_change, debt_change = _signed(dep_change), _signed(debt_change)
        if not len(agent) == len(dep_change) == len(debt_change):
            raise ValueError("agent and change lengths differ")
        if not _firsts(np.sort(agent)).all():
            raise ValueError("settle_many takes each agent at most once")
        if sum(dep_change.tolist()) != sum(debt_change.tolist()):
            raise ValueError("deposit and debt changes differ in total: money would not be conserved")
        self._commit(agent, dep_delta=dep_change, debt_delta=debt_change)

    def annihilate_many(self, bankrupt) -> None:
        """Write off accounts: deposit and debt both go to zero.

        The net write-off sum(deposit - debt) lands on bank equity, which
        may go negative; an agent listed twice is written off once.
        """
        idx = np.sort(self._agents(bankrupt))
        idx = idx[_firsts(idx)]
        dep, debt = self._dep[idx], self._debt[idx]
        delta = sum((dep - debt).tolist())
        self._commit(idx, dep_delta=-dep, debt_delta=-debt, equity_delta=delta)

    # -- scalar operations: one-element batches --------------------------------

    def transfer(self, src: AgentId, dst: AgentId, amount: Money) -> None:
        """Move ``amount`` of deposit from ``src`` to ``dst`` (zero-sum)."""
        self.transfer_many([src], [dst], [amount])

    def create_loan(self, borrower: AgentId, amount: Money) -> None:
        """Create a deposit/debt pair: the borrower's net position is unchanged."""
        self.create_loan_many([borrower], [amount])

    def repay_loan(self, borrower: AgentId, amount: Money) -> None:
        """Cancel a deposit/debt pair; exact inverse of create_loan."""
        self.repay_many([borrower], [amount])

    def annihilate(self, bankrupt: AgentId) -> None:
        """Write off one account; see :meth:`annihilate_many`."""
        self.annihilate_many([bankrupt])

    def pay_to_bank(self, agent: AgentId, amount: Money) -> None:
        """Move deposit from an agent into bank equity (e.g. interest)."""
        self.pay_to_bank_many([agent], [amount])

    def pay_from_bank(self, agent: AgentId, amount: Money) -> None:
        """Move bank equity into an agent's deposit; equity may go negative."""
        agent, amount = self._pair([agent], [amount])
        self._commit(agent, dep_delta=amount, equity_delta=-_total(amount))

    # -- snapshots -----------------------------------------------------------

    def copy(self) -> "Ledger":
        return Ledger._of(self._dep.copy(), self._debt.copy(), self._bank_equity, self._base_money)

    @classmethod
    def _of(cls, dep, debt, equity: Money, base: Money) -> "Ledger":
        """A ledger on the given int64 columns, unchecked."""
        led = cls.__new__(cls)
        led._dep, led._debt = dep, debt
        led._net = np.zeros(len(dep), dtype=np.int64)
        led._bank_equity, led._base_money = equity, base
        return led

    def write_csv(self, path) -> None:
        """Dump ``agent_id,deposit,debt`` rows plus equity/base trailers."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent_id", "deposit", "debt"])
            for i, (d, b) in enumerate(zip(self._dep.tolist(), self._debt.tolist())):
                writer.writerow([i, d, b])
            fh.write(f"#bank_equity,{self._bank_equity}\n")
            fh.write(f"#base_money,{self._base_money}\n")

    @classmethod
    def read_csv(cls, path) -> "Ledger":
        """Rebuild a ledger from :meth:`write_csv` output.

        Each row must be ``agent_id,deposit,debt`` for the next agent id
        with both balances in [0, MONEY_MAX], the base money in that range
        and the bank equity in the signed 64-bit range, and the bank equity
        must leave a zero conservation residual; anything else is a
        ParseError naming the line.
        """
        rows: list[list[Money]] = []  # [deposit, debt] per agent
        trailers: dict[str, tuple[int, Money]] = {}
        lowest = {"#bank_equity": MONEY_MIN, "#base_money": 0}
        with open(path, newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("agent_id"):
                    continue
                key, *fields = line.split(",")
                try:
                    values = [int(v) for v in fields]
                except ValueError:
                    values = []  # malformed, reported below
                n = len(rows)
                if key in lowest and len(values) == 1:
                    ok = lowest[key] <= values[0] <= MONEY_MAX
                    trailers[key] = (lineno, values[0])
                else:
                    ok = key == str(n) and len(values) == 2
                    ok = ok and 0 <= min(values) <= max(values) <= MONEY_MAX
                    rows.append(values)
                if not ok:
                    want = f"'{n},deposit,debt' or a trailer, in range"
                    raise ParseError(lineno, f"{path}: expected {want}; got {line!r}")
        if len(trailers) != 2:
            raise ValueError("snapshot missing #bank_equity/#base_money trailers")
        (lineno, equity), (_, base) = trailers["#bank_equity"], trailers["#base_money"]
        cols = np.array(rows, dtype=np.int64).reshape(-1, 2).T.copy()
        led = cls._of(cols[0], cols[1], equity, base)
        residual = led.conservation_residual()
        if residual:
            raise ParseError(lineno, f"{path}: bank equity leaves conservation residual {residual}")
        return led

"""Agent-based capitalist economy: firms, households, and one bank.

Firms pay wages (borrowing on any shortfall), households spend every wage
at the firms their workers shop at, indebted firms pay interest into bank
equity, and firms then act on their situation: involuntary borrowers (A)
have already had to borrow to stay in operation, voluntary borrowers (B)
with profit rates well above the interest rate borrow to invest, and
voluntary lenders (C) pay debts down and hoard the rest. Firms whose net
debt exceeds their capital stock are bankrupted: the annihilation
write-off is absorbed by bank equity and a fresh firm re-enters at the
phase-plane origin.

Each worker's shop is drawn uniformly at random once at initialisation
and persists (apart from an optional per-step churn fraction). The
resulting market niches make profitability a persistent firm
characteristic, which is what drives the polarisation: without it every
firm mean-reverts to the origin, no firm is ever pushed through the
bankruptcy wall, and no rentier class precipitates out. Capital-goods
purchases settle at cost, so investment demand moves money without
creating margin income for the seller; only consumption sales carry
profit. (Letting investment sales count as profit produces a runaway
profit -> investment -> profit loop that inflates every balance sheet in
step, which kills the phase-plane dynamics instead of polarising them.)

Tracked per firm and per step is the phase point (x, y) with
x = net debt / capital stock and y = (change in net debt) / capital
stock. Starting from a point mass at the origin the population polarises:
a head of leveraged producers pressed toward the bankruptcy wall at
x = 1 and a lengthening rentier tail at x < 0.

Households are one sector that saves nothing (wages in, consumption out,
in the same step), so the ledger holds the firms only. Each firm starts
with zero balances and the entire base money sits as bank equity, i.e.
as the bank's reserve; every circulating euro is endogenous credit
money. This puts every firm exactly at the origin at t = 0 and lets a
post-bankruptcy replacement re-enter at the origin as well (its money
endowment from bank equity is the initial per-firm endowment: zero).

Within a phase the firms act at once, not in turn: in owner consumption
and in classification + investment/repayment every firm decides from its
deposit at the start of the phase, and what the others pay it lands after
every firm has acted, as in stock-flow consistent accounts, which do not
order agents within a period. A firm id carries no economic meaning.

The ledger conservation residual is zero after every step, bit-exactly.
One economy instance is sequential; independent seeds are independent.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import rng
from .errors import InsufficientFunds, MoneyOverflow, check_bounds
from .ledger import MONEY_MAX, MONEY_MIN, Ledger, Money, _sums, _total

# The simulation step is the pay period ("the week"); annual rates are
# converted with this documented constant.
STEPS_PER_YEAR = 50

# Substream purposes, combined with (seed, step).
_TAG_WORKER_TARGET = 1
_TAG_OWNER_TARGET = 2
_TAG_INVEST_TARGET = 3
_TAG_CHURN = 4


class FirmClass(enum.IntEnum):
    A_INVOLUNTARY_BORROWER = 0
    B_VOLUNTARY_BORROWER = 1
    C_VOLUNTARY_LENDER = 2


@dataclass(frozen=True)
class EconomyConfig:
    """Simulation parameters.

    interest_rate and depreciation are per step; investment_margin is the
    annual spread over the annualised interest rate that marks a firm as
    a voluntary borrower. ``initial_capital`` is the book value of a
    fresh firm's equipment. Each field's bound is its ``range`` metadata
    (:func:`errors.check_bounds`), and every float field must be finite;
    a config that breaks a bound raises InvalidConfig when it is built.
    """

    n_firms: int = field(default=1000, metadata={"range": (1, None)})
    n_workers: int = field(default=10000, metadata={"range": (0, None)})
    base_money: Money = field(default=10**9, metadata={"range": (0, MONEY_MAX)})
    wage: Money = field(default=100, metadata={"range": (0, MONEY_MAX)})
    interest_rate: float = field(default=0.005, metadata={"range": (0, None)})
    investment_margin: float = field(default=0.01, metadata={"range": (0, None)})
    depreciation: float = field(default=0.01, metadata={"range": (0, 1, ")")})
    capitalist_consumption_fraction: float = field(default=0.05, metadata={"range": (0, 1)})
    n_steps: int = field(default=20, metadata={"range": (0, None)})
    seed: int = field(default=0, metadata={"range": (0, 2**64 - 1)})
    initial_capital: Money = field(default=3000, metadata={"range": (1, MONEY_MAX)})
    customer_churn: float = field(default=0.0, metadata={"range": (0, 1)})

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class StepRecord:
    t: int
    points: np.ndarray  # (n_firms, 2) float64: x, y per firm
    class_counts: tuple  # (A, B, C) at classification time
    bankruptcies: int
    conservation_residual: Money


@dataclass
class EconomyState:
    """Per-firm columns, the ledger's included, are indexed by firm id;
    ``worker_shop``, where each worker's wage is spent, by worker."""

    config: EconomyConfig
    ledger: Ledger
    capital: np.ndarray  # book value per firm
    last_profit: np.ndarray  # previous step's profit per firm
    employees: np.ndarray  # headcount per firm
    worker_shop: np.ndarray  # current shop per worker
    t: int = 0


def classify(
    last_profit: np.ndarray,
    interest_due: np.ndarray,
    profit_rate: np.ndarray,
    interest_rate: float,
    margin: float,
) -> np.ndarray:
    """Classify firms from their last profits and current positions; the
    result holds one FirmClass code per firm.

    A (involuntary borrower) where last_profit < the interest due on its
    net debt -- it must borrow just to service what it owes. B (voluntary
    borrower) where the annualised profit rate beats interest_rate +
    margin. C (voluntary lender) otherwise.

    ``last_profit`` is int64. ``interest_due`` is the float product of
    net debt (0 if there is none) and the per-step rate; the test uses
    its integer part, as ``int(net_debt * rate)``, compared exactly with
    the int64 profit (a product of 2**63 or more exceeds any of them).
    """
    big = interest_due >= 2.0**63
    due = np.where(big, 0.0, interest_due).astype(np.int64)
    return np.where(
        big | (last_profit < due),
        FirmClass.A_INVOLUNTARY_BORROWER,
        np.where(
            profit_rate > interest_rate + margin,
            FirmClass.B_VOLUNTARY_BORROWER,
            FirmClass.C_VOLUNTARY_LENDER,
        ),
    )


def init_economy(config: EconomyConfig) -> EconomyState:
    """Set up the firms' ledger and book values; all firms at the origin.

    Each worker also draws, uniformly at random, the firm it shops at;
    this market niche persists across steps apart from the per-step
    customer_churn fraction, which is what gives firms persistently
    different profitability.
    """
    n = config.n_firms
    # worker i works at firm i % n: each firm employs n_workers // n, and
    # the first n_workers % n firms one more
    employees = np.full(n, config.n_workers // n, dtype=np.int64)
    employees[: config.n_workers % n] += 1
    worker_shop = rng.randint_block(
        rng.derive(config.seed, 0, _TAG_WORKER_TARGET), 0, config.n_workers, n
    )
    return EconomyState(
        config=config,
        ledger=Ledger(n, config.base_money),
        capital=np.full(n, config.initial_capital, dtype=np.int64),
        last_profit=np.zeros(n, dtype=np.int64),
        employees=employees,
        worker_shop=worker_shop,
    )


def _record(state: EconomyState, points, class_counts, bankruptcies) -> StepRecord:
    return StepRecord(
        t=state.t,
        points=points,
        class_counts=class_counts,
        bankruptcies=bankruptcies,
        conservation_residual=state.ledger.conservation_residual(),
    )


def initial_record(state: EconomyState) -> StepRecord:
    """The t = 0 snapshot: every firm at the origin, nothing classified."""
    return _record(state, np.zeros((state.config.n_firms, 2)), (0, 0, 0), 0)


def _other_firms(seed: int, t: int, tag: int, n: int) -> np.ndarray:
    """For each firm i, a uniformly drawn other firm (i + 1 + offset) % n."""
    offsets = rng.randint_block(rng.derive(seed, t, tag), 0, n, n - 1)
    return (np.arange(n) + 1 + offsets) % n


# Below this magnitude int64 -> float64 is exact, so numpy's division is
# Python's correctly rounded int / int, and a difference of two such
# values cannot wrap.
_EXACT = 2**52

# The largest float64 below 2**63: a product clipped to it converts to
# int64 without wrapping.
_BELOW_2_63 = float(2**63 - 1024)


def _owner_consumption(dep, receipts, shop_of, frac: float):
    """Owner consumption: each firm i draws ``int(deposit * frac)`` of its
    deposit at the start of the phase and spends it at firm ``shop_of[i]``;
    the sales land after every firm has drawn. Returns the draws and the
    receipts with these sales added, or raises InsufficientFunds for the
    lowest firm whose draw is above its deposit (a float product rounded
    up) and MoneyOverflow for receipts out of range. The posting of the
    deposit changes checks the deposits.
    """
    product = dep * frac  # float64, truncated below: int(deposit * frac)
    draws = np.minimum(product, _BELOW_2_63).astype(np.int64)
    short = (product >= 2.0**63) | (draws > dep)
    if short.any():
        i = int(np.argmax(short))
        raise InsufficientFunds(f"firm {i} holds {dep[i]}, draws {int(product[i])}")
    with_sales, over = _sums(receipts, shop_of, draws)
    if over.any():
        raise MoneyOverflow("receipts out of 64-bit range")
    return draws, with_sales


def _invest(dep, debt, capital, last_profit, seller_of, rate: float, margin: float):
    """Phase 4: each firm is classified from its position at the start of
    the phase; a B firm with positive last profit borrows it and buys
    capital goods for it from firm ``seller_of[i]`` (None: one firm,
    nobody to buy from), a C firm repays ``min(deposit, debt)``. The
    purchases land after every firm has acted. Returns the classes and the
    deposit, debt and capital columns' changes, or raises MoneyOverflow
    for the lowest firm whose deposit leaves the money range, then for a
    capital out of range. The posting of the changes checks the debts.
    """
    lp = last_profit
    profit_rate = lp * STEPS_PER_YEAR / capital  # may wrap or round: fixed below
    # a negative profit is below any interest due (class A): its rate is not read
    inexact = (lp > _EXACT // STEPS_PER_YEAR) | (capital > _EXACT)
    for i in np.flatnonzero(inexact).tolist():
        profit_rate[i] = int(lp[i]) * STEPS_PER_YEAR / int(capital[i])
    cls = classify(
        lp, np.maximum(debt - dep, 0) * rate, profit_rate, rate * STEPS_PER_YEAR, margin
    )
    # Capital goods change hands at cost: the sale adds to the seller's
    # cash but carries no margin, so it does not enter the seller's
    # profit. Only consumption sales do.
    may_buy = (lp > 0) & (seller_of is not None) & (cls == FirmClass.B_VOLUNTARY_BORROWER)
    spent = np.where(may_buy, lp, 0)
    repaid = np.where(cls == FirmClass.C_VOLUNTARY_LENDER, np.minimum(dep, debt), 0)
    target = np.arange(len(dep)) if seller_of is None else seller_of
    after, over = _sums(dep - repaid, target, spent)
    if over.any():
        raise MoneyOverflow(f"balance of agent {int(np.argmax(over))} would exceed 64-bit range")
    if (capital > MONEY_MAX - spent).any():
        raise MoneyOverflow("capital out of 64-bit range")
    return cls, after - dep, spent - repaid, capital + spent


# The phases of a step, in order; ``step`` adds the seconds of each to a
# ``timings`` accumulator under these names.
PHASES = ("wages", "consumption", "interest", "invest", "depreciation", "bankruptcy", "record")


def step(state: EconomyState, timings: dict | None = None) -> StepRecord:
    """Advance one step in fixed order: wages, consumption, interest,
    classification + investment/repayment, depreciation, bankruptcy,
    record. Returns the step's record; with a ``timings`` dict, also adds
    the seconds each phase took to ``timings[name]`` for each name in
    PHASES.

    Every flow is posted as a dense per-firm change column that the phase
    has already computed, one checked :meth:`Ledger.post` per kind of
    posting: the wage loans; the wages net of the households' spending;
    owner consumption; the interest, with the loans that fund it; phase
    4; the write-offs. Every rate, zero included, takes the same path.
    Many-to-one flows are summed exactly, folded with each firm's own
    deposit and outflow (:func:`ledger._sums`), and a flagged sum is an
    overflow; an error names the lowest failing firm, as the posting
    does. In owner consumption and phase 4 each firm acts on its deposit
    at the start of the phase and its receipts land after.
    Everything is posted to a copy of the ledger and built in new columns;
    the state takes them only after the last phase, so a step that raises
    leaves the state as it was.
    """
    start = perf_counter()
    for name, item in zip(PHASES, _phases(state), strict=True):
        if timings is not None:
            now = perf_counter()
            timings[name] = timings.get(name, 0.0) + (now - start)
            start = now
    return item


def _phases(state: EconomyState):
    """The body of :func:`step`: each bare ``yield`` ends a phase, in
    PHASES order, and the last yields the record."""
    cfg = state.config
    n = cfg.n_firms
    ledger = state.ledger.copy()
    dep = ledger.deposits  # read-only views that follow the postings
    debt = ledger.debts
    t = state.t + 1
    seed = cfg.seed
    wage = cfg.wage

    # (1) wages: borrow any shortfall; paid in (2), net of the sales
    employees = state.employees
    if wage > MONEY_MAX // max(int(employees.max(initial=0)), 1):
        raise MoneyOverflow("wage bill out of 64-bit range")
    wages_paid = wage * employees
    loans = np.maximum(wages_paid - dep, 0)
    ledger.post(loans, loans)
    yield

    # (2) consumption: each worker's wage is spent at its shop (a churn
    # fraction re-picks its shop uniformly first), one wage per customer;
    # then owners spend a fraction of their firm's deposit at another firm
    shops = state.worker_shop
    if cfg.customer_churn > 0:
        churn_u = rng.uniform_block(rng.derive(seed, t, _TAG_CHURN), 0, cfg.n_workers)
        new_shops = rng.randint_block(rng.derive(seed, t, _TAG_WORKER_TARGET), 0, cfg.n_workers, n)
        shops = np.where(churn_u < cfg.customer_churn, new_shops, shops)
    customers = np.bincount(shops, minlength=n)
    most = MONEY_MAX // max(wage, 1)
    receipts = np.minimum(customers, most) * wage
    # wages out, sales in: it conserves money, each worker being one customer
    over = (customers > most) | (receipts > MONEY_MAX - (dep - wages_paid))
    if over.any():  # raised as the posting would, had its column held the sales
        raise MoneyOverflow(f"balance of agent {int(np.argmax(over))} would exceed 64-bit range")
    ledger.post(receipts - wages_paid)
    frac = cfg.capitalist_consumption_fraction
    if n > 1:
        shop_of = _other_firms(seed, t, _TAG_OWNER_TARGET, n)
        draws, with_sales = _owner_consumption(dep, receipts, shop_of, frac)
        ledger.post(with_sales - receipts - draws)  # each term in [0, MONEY_MAX]
        receipts = with_sales
    yield

    # (3) interest on outstanding debt, paid into bank equity (borrowed if short)
    rate = cfg.interest_rate
    with np.errstate(over="ignore"):  # an infinite product is reported below
        due = debt * rate  # float64 and truncated, exactly as int(debt * rate)
    if not (due < 2.0**63).all():
        raise MoneyOverflow("interest due out of 64-bit range")
    interest_paid = due.astype(np.int64)
    loans = np.maximum(interest_paid - dep, 0)
    ledger.post(loans - interest_paid, loans, equity_change=_total(interest_paid))
    yield

    # (4) classification, then investment (B) or repayment (C)
    seller_of = _other_firms(seed, t, _TAG_INVEST_TARGET, n) if n > 1 else None
    cls, dep_change, debt_change, capital = _invest(
        dep, debt, state.capital, state.last_profit, seller_of, rate, cfg.investment_margin
    )
    ledger.post(dep_change, debt_change)
    counts = np.bincount(cls, minlength=3)
    yield

    # (5) depreciation: book-value write-down, no money moves
    capital -= (capital * cfg.depreciation).astype(np.int64)
    yield

    # (6) bankruptcy: net debt above capital stock wipes the account and
    # a fresh firm re-enters at the origin
    wiped = debt - dep > capital
    lost_dep = np.where(wiped, dep, 0)
    lost_debt = np.where(wiped, debt, 0)
    ledger.post(-lost_dep, -lost_debt, equity_change=_total(lost_dep) - _total(lost_debt))
    bankrupt = np.flatnonzero(wiped)
    capital[bankrupt] = cfg.initial_capital
    yield

    # (7) profits, phase points, record
    net_debt = debt - dep  # 0 for the bankrupt firms
    prev = state.ledger.debts - state.ledger.deposits  # uncommitted: the last boundary's
    points = np.empty((n, 2))
    points[:, 0] = net_debt / capital
    points[:, 1] = (net_debt - prev) / capital  # may wrap; fixed up below
    inexact = (np.abs(net_debt) > _EXACT) | (np.abs(prev) > _EXACT) | (capital > _EXACT)
    for i in np.flatnonzero(inexact).tolist():
        nd, p, k = int(net_debt[i]), int(prev[i]), int(capital[i])
        points[i] = (nd / k, (nd - p) / k)
    after_wages = receipts - wages_paid  # both in [0, MONEY_MAX]: no wrap
    if (after_wages < MONEY_MIN + interest_paid).any():
        raise MoneyOverflow("profit out of 64-bit range")
    profit = after_wages - interest_paid
    # replacements carry no history: they re-enter at the origin
    points[bankrupt] = 0.0
    profit[bankrupt] = 0

    state.ledger = ledger
    state.capital = capital
    state.last_profit = profit
    state.worker_shop = shops
    state.t = t
    yield _record(state, points, tuple(counts.tolist()), int(bankrupt.size))


def records(config: EconomyConfig, timings: dict | None = None) -> Iterator[StepRecord]:
    """Initialise and advance n_steps; deterministic given the seed.

    Yields one record per step boundary, the t = 0 snapshot first, each
    as soon as its step is done, so a caller can use and drop it while
    the next one is made. ``timings``, if given, accumulates the seconds
    of each phase over all steps (see :func:`step`).
    """
    state = init_economy(config)
    yield initial_record(state)
    for _ in range(config.n_steps):
        yield step(state, timings)


def run(config: EconomyConfig) -> list[StepRecord]:
    """All of ``records(config)``: one record per step boundary."""
    return list(records(config))

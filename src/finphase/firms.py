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

Two phases are defined by a pass over the firms in id order: owner
consumption and classification + investment/repayment, where a firm's
deposit at its turn includes what lower firms paid it. Both are evaluated
exactly by :func:`_in_order`, and the step raises the error the in-order
pass would raise first.

The ledger conservation residual is zero after every step, bit-exactly.
One economy instance is sequential; independent seeds are independent.
"""

from __future__ import annotations

import bisect
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


def _in_order(dep, target, pays):
    """A pass over the firms in id order, in which each firm pays firm
    ``target[k]`` the amount ``pays(at_turn)[0][k]`` given the deposits at
    each turn. Returns those deposits, the mask of those out of the money
    range, and then what ``pays`` returns for them.

    A firm's deposit at its turn is ``dep`` plus the payments of the lower
    firms that pay it, so the payments are the fixed point of recomputing
    ``pays`` from the pass before. Iterated from no payments, pass p is
    exact for every firm whose chain of lower payers is shorter than p,
    and the loop stops the first time the lower payers' amounts repeat;
    the pay map is monotone, so the iterates rise to the in-order result.
    The chains of lower ids are at most n long, hence at most n + 1 passes.
    """
    n = len(dep)
    lower = np.flatnonzero(target > np.arange(n))  # paid before the payee's turn
    ahead = target[lower]
    paid = np.zeros(len(lower), dtype=np.int64)
    for _ in range(n + 1):
        at_turn, over = _sums(dep, ahead, paid)
        amount, *rest = pays(at_turn)
        if np.array_equal(amount[lower], paid):
            break
        paid = amount[lower]
    return at_turn, over, amount, *rest


def _settle(dep, early, target, amount, taken):
    """The deposits after the last turn of an in-order pass, and the first
    turn at which a check fails, or None if none does.

    At firm k's turn its deposit (``dep[k]`` plus what lower firms sent
    it) loses ``taken[k]`` and firm ``target[k]`` gains ``amount[k]``;
    ``early[k]`` marks a check that fails no later than firm k's turn. A
    deposit rises up to its own turn, drops there and rises again, so
    within the first m turns it peaks just before its turn or after the
    last of them. Whether some check fails or some deposit leaves the money
    range within the first m turns is then monotone in m, and bisection
    finds the least such m.
    """
    after, past = _sums(dep - taken, target, amount)
    if not (early.any() or past.any()):
        return after, None

    def fails(m: int) -> bool:
        done = np.arange(len(dep)) < m
        _, peak = _sums(dep - np.where(done, taken, 0), target, np.where(done, amount, 0))
        return bool((early & done).any() or peak.any())

    # turn m - 1 for the least m with fails(m); fails(n) holds
    return after, bisect.bisect_left(range(1, len(dep)), True, key=fails)


def _owner_consumption(dep, receipts, shop_of, frac: float):
    """Owner consumption: in id order each firm i draws
    ``int(deposit * frac)`` of its deposit at its turn and spends it at
    firm ``shop_of[i]`` (:func:`_in_order`; the draw map rises with the
    deposit). Returns the draws and the receipts with these sales added,
    or raises what the in-order loop raises first: InsufficientFunds for a
    draw above its deposit (a float product rounded up), MoneyOverflow for
    a deposit or receipt out of range.
    """

    def pays(at_turn):
        product = at_turn * frac  # float64, truncated below: int(deposit * frac)
        return np.minimum(product, _BELOW_2_63).astype(np.int64), product

    at_turn, over, draws, product = _in_order(dep, shop_of, pays)
    short = (product >= 2.0**63) | (draws > at_turn)
    after, turn = _settle(dep, over | short, shop_of, draws, draws)
    if turn is not None:
        if short[turn]:
            raise InsufficientFunds(f"firm {turn} holds {at_turn[turn]}, draws {int(product[turn])}")
        raise MoneyOverflow(f"deposit of firm {shop_of[turn]} out of 64-bit range")
    # the sales, after - (dep - draws), may pass MONEY_MAX where after does
    # not; in this order no term of the check wraps
    if (receipts - MONEY_MAX + after > dep - draws).any():
        raise MoneyOverflow("receipts out of 64-bit range")
    return draws, receipts + (after - (dep - draws))


def _invest(dep, debt, capital, last_profit, seller_of, rate: float, margin: float):
    """Phase 4 in id order: each firm is classified from its position at
    its turn; a B firm with positive last profit borrows it and buys
    capital goods for it from firm ``seller_of[i]`` (None: one firm,
    nobody to buy from), a C firm repays what its deposit covers.
    Returns the classes and the deposit, debt and capital columns'
    changes, or raises MoneyOverflow where the in-order loop would.

    Only a firm's deposit depends on the order (:func:`_in_order`). The
    pay map is monotone: more inbound lowers the interest due, so a firm
    only ever leaves class A.
    """
    lp = last_profit
    profit_rate = lp * STEPS_PER_YEAR / capital  # may wrap or round: fixed below
    # a negative profit is below any interest due (class A): its rate is not read
    inexact = (lp > _EXACT // STEPS_PER_YEAR) | (capital > _EXACT)
    for i in np.flatnonzero(inexact).tolist():
        profit_rate[i] = int(lp[i]) * STEPS_PER_YEAR / int(capital[i])
    annual_rate = rate * STEPS_PER_YEAR
    may_buy = (lp > 0) & (seller_of is not None)
    target = np.arange(len(dep)) if seller_of is None else seller_of

    def pays(at_turn):
        cls = classify(lp, np.maximum(debt - at_turn, 0) * rate, profit_rate, annual_rate, margin)
        # Capital goods change hands at cost: the sale adds to the seller's
        # cash but carries no margin, so it does not enter the seller's
        # profit. Only consumption sales do.
        return np.where(may_buy & (cls == FirmClass.B_VOLUNTARY_BORROWER), lp, 0), cls

    at_turn, over, spent, cls = _in_order(dep, target, pays)
    repaid = np.where(cls == FirmClass.C_VOLUNTARY_LENDER, np.minimum(at_turn, debt), 0)
    # a buyer's loan passes through its deposit before it pays the seller
    early = over | (at_turn > MONEY_MAX - spent) | (debt > MONEY_MAX - spent)
    after, turn = _settle(dep, early, target, spent, repaid)
    if turn is not None:
        raise MoneyOverflow(f"loan to firm {turn} out of 64-bit range")
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
    overflow. Owner consumption and phase 4 are defined in firm-id order
    (a firm's deposit grows from lower firms' purchases), are evaluated by
    :func:`_in_order` and raise what the in-order loop would raise first.
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

"""Agent-based capitalist economy: firms, workers, and one bank.

Firms pay wages (borrowing on any shortfall), workers spend everything
they earn at the firm they shop at, indebted firms pay interest into bank
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

Money split at initialisation: all agents (firms and workers) start with
zero balances and the entire base money sits as bank equity, i.e. as the
bank's reserve; every circulating euro is endogenous credit money. This
is what puts every firm exactly at the origin at t = 0 and lets a
post-bankruptcy replacement re-enter at the origin as well (its money
endowment from bank equity is the initial per-firm endowment: zero).

The ledger conservation residual is zero after every step, bit-exactly.
One economy instance is sequential; independent seeds are independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import rng
from .errors import InsufficientFunds, InvalidConfig, MoneyOverflow
from .ledger import MONEY_MAX, MONEY_MIN, Ledger, Money

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
    fresh firm's equipment. Every float field must be finite.
    """

    n_firms: int = 1000
    n_workers: int = 10000
    base_money: Money = 10**9
    wage: Money = 100
    interest_rate: float = 0.005
    investment_margin: float = 0.01
    depreciation: float = 0.01
    capitalist_consumption_fraction: float = 0.05
    n_steps: int = 20
    seed: int = 0
    initial_capital: Money = 3000
    customer_churn: float = 0.0

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value}")
        if self.n_firms < 1:
            raise InvalidConfig("n_firms must be >= 1")
        if self.n_workers < 0:
            raise InvalidConfig("n_workers must be >= 0")
        if self.base_money < 0:
            raise InvalidConfig("base_money must be >= 0")
        if not 0 <= self.wage <= MONEY_MAX:
            raise InvalidConfig("wage must be in [0, 2**63 - 1]")
        if self.interest_rate < 0:
            raise InvalidConfig("interest_rate must be >= 0")
        if self.investment_margin < 0:
            raise InvalidConfig("investment_margin must be >= 0")
        if not 0 <= self.depreciation < 1:
            raise InvalidConfig("depreciation must be in [0, 1)")
        if not 0 <= self.capitalist_consumption_fraction <= 1:
            raise InvalidConfig("capitalist_consumption_fraction must be in [0, 1]")
        if self.n_steps < 0:
            raise InvalidConfig("n_steps must be >= 0")
        if not 1 <= self.initial_capital <= MONEY_MAX:
            raise InvalidConfig("initial_capital must be in [1, 2**63 - 1]")
        if not 0 <= self.customer_churn <= 1:
            raise InvalidConfig("customer_churn must be in [0, 1]")


@dataclass(frozen=True)
class StepRecord:
    t: int
    points: np.ndarray  # (n_firms, 2) float64: x, y per firm
    class_counts: tuple  # (A, B, C) at classification time
    bankruptcies: int
    conservation_residual: Money


@dataclass
class EconomyState:
    """Per-firm columns are int64 arrays indexed by firm id (``cls`` holds
    FirmClass codes); ``worker_firm`` and ``worker_shop`` are indexed by
    worker."""

    config: EconomyConfig
    ledger: Ledger
    capital: np.ndarray  # book value per firm
    last_profit: np.ndarray  # previous step's profit per firm
    prev_net_debt: np.ndarray  # net debt at the previous step boundary
    cls: np.ndarray  # FirmClass per firm, from the latest classification
    employees: np.ndarray  # headcount per firm
    worker_firm: np.ndarray  # employer per worker
    worker_shop: np.ndarray  # current shop per worker
    t: int = 0


def classify(
    last_profit: Money,
    interest_due: Money,
    profit_rate: float,
    interest_rate: float,
    margin: float,
) -> FirmClass:
    """Classify a firm from its last profit and current position.

    A (involuntary borrower) if last_profit < the interest due on its net
    debt -- it must borrow just to service what it owes. B (voluntary
    borrower) if the annualised profit rate beats interest_rate + margin.
    C (voluntary lender) otherwise.
    """
    if last_profit < interest_due:
        return FirmClass.A_INVOLUNTARY_BORROWER
    if profit_rate > interest_rate + margin:
        return FirmClass.B_VOLUNTARY_BORROWER
    return FirmClass.C_VOLUNTARY_LENDER


def init_economy(config: EconomyConfig) -> EconomyState:
    """Set up the ledger and firm book values; all firms at the origin.

    Each worker also draws, uniformly at random, the firm it shops at;
    this market niche persists across steps apart from the per-step
    customer_churn fraction, which is what gives firms persistently
    different profitability.
    """
    config.validate()
    n = config.n_firms
    ledger = Ledger(n + config.n_workers, config.base_money)
    worker_firm = np.arange(config.n_workers, dtype=np.int64) % n
    worker_shop = rng.randint_block(
        rng.derive(config.seed, 0, _TAG_WORKER_TARGET), 0, config.n_workers, n
    )
    return EconomyState(
        config=config,
        ledger=ledger,
        capital=np.full(n, config.initial_capital, dtype=np.int64),
        last_profit=np.zeros(n, dtype=np.int64),
        prev_net_debt=np.zeros(n, dtype=np.int64),
        cls=np.full(n, FirmClass.C_VOLUNTARY_LENDER, dtype=np.int64),
        employees=np.bincount(worker_firm, minlength=n).astype(np.int64),
        worker_firm=worker_firm,
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


def _int64(values: list, what: str) -> np.ndarray:
    """A list of Python ints as an int64 column, or MoneyOverflow."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise MoneyOverflow(f"{what} out of 64-bit range") from None


def _other_firms(seed: int, t: int, tag: int, n: int) -> np.ndarray:
    """For each firm i, a uniformly drawn other firm (i + 1 + offset) % n."""
    offsets = rng.randint_block(rng.derive(seed, t, tag), 0, n, n - 1)
    return (np.arange(n) + 1 + offsets) % n


# Below this magnitude int64 -> float64 is exact, so numpy's division is
# Python's correctly rounded int / int, and a difference of two such
# values cannot wrap.
_EXACT = 2**52


def step(state: EconomyState) -> StepRecord:
    """Advance one step in fixed order: wages, consumption, interest,
    classification + investment/repayment, depreciation, bankruptcy,
    record. Returns the step's record.

    Phases that are independent per firm are array operations, posted as
    checked ledger batches (one per kind of posting). Owner consumption
    and phase 4 are order-dependent (a firm's deposit grows from earlier
    firms' purchases), so they loop over the firms in id order on Python
    ints, checking every balance as they go, and post their net result
    as one batch afterwards. Everything is posted to a copy of the ledger
    and built in new columns; the state takes them only
    after the last phase, so a step that raises leaves the state as it
    was.
    """
    cfg = state.config
    n = cfg.n_firms
    ledger = state.ledger.copy()
    dep = ledger.deposits  # read-only views that follow the postings
    debt = ledger.debts
    t = state.t + 1
    seed = cfg.seed
    wage = cfg.wage

    # (1) wages, borrowing any shortfall
    employees = state.employees
    if wage > MONEY_MAX // max(int(employees.max(initial=0)), 1):
        raise MoneyOverflow("wage bill out of 64-bit range")
    wages_paid = wage * employees
    short = wages_paid - dep[:n]
    owing = np.flatnonzero(short > 0)
    ledger.create_loan_many(owing, short[owing])
    workers = n + np.arange(cfg.n_workers)
    if wage:
        ledger.transfer_many(state.worker_firm, workers, np.full(cfg.n_workers, wage))

    # (2) consumption: workers spend everything at their shop (a churn
    # fraction re-picks its shop uniformly first), then owners draw a
    # fraction of their firm's deposit and spend it at a random other firm
    shops = state.worker_shop
    receipts = np.zeros(n, dtype=np.int64)
    if cfg.n_workers:
        if cfg.customer_churn > 0:
            churn_u = rng.uniform_block(rng.derive(seed, t, _TAG_CHURN), 0, cfg.n_workers)
            new_shops = rng.randint_block(
                rng.derive(seed, t, _TAG_WORKER_TARGET), 0, cfg.n_workers, n
            )
            shops = np.where(churn_u < cfg.customer_churn, new_shops, shops)
        paying = np.flatnonzero(dep[n:])
        spend, at = dep[n:][paying], shops[paying]
        ledger.transfer_many(workers[paying], at, spend)
        np.add.at(receipts, at, spend)
    frac = cfg.capitalist_consumption_fraction
    if frac > 0 and n > 1:
        shop_of = _other_firms(seed, t, _TAG_OWNER_TARGET, n)
        d = dep[:n].tolist()
        r = receipts.tolist()
        draws = [0] * n
        for i, shop in enumerate(shop_of.tolist()):
            di = d[i]
            draw = int(di * frac)
            if draw:
                # The batch checks only the loop's net result; these catch
                # balances that are out of range mid-loop only.
                if draw > di:
                    raise InsufficientFunds(f"firm {i} holds {di}, draws {draw}")
                if d[shop] > MONEY_MAX - draw:
                    raise MoneyOverflow(f"deposit of firm {shop} out of 64-bit range")
                d[i] = di - draw
                d[shop] += draw
                r[shop] += draw
                draws[i] = draw
        draws = np.array(draws, dtype=np.int64)
        owners = np.flatnonzero(draws)
        ledger.transfer_many(owners, shop_of[owners], draws[owners])
        receipts = _int64(r, "receipts")

    # (3) interest on outstanding debt, paid into bank equity
    rate = cfg.interest_rate
    interest_paid = np.zeros(n, dtype=np.int64)
    if rate > 0:
        due = debt[:n] * rate  # float64 and truncated, exactly as int(debt * rate)
        if not (due < 2.0**63).all():
            raise MoneyOverflow("interest due out of 64-bit range")
        interest_paid = due.astype(np.int64)
        short = interest_paid - dep[:n]
        owing = np.flatnonzero(short > 0)
        ledger.create_loan_many(owing, short[owing])
        payers = np.flatnonzero(interest_paid)
        ledger.pay_to_bank_many(payers, interest_paid[payers])

    # (4) classification, then investment (B) or repayment (C)
    annual_rate = rate * STEPS_PER_YEAR
    margin = cfg.investment_margin
    seller_of = _other_firms(seed, t, _TAG_INVEST_TARGET, n) if n > 1 else None
    sellers = None if seller_of is None else seller_of.tolist()
    d = dep[:n].tolist()
    b = debt[:n].tolist()
    caps = state.capital.tolist()
    cls = [0] * n
    counts = [0, 0, 0]
    for i, lp in enumerate(state.last_profit.tolist()):
        di, bi = d[i], b[i]
        nd = bi - di
        due = int(nd * rate) if nd > 0 else 0
        c = classify(lp, due, lp * STEPS_PER_YEAR / caps[i], annual_rate, margin)
        cls[i] = c
        counts[c] += 1
        if c is FirmClass.B_VOLUNTARY_BORROWER:
            if lp > 0 and sellers is not None:
                # Capital goods change hands at cost: the sale adds to the
                # seller's cash but carries no margin, so it does not enter
                # the seller's profit. Only consumption sales do.
                seller = sellers[i]
                if max(di, bi, d[seller]) > MONEY_MAX - lp:
                    raise MoneyOverflow(f"loan to firm {i} out of 64-bit range")
                b[i] = bi + lp
                d[seller] += lp
                caps[i] += lp
        elif c is FirmClass.C_VOLUNTARY_LENDER:
            repay = min(di, bi)
            if repay:
                d[i] = di - repay
                b[i] = bi - repay
    # the loop's loans, purchases and repayments, posted as their net result
    # (every balance stayed in range above, so these columns are int64)
    dep_change = np.array(d, dtype=np.int64) - dep[:n]
    debt_change = np.array(b, dtype=np.int64) - debt[:n]
    moved = np.flatnonzero(dep_change | debt_change)
    ledger.settle_many(moved, dep_change[moved], debt_change[moved])
    capital = _int64(caps, "capital")

    # (5) depreciation: book-value write-down, no money moves
    dep_rate = cfg.depreciation
    if dep_rate > 0:
        capital -= (capital * dep_rate).astype(np.int64)

    # (6) bankruptcy: net debt above capital stock wipes the account and
    # a fresh firm re-enters at the origin
    bankrupt = np.flatnonzero(debt[:n] - dep[:n] > capital)
    ledger.annihilate_many(bankrupt)
    capital[bankrupt] = cfg.initial_capital

    # (7) profits, phase points, record
    net_debt = debt[:n] - dep[:n]  # 0 for the bankrupt firms
    prev = state.prev_net_debt
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
    state.cls = np.array(cls, dtype=np.int64)
    state.last_profit = profit
    state.prev_net_debt = net_debt
    state.worker_shop = shops
    state.t = t
    return _record(state, points, (counts[0], counts[1], counts[2]), int(bankrupt.size))


def run(config: EconomyConfig) -> list[StepRecord]:
    """Initialise and advance n_steps; deterministic given the seed.

    Returns one record per step boundary, including the t = 0 snapshot.
    """
    state = init_economy(config)
    records = [initial_record(state)]
    for _ in range(config.n_steps):
        records.append(step(state))
    return records

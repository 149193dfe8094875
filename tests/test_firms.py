"""Firm economy: initialisation, step mechanics, invariants, trends."""

import copy
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from finphase import firms, phase
from finphase.errors import InsufficientFunds, InvalidConfig, MoneyOverflow
from finphase.firms import (
    STEPS_PER_YEAR,
    EconomyConfig,
    FirmClass,
    classify,
    init_economy,
    initial_record,
    run,
    step,
)
from finphase.ledger import MONEY_MAX, MONEY_MIN, Ledger

from conftest import conservation_oracle


def small_config(**kwargs):
    base = dict(n_firms=50, n_workers=500, base_money=10**8, n_steps=10, seed=0)
    base.update(kwargs)
    return EconomyConfig(**base)


def records_equal(a, b):
    """Field-wise equality of two record streams; points are arrays."""
    return len(a) == len(b) and all(
        (ra.t, ra.class_counts, ra.bankruptcies, ra.conservation_residual)
        == (rb.t, rb.class_counts, rb.bankruptcies, rb.conservation_residual)
        and np.array_equal(ra.points, rb.points)
        for ra, rb in zip(a, b)
    )


class TestInitEconomy:
    def test_all_firms_at_origin_with_zero_balances(self):
        state = init_economy(small_config())
        assert state.ledger.deposits[:50].tolist() == [0] * 50
        assert state.ledger.debts[:50].tolist() == [0] * 50
        assert state.capital.tolist() == [state.config.initial_capital] * 50
        rec = initial_record(state)
        assert (rec.points == 0.0).all()

    def test_documented_split_hundred_firms(self):
        # the per-agent split is zero: the whole base money is bank reserve
        state = init_economy(EconomyConfig(n_firms=100, base_money=10**8))
        assert state.ledger.deposits[:100].tolist() == [0] * 100
        assert state.ledger.bank_equity == 10**8

    def test_conservation_at_t0(self):
        state = init_economy(small_config())
        assert conservation_oracle(state.ledger) == 0
        assert initial_record(state).conservation_residual == 0

    def test_workers_spread_over_firms(self):
        state = init_economy(small_config())
        assert sum(state.employees) == 500
        assert all(e == 10 for e in state.employees)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            init_economy(small_config(n_firms=0))
        with pytest.raises(InvalidConfig):
            init_economy(small_config(depreciation=1.0))
        with pytest.raises(InvalidConfig):
            init_economy(small_config(capitalist_consumption_fraction=1.5))
        with pytest.raises(InvalidConfig):
            init_economy(small_config(initial_capital=0))
        with pytest.raises(InvalidConfig):
            init_economy(small_config(customer_churn=-0.1))
        with pytest.raises(InvalidConfig, match="^interest_rate must be finite"):
            init_economy(small_config(interest_rate=float("nan")))
        with pytest.raises(InvalidConfig, match="^investment_margin must be finite"):
            init_economy(small_config(investment_margin=float("inf")))


class TestClassify:
    def test_voluntary_borrower(self):
        # high profit rate, well in excess of interest plus margin
        cls = classify(
            last_profit=np.array([30]), interest_due=np.array([10.0]),
            profit_rate=np.array([0.3]), interest_rate=0.1, margin=0.05,
        )
        assert cls.tolist() == [FirmClass.B_VOLUNTARY_BORROWER]

    def test_involuntary_borrower(self):
        # profit below the interest due on its net debt
        cls = classify(
            last_profit=np.array([5]), interest_due=np.array([10.0]),
            profit_rate=np.array([0.4]), interest_rate=0.1, margin=0.05,
        )
        assert cls.tolist() == [FirmClass.A_INVOLUNTARY_BORROWER]

    def test_voluntary_lender(self):
        # no debt, positive cash, profit rate below the hurdle
        cls = classify(
            last_profit=np.array([5]), interest_due=np.array([0.0]),
            profit_rate=np.array([0.05]), interest_rate=0.1, margin=0.05,
        )
        assert cls.tolist() == [FirmClass.C_VOLUNTARY_LENDER]


class TestStep:
    def test_null_dynamics_without_money_flows(self):
        config = small_config(
            n_workers=0,
            capitalist_consumption_fraction=0.0,
            interest_rate=0.0,
            depreciation=0.0,
        )
        state = init_economy(config)
        rec = step(state)
        assert (rec.points == 0.0).all()
        assert rec.conservation_residual == 0
        assert state.ledger.bank_equity == config.base_money

    def test_conservation_after_every_step(self):
        state = init_economy(small_config())
        for _ in range(10):
            rec = step(state)
            assert rec.conservation_residual == 0
            assert conservation_oracle(state.ledger) == 0

    def test_no_live_firm_beyond_the_wall(self):
        for seed in range(3):
            records = run(small_config(seed=seed, n_steps=30))
            for rec in records:
                assert (rec.points[:, 0] <= 1.0).all()

    def test_discrete_momentum_identity_each_step(self):
        # sum of net-position changes over all agents plus the bank's
        # equity change is zero across any step
        state = init_economy(small_config())

        def net_positions(ledger):
            return [d - b for d, b in zip(ledger.deposits.tolist(), ledger.debts.tolist())]

        for _ in range(5):
            before = net_positions(state.ledger)
            equity_before = state.ledger.bank_equity
            step(state)
            delta = sum(after - b for after, b in zip(net_positions(state.ledger), before))
            assert delta + (state.ledger.bank_equity - equity_before) == 0

    def test_replacement_firm_reenters_at_origin(self):
        config = small_config(initial_capital=300, n_steps=0)
        state = init_economy(config)
        total_bankruptcies = 0
        for _ in range(25):
            rec = step(state)
            total_bankruptcies += rec.bankruptcies
            if rec.bankruptcies:
                fresh = np.flatnonzero((rec.points == 0.0).all(axis=1))
                assert fresh.size  # the replaced slots are among the origin points
                for i in fresh.tolist():
                    assert state.capital[i] >= 1
        assert total_bankruptcies > 0
        assert conservation_oracle(state.ledger) == 0

    def test_classes_partition_population(self):
        state = init_economy(small_config())
        for _ in range(5):
            rec = step(state)
            assert sum(rec.class_counts) == state.config.n_firms


def snapshot(state):
    """Everything a step may change, as plain Python values."""
    return (
        state.t,
        state.ledger.deposits.tolist(),
        state.ledger.debts.tolist(),
        state.ledger.bank_equity,
        state.capital.tolist(),
        state.last_profit.tolist(),
        state.worker_shop.tolist(),
    )


class TestTransactionalStep:
    @pytest.mark.parametrize("churn", [0.0, 0.5])
    def test_failed_step_leaves_state_unchanged(self, churn):
        # Interest paid into an equity already at 2**63 - 1 overflows in
        # phase 3, after wages, loans, consumption and (with churn) shop
        # changes were worked out.
        config = EconomyConfig(
            n_firms=5, n_workers=50, base_money=2**63 - 1, customer_churn=churn
        )
        state = init_economy(config)
        before = snapshot(state)
        with pytest.raises(MoneyOverflow):
            step(state)
        assert snapshot(state) == before

    def test_receipts_are_summed_exactly_before_they_are_posted(self):
        wage = MONEY_MAX // 2
        cases = [  # (firms, each worker's shop, deposits, the agent named)
            # Four workers paid MONEY_MAX // 2 each all shop at firm 0: its
            # receipts total 2 * MONEY_MAX - 2, which wraps in int64, so
            # summed there the posting would not conserve money instead of
            # overflowing.
            (2, [0, 0, 0, 0], [0, 0], 0),
            # One worker per firm. Firm 0's two customers bring in a wage
            # more than it pays, one past its headroom; firm 1's three
            # customers bring in more than int64 holds. The lowest is named.
            (5, [0, 0, 1, 1, 1], [MONEY_MAX - wage + 1, 0, 0, 0, 0], 0),
            # Only firm 1 passes its headroom.
            (5, [0, 1, 1, 2, 3], [0, MONEY_MAX - wage + 1, 0, 0, 0], 1),
        ]
        for n_firms, shops, deposit, agent in cases:
            config = EconomyConfig(n_firms=n_firms, n_workers=len(shops), wage=wage)
            state = init_economy(config)
            state.worker_shop = np.array(shops, dtype=np.int64)
            state.ledger.post(np.array(deposit, dtype=np.int64), equity_change=-sum(deposit))
            before = snapshot(state)
            with pytest.raises(
                MoneyOverflow, match=f"^balance of agent {agent} would exceed 64-bit range$"
            ):
                step(state)
            assert snapshot(state) == before

    def test_step_after_success_commits(self):
        state = init_economy(small_config())
        before = snapshot(state)
        step(state)
        assert state.t == 1
        assert snapshot(state) != before


class TestInvestmentSettlement:
    """Phase 4 posts its loans, purchases and repayments as one net
    batch, each firm acting on its deposit at the start of the phase, so
    which of buyer and lender has the lower id does not change the result."""

    def economy(self, lender):
        # Two firms, no wages, consumption or interest. Firm `lender` is a
        # C firm holding 2**63 - 1 - 10 and owing 2000; the other is a B
        # firm that borrows 1000 to buy capital goods from it.
        config = EconomyConfig(
            n_firms=2, n_workers=0, base_money=MONEY_MAX, wage=0, interest_rate=0.0,
            depreciation=0.0, capitalist_consumption_fraction=0.0,
        )
        state = init_economy(config)
        change = np.zeros(2, dtype=np.int64)
        change[lender] = MONEY_MAX - 2010
        state.ledger.post(change, equity_change=-(MONEY_MAX - 2010))  # paid by the bank
        change[lender] = 2000
        state.ledger.post(change, change)  # a loan
        state.last_profit[1 - lender] = 1000
        return state

    def test_lender_repays_before_the_purchase_arrives(self):
        state = self.economy(lender=0)
        rec = step(state)
        assert rec.class_counts == (0, 1, 1)
        assert rec.conservation_residual == 0
        assert state.ledger.deposits.tolist() == [MONEY_MAX - 1010, 0]
        assert state.ledger.debts.tolist() == [0, 1000]
        assert state.capital.tolist() == [3000, 4000]

    def test_purchase_and_repayment_settle_in_either_order(self):
        # the mirror image: the buyer has the lower id
        state = self.economy(lender=1)
        rec = step(state)
        assert rec.class_counts == (0, 1, 1)
        assert rec.conservation_residual == 0
        assert state.ledger.deposits.tolist() == [0, MONEY_MAX - 1010]
        assert state.ledger.debts.tolist() == [1000, 0]
        assert state.capital.tolist() == [4000, 3000]


class TestExactRecord:
    def test_division_beyond_float_precision(self):
        # Four firms, no wages or interest. Firm 0 holds d = 3 * 2**61 at
        # the boundary, spends all of it (fraction 1.0) and borrows its last
        # profit b for capital goods: its net debt goes from -d to b. The
        # record must be Python's correctly rounded int / int even where
        # int64 -> float64 rounds (b) or b - (-d) overflows int64 (firm 0's y).
        d, b = 3 * 2**61, 3 * 2**61 + 513
        config = EconomyConfig(
            n_firms=4, n_workers=0, base_money=MONEY_MAX, interest_rate=0.0,
            depreciation=0.0, capitalist_consumption_fraction=1.0, seed=4,
        )
        # in step 1 firm 0 shops at firm 3, which held nothing when the
        # phase began and so keeps what it is paid, and buys from firm 1
        assert firms._other_firms(4, 1, firms._TAG_OWNER_TARGET, 4).tolist() == [3, 2, 1, 2]
        assert firms._other_firms(4, 1, firms._TAG_INVEST_TARGET, 4)[0] == 1
        state = init_economy(config)
        state.ledger.post(np.array([d, 0, 0, 0], dtype=np.int64), equity_change=-d)  # from the bank
        state.last_profit[0] = b
        k = 3000 + b  # firm 0's capital after the purchase
        assert float(-b) / 3000.0 != -b / 3000  # float64 division would differ
        assert b + d > MONEY_MAX
        rec = step(state)
        assert rec.bankruptcies == 0
        assert rec.points.tolist() == [
            [b / k, (b + d) / k],
            [-b / 3000, -b / 3000],
            [0.0, 0.0],
            [-d / 3000, -d / 3000],
        ]
        assert (state.ledger.debts - state.ledger.deposits).tolist() == [b, -b, 0, -d]

    def test_change_is_measured_from_the_ledger(self):
        # Two firms and no flows. Between the steps the bank pays firm 0
        # 1000: its net debt is -1000 when step 2 begins and when it ends,
        # so its y is 0.
        config = EconomyConfig(
            n_firms=2, n_workers=0, base_money=10**6, interest_rate=0.0,
            depreciation=0.0, capitalist_consumption_fraction=0.0,
        )
        state = init_economy(config)
        assert step(state).points.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        state.ledger.post(np.array([1000, 0], dtype=np.int64), equity_change=-1000)
        assert step(state).points.tolist() == [[-1000 / 3000, 0.0], [0.0, 0.0]]


class TestRun:
    def test_zero_steps_only_snapshot(self):
        records = run(small_config(n_steps=0))
        assert len(records) == 1
        assert records[0].t == 0

    def test_deterministic_record_stream(self):
        a = run(small_config(seed=11))
        b = run(small_config(seed=11))
        c = run(small_config(seed=12))
        assert records_equal(a, b)
        assert not records_equal(a, c)

    def test_entropy_and_dispersion_trends_over_seeds(self):
        grid = phase.GridSpec.default()
        h2, h5, h20, s2, s20, r2, r20 = [], [], [], [], [], [], []
        for seed in range(10):
            records = run(EconomyConfig(n_firms=200, n_workers=2000, n_steps=20, seed=seed))
            ent = lambda t: phase.entropy(phase.bin_phase(records[t].points, grid))
            met = lambda t: phase.tail_metrics(records[t].points)
            h2.append(ent(2)), h5.append(ent(5)), h20.append(ent(20))
            s2.append(met(2).std_x), s20.append(met(20).std_x)
            r2.append(met(2).rentier_fraction), r20.append(met(20).rentier_fraction)
        med = statistics.median
        assert med(h20) > med(h5) > med(h2)
        assert med(s20) > med(s2)
        assert med(r20) > med(r2)

    def test_late_stage_skew_is_negative(self):
        skews = []
        for seed in range(10):
            records = run(EconomyConfig(n_firms=200, n_workers=2000, n_steps=20, seed=seed))
            skews.append(phase.tail_metrics(records[20].points).skew_x)
        assert statistics.median(skews) < 0


# -- the simultaneous-order oracle ---------------------------------------------
#
# Owner consumption and phase 4 as loops on Python ints: every firm decides
# from the balances at the start of the phase, then the flows settle and
# every balance is checked. They take and return what
# firms._owner_consumption and firms._invest do, so they can also stand in
# for them inside step. They also raise the error of the posting step makes
# of those results, so the functions are compared with them through
# posted_owner_consumption and posted_invest.


def _int64(values: list, what: str) -> np.ndarray:
    """A list of Python ints as an int64 column, or MoneyOverflow."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise MoneyOverflow(f"{what} out of 64-bit range") from None


def _check_balances(values: list) -> None:
    """MoneyOverflow for the lowest balance above MONEY_MAX, as Ledger.post words it."""
    for i, v in enumerate(values):
        if v > MONEY_MAX:
            raise MoneyOverflow(f"balance of agent {i} would exceed 64-bit range")


def classify_oracle(last_profit, interest_due, profit_rate, interest_rate, margin):
    if last_profit < interest_due:
        return FirmClass.A_INVOLUNTARY_BORROWER
    if profit_rate > interest_rate + margin:
        return FirmClass.B_VOLUNTARY_BORROWER
    return FirmClass.C_VOLUNTARY_LENDER


def owner_consumption_oracle(dep, receipts, shop_of, frac):
    d = dep.tolist()
    r = receipts.tolist()
    draws = [int(di * frac) for di in d]
    for i, (di, draw) in enumerate(zip(d, draws)):
        if draw > di:
            raise InsufficientFunds(f"firm {i} holds {di}, draws {draw}")
    for i, shop in enumerate(shop_of.tolist()):
        d[i] -= draws[i]
        d[shop] += draws[i]
        r[shop] += draws[i]
    r = _int64(r, "receipts")
    _check_balances(d)
    return np.array(draws, dtype=np.int64), r


def invest_oracle(dep, debt, capital, last_profit, seller_of, rate, margin):
    annual_rate = rate * STEPS_PER_YEAR
    d = dep.tolist()
    b = debt.tolist()
    caps = capital.tolist()
    cls, spent, repaid = [], [], []
    for i, lp in enumerate(last_profit.tolist()):
        di, bi = d[i], b[i]
        nd = bi - di
        due = int(nd * rate) if nd > 0 else 0
        c = classify_oracle(lp, due, lp * STEPS_PER_YEAR / caps[i], annual_rate, margin)
        cls.append(c)
        buys = c is FirmClass.B_VOLUNTARY_BORROWER and lp > 0 and seller_of is not None
        spent.append(lp if buys else 0)
        repaid.append(min(di, bi) if c is FirmClass.C_VOLUNTARY_LENDER else 0)
    for i, seller in enumerate(range(len(d)) if seller_of is None else seller_of.tolist()):
        d[i] -= repaid[i]
        d[seller] += spent[i]
        b[i] += spent[i] - repaid[i]
        caps[i] += spent[i]
    _check_balances(d)
    caps = _int64(caps, "capital")
    _check_balances(b)
    dep_change = np.array(d, dtype=np.int64) - dep
    debt_change = np.array(b, dtype=np.int64) - debt
    return np.array(cls, dtype=np.int64), dep_change, debt_change, caps


def posted_owner_consumption(dep, receipts, shop_of, frac):
    """firms._owner_consumption, then step's posting of its deposit changes
    to a ledger of the opening deposits: its error if it raises one."""
    draws, with_sales = firms._owner_consumption(dep, receipts, shop_of, frac)
    Ledger._of(dep.copy(), np.zeros_like(dep), 0, 0).post(with_sales - receipts - draws)
    return draws, with_sales


def posted_invest(dep, debt, *args):
    """firms._invest, then step's posting of its deposit and debt changes."""
    result = firms._invest(dep, debt, *args)
    Ledger._of(dep.copy(), debt.copy(), 0, 0).post(result[1], result[2])
    return result


def outcome(fn, *args):
    """What ``fn(*args)`` returns, as plain lists, or the class and
    message of the money error it raises."""
    try:
        result = fn(*args)
    except (InsufficientFunds, MoneyOverflow) as exc:
        return type(exc), str(exc)
    return [col.tolist() for col in result]


# Balances small, above 2**53 (where int -> float64 rounds), and within
# 10**6 of MONEY_MAX, where small profits and draws cross it.
_money = st.one_of(
    st.integers(0, 10**6), st.integers(2**53, MONEY_MAX), st.integers(MONEY_MAX - 10**6, MONEY_MAX)
)
_profit = st.one_of(
    st.integers(-(10**6), 10**6), st.integers(MONEY_MIN, MONEY_MAX), st.integers(MONEY_MAX - 10**6, MONEY_MAX)
)
_capital = st.one_of(st.integers(1, 10**6), st.integers(2**52, MONEY_MAX))
_fraction = st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.5]), st.floats(0, 1))
_rate = st.one_of(st.sampled_from([0.0, 0.005, 0.5, 1.0, 3.0]), st.floats(0, 4))
_margin = st.one_of(st.sampled_from([0.0, 0.01]), st.floats(0, 1))


@st.composite
def _other_firms(draw, n):
    """For each firm, another firm (None for a single firm)."""
    if n == 1:
        return None
    offsets = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    return (np.arange(n) + 1 + np.array(offsets)) % n


def _column(draw, n, values):
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64)


@st.composite
def _owner_case(draw):
    n = draw(st.integers(2, 6))
    return (
        _column(draw, n, _money), _column(draw, n, _money),
        draw(_other_firms(n)), draw(_fraction),
    )


@st.composite
def _invest_case(draw):
    n = draw(st.integers(1, 6))
    return (
        _column(draw, n, _money), _column(draw, n, _money), _column(draw, n, _capital),
        _column(draw, n, _profit), draw(_other_firms(n)), draw(_rate), draw(_margin),
    )


def _arrays(*columns):
    return tuple(None if c is None else np.array(c, dtype=np.int64) for c in columns)


class TestOrderDependentPhases:
    """The array evaluation of owner consumption and phase 4, with the
    postings step makes of them, against the simultaneous-order loops: the
    same draws, classes and balances, or the same error."""

    @settings(max_examples=600, deadline=None)
    @given(_owner_case())
    # firm 1's float product rounds up to 2**63, so it draws more than it
    # holds; firm 2's draw to it is never posted
    @example(_arrays([0, MONEY_MAX, 10], [0, 0, 0], [1, 2, 1]) + (1.0,))
    # firm 0's draw would overflow firm 1's deposit, but firm 1's product
    # rounds up: the draws are checked before any deposit
    @example(_arrays([10, MONEY_MAX - 5, 0], [0, 0, 0], [1, 2, 0]) + (1.0,))
    # the deposits stay in range but a receipt does not
    @example(_arrays([10, 0], [0, MONEY_MAX - 5], [1, 0]) + (1.0,))
    # firm 1 sells firm 0's 2**62 and, holding nothing at the start of the
    # phase, passes none of it on to firm 2
    @example(_arrays([2**62, 0, 0], [0, 0, 0], [1, 2, 1]) + (1.0,))
    # firms 0 and 1 each receive two draws that lift their deposits past
    # MONEY_MAX, and the posting names firm 0
    @example(_arrays([MONEY_MAX - 10] * 4, [0] * 4, [1, 0, 0, 1]) + (0.001,))
    def test_owner_consumption_matches_the_loop(self, case):
        assert outcome(posted_owner_consumption, *case) == outcome(owner_consumption_oracle, *case)

    @settings(max_examples=600, deadline=None)
    @given(_invest_case())
    # a lender near MONEY_MAX repays and is paid for capital goods in the
    # same phase, whichever of buyer and lender has the lower id
    @example(_arrays([MONEY_MAX - 10, 0], [2000, 0], [3000, 3000], [0, 1000], [1, 0]) + (0.0, 0.01))
    @example(_arrays([0, MONEY_MAX - 10], [0, 2000], [3000, 3000], [1000, 0], [1, 0]) + (0.0, 0.01))
    # a buyer near MONEY_MAX buys: its loan pays the seller without passing
    # through its own deposit; then a loan that overflows the buyer's
    # debt (raised by the posting), and one that overflows its capital
    @example(_arrays([MONEY_MAX - 10, 0], [0, 0], [3000, 3000], [1000, 0], [1, 0]) + (0.0, 0.01))
    @example(_arrays([0, 0], [MONEY_MAX - 10, 0], [3000, 3000], [1000, 0], [1, 0]) + (0.0, 0.0))
    @example(_arrays([0, 0], [0, 0], [MONEY_MAX - 10, 3000], [2**62, 0], [1, 0]) + (0.0, 0.0))
    # two purchases overflow the seller's deposit together, not one alone
    @example(
        _arrays([0, 0, MONEY_MAX - 1500], [0, 0, 0], [3000] * 3, [1000, 1000, 0], [2, 2, 0])
        + (0.0, 0.0)
    )
    # interest due of 2**63 or more, with the largest profit
    @example(_arrays([0], [MONEY_MAX], [1], [MONEY_MAX], None) + (2.0, 0.0))
    def test_invest_matches_the_loop(self, case):
        assert outcome(posted_invest, *case) == outcome(invest_oracle, *case)

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_chains_of_lower_ids(self, n, direction):
        # Firm i pays firm i + direction. Each firm acts on its opening
        # deposit, so only what firm 0 holds moves, however long the chain,
        # and each phase is one _sums call.
        ids = np.arange(n)
        target = (ids + direction) % n
        dep = np.where(ids == 0, 10**15, 0)
        zeros = np.zeros(n, dtype=np.int64)

        def counted(fn, *args):
            with mock.patch.object(firms, "_sums", wraps=firms._sums) as sums:
                return outcome(fn, *args), sums.call_count

        args = (dep, zeros, target, 0.5)
        if n > 1:
            expected = outcome(owner_consumption_oracle, *args)
            assert counted(posted_owner_consumption, *args) == (expected, 1)
            assert expected[0] == [10**15 // 2] + [0] * (n - 1)
        # Each firm but the first owes enough interest to be class A, and a
        # purchase that reaches it within the phase does not change that.
        debt = np.where(ids == 0, 0, 1100)
        args = (zeros, debt, np.full(n, 100), np.full(n, 10), target if n > 1 else None, 0.01, 0.0)
        expected = outcome(invest_oracle, *args)
        assert counted(posted_invest, *args) == (expected, 1)
        classes = [FirmClass.B_VOLUNTARY_BORROWER] + [FirmClass.A_INVOLUNTARY_BORROWER] * (n - 1)
        assert expected[0] == classes
        if n == 40:
            # Firms 30 and 35 hold nearly MONEY_MAX. At fraction 1.0 both
            # their draws round up past their deposits. Without debt every
            # firm is B, and the purchases of their neighbours overflow both
            # their deposits. Either way, in both directions, the error
            # names the lower firm, 30.
            dep = np.where((ids == 30) | (ids == 35), MONEY_MAX - 5, dep)
            args = (dep, zeros, target, 1.0)
            expected = outcome(owner_consumption_oracle, *args)
            assert outcome(posted_owner_consumption, *args) == expected
            assert expected == (InsufficientFunds, f"firm 30 holds {MONEY_MAX - 5}, draws {2**63}")
            args = (dep, zeros, np.full(n, 100), np.full(n, 10), target, 0.01, 0.0)
            expected = outcome(invest_oracle, *args)
            assert outcome(posted_invest, *args) == expected
            assert expected == (MoneyOverflow, "balance of agent 30 would exceed 64-bit range")

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 4),
        n_workers=st.integers(0, 6),
        seed=st.integers(0, 2**32),
        wage=st.sampled_from([0, 100, 2**60]),
        frac=_fraction,
        rate=_rate,
        margin=_margin,
        data=st.data(),
    )
    def test_step_matches_the_loops(self, n, n_workers, seed, wage, frac, rate, margin, data):
        config = EconomyConfig(
            n_firms=n, n_workers=n_workers, base_money=MONEY_MAX // 2, wage=wage,
            interest_rate=rate, investment_margin=margin,
            capitalist_consumption_fraction=frac, seed=seed,
        )
        state = init_economy(config)
        dep, debt = _column(data.draw, n, _money), _column(data.draw, n, _money)
        try:
            ledger = Ledger(n, config.base_money)
            initial = np.maximum(dep - debt, 0)
            ledger.post(initial, equity_change=-sum(initial.tolist()))  # deposits
            ledger.post(debt, debt)  # loans
            paid = np.maximum(debt - dep, 0)
            ledger.post(-paid, equity_change=sum(paid.tolist()))  # paid to the bank
        except MoneyOverflow:
            reject()  # not a representable starting ledger
        state.ledger = ledger
        state.capital = _column(data.draw, n, _capital)
        state.last_profit = _column(data.draw, n, _profit)
        looped = copy.deepcopy(state)

        def run_step(s):
            try:
                rec = step(s)
            except (InsufficientFunds, MoneyOverflow) as exc:
                return type(exc), str(exc)
            return rec.t, rec.class_counts, rec.bankruptcies, rec.conservation_residual, rec.points

        result = run_step(state)
        with mock.patch.object(firms, "_owner_consumption", owner_consumption_oracle), \
                mock.patch.object(firms, "_invest", invest_oracle):
            expected = run_step(looped)
        assert len(result) == len(expected)
        if len(result) == 5:
            assert result[:4] == expected[:4]
            assert np.array_equal(result[4], expected[4], equal_nan=True)
        else:
            assert result == expected
        assert snapshot(state) == snapshot(looped)

"""Firm economy: initialisation, step mechanics, invariants, trends."""

import statistics

import numpy as np
import pytest

from finphase import phase
from finphase.errors import InvalidConfig, MoneyOverflow
from finphase.firms import (
    EconomyConfig,
    FirmClass,
    classify,
    init_economy,
    initial_record,
    run,
    step,
)
from finphase.ledger import MONEY_MAX

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
        for i in range(50):
            assert state.ledger.account(i).deposit == 0
            assert state.ledger.account(i).debt == 0
            assert state.capital[i] == state.config.initial_capital
        rec = initial_record(state)
        assert (rec.points == 0.0).all()

    def test_documented_split_hundred_firms(self):
        # the per-agent split is zero: the whole base money is bank reserve
        state = init_economy(EconomyConfig(n_firms=100, base_money=10**8))
        assert all(state.ledger.deposit(i) == 0 for i in range(100))
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
            last_profit=30, interest_due=10, profit_rate=0.3,
            interest_rate=0.1, margin=0.05,
        )
        assert cls is FirmClass.B_VOLUNTARY_BORROWER

    def test_involuntary_borrower(self):
        # profit below the interest due on its net debt
        cls = classify(
            last_profit=5, interest_due=10, profit_rate=0.4,
            interest_rate=0.1, margin=0.05,
        )
        assert cls is FirmClass.A_INVOLUNTARY_BORROWER

    def test_voluntary_lender(self):
        # no debt, positive cash, profit rate below the hurdle
        cls = classify(
            last_profit=5, interest_due=0, profit_rate=0.05,
            interest_rate=0.1, margin=0.05,
        )
        assert cls is FirmClass.C_VOLUNTARY_LENDER


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
        n_total = state.config.n_firms + state.config.n_workers
        for _ in range(5):
            before = [state.ledger.net_position(i) for i in range(n_total)]
            equity_before = state.ledger.bank_equity
            step(state)
            delta = sum(
                state.ledger.net_position(i) - before[i] for i in range(n_total)
            )
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
        list(state.ledger.accounts()),
        state.ledger.bank_equity,
        state.capital.tolist(),
        state.cls.tolist(),
        state.last_profit.tolist(),
        state.prev_net_debt.tolist(),
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

    def test_step_after_success_commits(self):
        state = init_economy(small_config())
        before = snapshot(state)
        step(state)
        assert state.t == 1
        assert snapshot(state) != before


class TestInvestmentSettlement:
    """Phase 4 posts its loans, purchases and repayments as one net
    batch, so a step succeeds exactly when the one-at-a-time postings in
    firm-id order would."""

    def economy(self, lender):
        # Two firms, no wages, consumption or interest. Firm `lender` is a
        # C firm holding 2**63 - 1 - 10 and owing 2000; the other is a B
        # firm that borrows 1000 to buy capital goods from it.
        config = EconomyConfig(
            n_firms=2, n_workers=0, base_money=MONEY_MAX, wage=0, interest_rate=0.0,
            depreciation=0.0, capitalist_consumption_fraction=0.0,
        )
        state = init_economy(config)
        state.ledger.pay_from_bank(lender, MONEY_MAX - 2010)
        state.ledger.create_loan(lender, 2000)
        state.last_profit[1 - lender] = 1000
        return state

    def test_lender_repays_before_the_purchase_arrives(self):
        state = self.economy(lender=0)
        rec = step(state)
        assert rec.class_counts == (0, 1, 1)
        assert rec.conservation_residual == 0
        assert list(state.ledger.accounts()) == [(0, (MONEY_MAX - 1010, 0)), (1, (0, 1000))]
        assert state.capital.tolist() == [3000, 4000]

    def test_purchase_before_the_repayment_overflows(self):
        state = self.economy(lender=1)
        before = snapshot(state)
        with pytest.raises(MoneyOverflow):
            step(state)
        assert snapshot(state) == before


class TestExactRecord:
    def test_division_beyond_float_precision(self):
        # Two firms, no flows: firm 0 holds a deposit of a = 2**60 + 32
        # lent to firm 1. The record must be Python's correctly rounded
        # int / int even where int64 -> float64 rounds (a) or nd - prev
        # overflows int64 (firm 0's y).
        a = 2**60 + 32
        config = EconomyConfig(
            n_firms=2, n_workers=0, base_money=0, interest_rate=0.0,
            depreciation=0.0, capitalist_consumption_fraction=0.0,
        )
        state = init_economy(config)
        state.ledger.create_loan(1, a)
        state.ledger.transfer(1, 0, a)
        state.capital = np.array([3, 2**62], dtype=np.int64)
        state.prev_net_debt = np.array([2**63 - 1, -(2**62)], dtype=np.int64)
        assert float(-a) / 3.0 != -a / 3  # float64 division would differ
        rec = step(state)
        assert rec.bankruptcies == 0
        assert rec.points.tolist() == [
            [-a / 3, (-a - (2**63 - 1)) / 3],
            [a / 2**62, (a + 2**62) / 2**62],
        ]
        assert state.prev_net_debt.tolist() == [-a, a]


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

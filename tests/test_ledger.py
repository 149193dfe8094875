"""Ledger operations: conservation, inverses, errors, snapshots."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finphase import firms, rng
from finphase.errors import (
    FinphaseError,
    InsufficientFunds,
    MoneyOverflow,
    NoSuchDebt,
    ParseError,
    SelfTransfer,
    UnknownAgent,
)
from finphase.ledger import MONEY_MAX, Account, Ledger

from conftest import conservation_oracle


def make_ledger(deposits, base_money=10**6):
    return Ledger(len(deposits), base_money, deposits)


class TestTransfer:
    def test_zero_amount_is_identity(self):
        led = make_ledger([100, 200])
        led.transfer(0, 1, 0)
        assert led.account(0) == Account(100, 0)
        assert led.account(1) == Account(200, 0)

    def test_inverse_pair_restores_ledger(self):
        led = make_ledger([100, 200])
        led.transfer(0, 1, 70)
        led.transfer(1, 0, 70)
        assert led.account(0) == Account(100, 0)
        assert led.account(1) == Account(200, 0)

    def test_moves_exactly_amount(self):
        led = make_ledger([100, 200])
        led.transfer(0, 1, 30)
        assert led.account(0).deposit == 70
        assert led.account(1).deposit == 230
        assert conservation_oracle(led) == 0

    def test_insufficient_funds(self):
        led = make_ledger([10, 0])
        with pytest.raises(InsufficientFunds):
            led.transfer(0, 1, 11)
        # failed op must not partially apply
        assert led.account(0) == Account(10, 0)

    def test_self_transfer_rejected(self):
        led = make_ledger([10, 10])
        with pytest.raises(SelfTransfer):
            led.transfer(1, 1, 1)

    def test_unknown_agent(self):
        led = make_ledger([10, 10])
        with pytest.raises(UnknownAgent):
            led.transfer(0, 2, 1)
        with pytest.raises(UnknownAgent):
            led.transfer(-1, 0, 1)

    def test_negative_amount_rejected(self):
        led = make_ledger([10, 10])
        with pytest.raises(ValueError):
            led.transfer(0, 1, -5)

    def test_million_random_transfers_conserve(self):
        # Summation oracle checked every 1e5 events.
        n = 10_000
        led = Ledger(n, 10**10, [1000] * n)
        payers = rng.randint_block(1, 0, 10**6, n).tolist()
        offsets = rng.randint_block(2, 0, 10**6, n - 1).tolist()
        amounts = rng.randint_block(3, 0, 10**6, 500).tolist()
        for k, (p, off, a) in enumerate(zip(payers, offsets, amounts)):
            q = (p + 1 + off) % n
            have = led.deposit(p)
            led.transfer(p, q, a if a <= have else have)
            if (k + 1) % 10**5 == 0:
                assert conservation_oracle(led) == 0
        assert conservation_oracle(led) == 0


class TestCreateLoan:
    def test_zero_is_identity(self):
        led = make_ledger([5, 5])
        led.create_loan(0, 0)
        assert led.account(0) == Account(5, 0)

    def test_asset_liability_pair_cancels(self):
        led = make_ledger([0, 0])
        led.create_loan(0, 100)
        assert led.account(0) == Account(100, 100)
        assert led.net_position(0) == 0
        assert conservation_oracle(led) == 0

    def test_loan_sequences_conserve(self):
        led = make_ledger([10, 20, 30])
        for agent, amount in [(0, 7), (1, 0), (2, 1000), (0, 3)]:
            led.create_loan(agent, amount)
            assert conservation_oracle(led) == 0

    def test_overflow_is_hard_error(self):
        led = make_ledger([0, 0], base_money=0)
        led.create_loan(0, MONEY_MAX - 10)
        with pytest.raises(MoneyOverflow):
            led.create_loan(0, 11)
        assert led.account(0) == Account(MONEY_MAX - 10, MONEY_MAX - 10)


class TestRepayLoan:
    def test_repay_inverts_loan(self):
        led = make_ledger([50, 0])
        led.create_loan(0, 200)
        led.repay_loan(0, 200)
        assert led.account(0) == Account(50, 0)

    def test_zero_repay_is_identity(self):
        led = make_ledger([50, 0])
        led.repay_loan(0, 0)
        assert led.account(0) == Account(50, 0)

    def test_no_such_debt(self):
        led = make_ledger([50, 0])
        led.create_loan(0, 10)
        with pytest.raises(NoSuchDebt):
            led.repay_loan(0, 11)

    def test_insufficient_funds_on_repay(self):
        led = make_ledger([0, 0])
        led.create_loan(0, 10)
        led.transfer(0, 1, 5)
        with pytest.raises(InsufficientFunds):
            led.repay_loan(0, 6)

    def test_random_interleavings_conserve(self):
        led = make_ledger([100] * 5)
        amounts = rng.randint_block(7, 0, 200, 50).tolist()
        agents = rng.randint_block(8, 0, 200, 5).tolist()
        kinds = rng.randint_block(9, 0, 200, 2).tolist()
        for agent, amount, kind in zip(agents, amounts, kinds):
            if kind == 0:
                led.create_loan(agent, amount)
            else:
                a = led.account(agent)
                led.repay_loan(agent, min(amount, a.deposit, a.debt))
            assert conservation_oracle(led) == 0


class TestAnnihilate:
    def test_writeoff_hits_bank_equity(self):
        led = make_ledger([0, 0], base_money=1000)
        led.create_loan(0, 100)
        led.transfer(0, 1, 90)  # deposit 10, debt 100
        before = led.bank_equity
        led.annihilate(0)
        assert led.account(0) == Account(0, 0)
        assert led.bank_equity == before + (10 - 100)
        assert conservation_oracle(led) == 0

    def test_empty_account_is_noop(self):
        led = make_ledger([0, 0], base_money=7)
        before = led.bank_equity
        led.annihilate(0)
        assert led.bank_equity == before
        assert led.account(0) == Account(0, 0)

    def test_annihilate_everyone_restores_base_money(self):
        led = make_ledger([10, 20, 30], base_money=500)
        led.create_loan(0, 99)
        led.transfer(0, 2, 40)
        for agent in range(3):
            led.annihilate(agent)
        assert led.bank_equity == 500
        assert conservation_oracle(led) == 0


class TestDistinctAgents:
    """The duplicate checks of ``settle_many`` and ``annihilate_many``."""

    @pytest.mark.parametrize("agents", [[0, 0], [1, 0, 1], [2, 1, 0, 2], [3, 3, 3]])
    def test_settle_rejects_a_repeated_agent(self, agents):
        led = make_ledger([10, 0, 0, 0])
        zeros = [0] * len(agents)
        with pytest.raises(ValueError, match="^settle_many takes each agent at most once$"):
            led.settle_many(agents, zeros, zeros)

    @pytest.mark.parametrize(
        "bankrupt, posted",
        [([], []), ([2], [2]), ([3, 1, 3, 0, 1], [0, 1, 3]), ([2, 2, 2], [2])],
    )
    def test_annihilate_posts_sorted_distinct_ids(self, monkeypatch, bankrupt, posted):
        led = make_ledger([10, 20, 30, 40])
        led.create_loan(3, 50)
        commits = []
        commit = Ledger._commit

        def spy(self, idx, **deltas):
            commits.append(idx.tolist())
            commit(self, idx, **deltas)

        monkeypatch.setattr(Ledger, "_commit", spy)
        led.annihilate_many(bankrupt)
        assert commits == [posted]
        assert [led.account(a) for a in posted] == [Account(0, 0)] * len(posted)
        assert led.conservation_residual() == 0

    def test_a_firms_step_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma (~19 ms) on its first call; a fresh
        # interpreter shows whether any posting of a step still reaches it.
        code = (
            "import sys\n"
            "from finphase import firms\n"
            "firms.run(firms.EconomyConfig(n_firms=30, n_workers=100, n_steps=3))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(firms.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "False\n"


class TestNetPosition:
    def test_fresh_account_zero(self):
        led = Ledger(3, 100)
        assert led.net_position(0) == 0

    def test_unchanged_by_loan(self):
        led = Ledger(3, 100)
        led.create_loan(1, 50)
        assert led.net_position(1) == 0

    def test_signed_arithmetic(self):
        led = make_ledger([30, 0])
        led.create_loan(0, 100)
        led.transfer(0, 1, 100)  # deposit 30, debt 100
        assert led.net_position(0) == -70


class TestBankFlows:
    def test_pay_to_bank(self):
        led = make_ledger([100, 0], base_money=50)
        led.pay_to_bank(0, 40)
        assert led.deposit(0) == 60
        assert conservation_oracle(led) == 0

    def test_pay_to_bank_insufficient(self):
        led = make_ledger([10, 0])
        with pytest.raises(InsufficientFunds):
            led.pay_to_bank(0, 11)

    def test_pay_from_bank_can_go_negative(self):
        led = Ledger(2, 10)
        led.pay_from_bank(0, 25)
        assert led.deposit(0) == 25
        assert led.bank_equity == -15
        assert conservation_oracle(led) == 0


class TestConservationResidual:
    def test_new_ledger(self):
        assert Ledger(10, 12345).conservation_residual() == 0
        assert make_ledger([1, 2, 3]).conservation_residual() == 0

    def test_after_each_single_op(self):
        for op in ("transfer", "create_loan", "repay_loan", "annihilate"):
            led = make_ledger([100, 100])
            led.create_loan(0, 10)
            getattr(led, op)(*{"transfer": (0, 1, 5), "create_loan": (0, 5),
                               "repay_loan": (0, 5), "annihilate": (0,)}[op])
            assert led.conservation_residual() == 0
            assert conservation_oracle(led) == 0


class TestSnapshots:
    def test_csv_roundtrip(self, tmp_path):
        led = make_ledger([5, 0, 17], base_money=999)
        led.create_loan(1, 4)
        path = tmp_path / "snap.csv"
        led.write_csv(path)
        text = path.read_text()
        assert text.startswith("agent_id,deposit,debt\n")
        assert "#bank_equity," in text and "#base_money,999" in text
        clone = Ledger.read_csv(path)
        assert list(clone.accounts()) == list(led.accounts())
        assert clone.bank_equity == led.bank_equity
        assert clone.base_money == led.base_money

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("0,5,0\n#bank_equity,-95\n#base_money,5\n", 3, "conservation residual -95"),
            ("0,5,0\n#bank_equity,-9\n#base_money,-4\n", 4, "'#base_money,-4'"),
            (f"#bank_equity,0\n#base_money,{2**63}\n", 3, "'#base_money,"),
            (f"#bank_equity,{-(2**63) - 1}\n#base_money,0\n", 2, "'#bank_equity,"),
            ("0,-5,0\n#bank_equity,5\n#base_money,0\n", 2, "'0,-5,0'"),
            (f"0,{2**63},0\n#bank_equity,0\n#base_money,0\n", 2, "'0,"),
            ("0,5\n#bank_equity,0\n#base_money,5\n", 2, "'0,5'"),
            ("1,5,0\n#bank_equity,0\n#base_money,5\n", 2, "'1,5,0'"),
            ("0,5,x\n#bank_equity,0\n#base_money,5\n", 2, "'0,5,x'"),
            ("0,5,0\n#equity,0\n#base_money,5\n", 3, "'#equity,0'"),
        ],
    )
    def test_read_csv_rejects_bad_snapshots(self, tmp_path, body, line, message):
        path = tmp_path / "snap.csv"
        path.write_text("agent_id,deposit,debt\n" + body)
        with pytest.raises(ParseError, match=f"^line {line}: .*{message}") as exc:
            Ledger.read_csv(path)
        assert exc.value.line == line

    def test_copy_is_independent(self):
        led = make_ledger([10, 10])
        clone = led.copy()
        led.transfer(0, 1, 5)
        assert clone.account(0) == Account(10, 0)


def test_base_money_is_immutable():
    led = Ledger(2, 1000)
    with pytest.raises(AttributeError):
        led.base_money = 5
    with pytest.raises(AttributeError):
        led.bank_equity = 5


def test_queries_reject_unknown_agents():
    led = Ledger(2, 1000)
    for call in (led.net_position, led.annihilate, led.account, led.deposit):
        with pytest.raises(UnknownAgent):
            call(2)


# --- property tests ---------------------------------------------------------

_op = st.tuples(
    st.sampled_from(["transfer", "loan", "repay", "annihilate", "to_bank", "from_bank"]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 10**6),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_op, max_size=60), st.lists(st.integers(0, 10**6), min_size=5, max_size=5))
def test_random_operation_sequences_preserve_conservation(ops, deposits):
    led = Ledger(5, 10**9, deposits)
    net_before = [led.net_position(i) for i in range(5)]
    equity_before = led.bank_equity
    for kind, a, b, amount in ops:
        if kind == "transfer" and a != b:
            led.transfer(a, b, min(amount, led.deposit(a)))
        elif kind == "loan":
            led.create_loan(a, amount)
        elif kind == "repay":
            acct = led.account(a)
            led.repay_loan(a, min(amount, acct.deposit, acct.debt))
        elif kind == "annihilate":
            led.annihilate(a)
        elif kind == "to_bank":
            led.pay_to_bank(a, min(amount, led.deposit(a)))
        elif kind == "from_bank":
            led.pay_from_bank(a, amount)
    assert conservation_oracle(led) == 0
    assert led.conservation_residual() == 0
    for i in range(5):
        acct = led.account(i)
        assert acct.deposit >= 0 and acct.debt >= 0
    # discrete momentum conservation over the whole window
    delta_net = sum(led.net_position(i) - net_before[i] for i in range(5))
    assert delta_net + (led.bank_equity - equity_before) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
)
def test_transfer_antisymmetry(start, x, others):
    # equalise a and b, then a->b must mirror b->a up to relabeling
    amount = min(x, start)
    led1 = Ledger(6, 10**10, [start, start] + others)
    led2 = Ledger(6, 10**10, [start, start] + others)
    led1.transfer(0, 1, amount)
    led2.transfer(1, 0, amount)
    net1 = sorted(led1.net_position(i) for i in range(6))
    net2 = sorted(led2.net_position(i) for i in range(6))
    assert net1 == net2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**12), st.integers(0, 10**9))
def test_loan_then_repay_is_identity(deposit, amount):
    led = Ledger(2, 10**13, [deposit, 0])
    before = (led.account(0), led.account(1), led.bank_equity)
    led.create_loan(0, amount)
    led.repay_loan(0, amount)
    assert (led.account(0), led.account(1), led.bank_equity) == before


# --- batch postings ----------------------------------------------------------

def _state(led):
    return list(led.accounts()), led.bank_equity


# Mixed scales: small amounts exercise the ordinary checks, amounts in
# [2**61, 2**63-1] the overflow headroom and the wide (Python int) sums.
_amount = st.one_of(st.integers(0, 1000), st.integers(2**61, MONEY_MAX))
_agent = st.integers(0, 4)

# kind -> (row strategy, scalar method, batch method)
_BATCHES = {
    "transfer": (st.tuples(_agent, _agent, _amount), "transfer", "transfer_many"),
    "loan": (st.tuples(_agent, _amount), "create_loan", "create_loan_many"),
    "repay": (st.tuples(_agent, _amount), "repay_loan", "repay_many"),
    "to_bank": (st.tuples(_agent, _amount), "pay_to_bank", "pay_to_bank_many"),
    "annihilate": (st.tuples(_agent), "annihilate", "annihilate_many"),
}
_ARITY = {"transfer": 3, "loan": 2, "repay": 2, "to_bank": 2, "annihilate": 1}


@st.composite
def _batch_case(draw):
    kind = draw(st.sampled_from(sorted(_BATCHES)))
    rows = draw(st.lists(_BATCHES[kind][0], max_size=8))
    deposits = draw(st.lists(_amount, min_size=5, max_size=5))
    loans = draw(st.lists(st.one_of(st.just(0), _amount), min_size=5, max_size=5))
    base = draw(st.one_of(st.integers(0, MONEY_MAX), st.just(MONEY_MAX)))
    return kind, rows, deposits, loans, base


def _reference(kind, rows, led):
    """The postings one at a time on Python ints, with the list-backed
    ledger's checks; None if one fails."""
    dep = [a.deposit for _, a in led.accounts()]
    debt = [a.debt for _, a in led.accounts()]
    equity = led.bank_equity
    for row in rows:
        i, amount = row[0], row[-1]
        if kind == "transfer":
            j = row[1]
            if i == j or dep[i] < amount or dep[j] + amount > MONEY_MAX:
                return None
            dep[i] -= amount
            dep[j] += amount
        elif kind == "loan":
            if max(dep[i], debt[i]) + amount > MONEY_MAX:
                return None
            dep[i] += amount
            debt[i] += amount
        elif kind == "repay":
            if min(dep[i], debt[i]) < amount:
                return None
            dep[i] -= amount
            debt[i] -= amount
        elif kind == "to_bank":
            if dep[i] < amount or equity + amount > MONEY_MAX:
                return None
            dep[i] -= amount
            equity += amount
        else:  # annihilate
            equity += dep[i] - debt[i]
            if not -(2**63) <= equity <= MONEY_MAX:
                return None
            dep[i] = debt[i] = 0
    return [(k, (d, b)) for k, (d, b) in enumerate(zip(dep, debt))], equity


@settings(max_examples=400, deadline=None)
@given(_batch_case())
def test_batch_equals_sequential_scalar_ops(case):
    kind, rows, deposits, loans, base = case
    if base - sum(deposits) < -(2**63) or max(map(sum, zip(deposits, loans))) > MONEY_MAX:
        return  # not a representable starting ledger
    led = Ledger(5, base, deposits)
    led.create_loan_many(range(5), loans)
    _, scalar, batch = _BATCHES[kind]
    before = _state(led)
    expected = _reference(kind, rows, led)

    sequential = led.copy()
    try:
        for row in rows:
            getattr(sequential, scalar)(*row)
        assert _state(sequential) == expected
    except (FinphaseError, ValueError):
        assert expected is None

    batched = led.copy()
    columns = [[row[i] for row in rows] for i in range(_ARITY[kind])]
    try:
        getattr(batched, batch)(*columns)
        assert batched.conservation_residual() == 0
        assert conservation_oracle(batched) == 0
    except (FinphaseError, ValueError):
        assert _state(batched) == before  # a rejected batch writes nothing
        assert expected is None  # only a failing sequence may be rejected
    else:
        if expected is not None:
            assert _state(batched) == expected


class TestBatchEdges:
    def test_two_large_inflows_overflow_without_wrapping(self):
        led = Ledger(3, MONEY_MAX, [1, 2**62, 2**62])
        before = _state(led)
        with pytest.raises(MoneyOverflow):
            led.transfer_many([1, 2], [0, 0], [2**62, 2**62])
        assert _state(led) == before
        with pytest.raises(MoneyOverflow):
            led.create_loan_many([0, 0], [2**62, 2**62])
        assert _state(led) == before

    def test_balances_reach_money_max_exactly(self):
        led = Ledger(3, MONEY_MAX, [0, 0, 10])
        led.create_loan_many([0], [MONEY_MAX])
        led.transfer_many([0, 2], [1, 1], [MONEY_MAX - 10, 10])
        led.pay_to_bank_many([1], [0])
        assert _state(led)[0] == [(0, (10, MONEY_MAX)), (1, (MONEY_MAX, 0)), (2, (0, 0))]
        assert led.conservation_residual() == 0

    def test_batch_total_above_int64_sums_exactly(self):
        # three 2**62 transfers round a ring: the batch total is 3 * 2**62,
        # every net change and every balance fits
        led = Ledger(3, MONEY_MAX, [2**62, 2**62, 0])
        sequential = led.copy()
        for src, dst in ((0, 2), (1, 0), (2, 1)):
            sequential.transfer(src, dst, 2**62)
        led.transfer_many([0, 1, 2], [2, 0, 1], [2**62] * 3)
        assert _state(led) == _state(sequential)
        assert led.conservation_residual() == 0

    def test_bank_equity_overflow_rejects_whole_batch(self):
        led = Ledger(2, MONEY_MAX)
        led.create_loan_many([0, 1], [10, 10])
        before = _state(led)
        with pytest.raises(MoneyOverflow):
            led.pay_to_bank_many([0, 1], [1, 1])
        assert _state(led) == before

    def test_spend_what_the_batch_brings_in(self):
        led = make_ledger([0, 50, 0])
        led.transfer_many([1, 0], [0, 2], [50, 50])
        assert [led.deposit(i) for i in range(3)] == [0, 0, 50]

    def test_mismatched_lengths_and_bad_inputs(self):
        led = make_ledger([10, 10])
        with pytest.raises(ValueError):
            led.transfer_many([0], [1, 1], [1])
        with pytest.raises(UnknownAgent):
            led.create_loan_many([0, 2], [1, 1])
        with pytest.raises(SelfTransfer):
            led.transfer_many([0, 1], [1, 1], [1, 1])
        with pytest.raises(MoneyOverflow):
            led.pay_to_bank_many([0], [2**63])
        assert _state(led) == _state(make_ledger([10, 10]))

    def test_rejected_batch_leaves_no_partial_sums_behind(self):
        led = make_ledger([10, 0, 0])
        with pytest.raises(InsufficientFunds):
            led.transfer_many([0, 1], [1, 2], [10, 11])  # agent 1 nets -1
        led.transfer_many([0], [2], [4])
        assert [led.deposit(i) for i in range(3)] == [6, 0, 4]
        assert led.conservation_residual() == 0

    def test_column_views_are_read_only_and_follow_postings(self):
        led = make_ledger([10, 0])
        dep = led.deposits
        with pytest.raises(ValueError):
            dep[0] = 99
        led.transfer(0, 1, 4)
        assert dep.tolist() == [6, 4]
        led.create_loan(1, 3)
        assert led.debts.tolist() == [0, 3]


class TestSettle:
    def test_equals_the_gross_postings(self):
        # agent 1 borrows 30 and pays it to agent 0, which repays 25
        led = make_ledger([20, 0, 5])
        led.create_loan(0, 25)
        gross = led.copy()
        gross.create_loan(1, 30)
        gross.transfer(1, 0, 30)
        gross.repay_loan(0, 25)
        led.settle_many([0, 1], [30 - 25, 0], [-25, 30])
        assert _state(led) == _state(gross)
        assert conservation_oracle(led) == 0

    def test_net_result_may_pass_through_money_max(self):
        # Agent 0 holds MONEY_MAX - 10 and owes 2000. Receiving 1000
        # before repaying would overflow; the net result fits.
        led = Ledger(2, MONEY_MAX, [MONEY_MAX - 2010, 0])
        led.create_loan(0, 2000)
        gross = led.copy()
        gross.create_loan(1, 1000)
        with pytest.raises(MoneyOverflow):
            gross.transfer(1, 0, 1000)
        led.settle_many([0, 1], [1000 - 2000, 0], [-2000, 1000])
        assert _state(led)[0] == [(0, (MONEY_MAX - 1010, 0)), (1, (0, 1000))]
        assert led.conservation_residual() == 0

    @pytest.mark.parametrize(
        "agents, dep_change, debt_change, error",
        [
            ([0, 0], [1, -1], [0, 0], ValueError),  # repeated agent
            ([0], [5], [4], ValueError),  # would create money
            ([0, 1], [-16, 16], [0, 0], InsufficientFunds),
            ([0, 1], [-5, 0], [-6, 1], NoSuchDebt),
            ([0, 1], [MONEY_MAX, 0], [0, MONEY_MAX], MoneyOverflow),
            ([0], [2**63], [2**63], MoneyOverflow),  # change beyond int64
            ([0], [1, 2], [3], ValueError),
        ],
    )
    def test_rejected_settlement_writes_nothing(self, agents, dep_change, debt_change, error):
        led = make_ledger([10, 0], base_money=MONEY_MAX)
        led.create_loan(0, 5)
        before = _state(led)
        with pytest.raises(error):
            led.settle_many(agents, dep_change, debt_change)
        assert _state(led) == before

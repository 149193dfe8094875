"""Ledger postings: conservation, inverses, errors, snapshots, and the
exact summation kernel behind them.

Each kind of flow is a dense change column given to ``Ledger.post``, as
the firm economy builds them; the helpers below build them for one row
(``transfer``, ``create_loan``, ...) or net several rows exactly (``net``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finphase import firms, rng
from finphase.errors import (
    FinphaseError,
    InsufficientFunds,
    InvalidConfig,
    MoneyOverflow,
    NoSuchDebt,
)
from finphase.ledger import MONEY_MAX, MONEY_MIN, Ledger, _sums, _total

from conftest import conservation_oracle


def make_ledger(deposits, base_money=10**6):
    """A ledger whose agents hold ``deposits``, paid out of the bank's
    equity in one posting."""
    led = Ledger(len(deposits), base_money)
    led.post(column(deposits), equity_change=-sum(deposits))
    return led


# -- postings as the firm economy builds them: dense change columns --------


def account(led, agent):
    """An agent's (deposit, debt), as Python ints."""
    return int(led.deposits[agent]), int(led.debts[agent])


def net_position(led, agent):
    deposit, debt = account(led, agent)
    return deposit - debt


def column(values):
    """A change column: int64, or an object column where a value is too
    wide for int64 (a posting rejects it as not int64)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def net(led, *rows):
    """Rows of (agent, change) summed exactly into one dense column with
    an entry for each of the ledger's agents."""
    out = [0] * led.n_agents
    for agent, change in rows:
        out[agent] += change
    return column(out)


def transfer(led, src, dst, amount):
    led.post(net(led, (src, -amount), (dst, amount)))


def create_loan(led, agent, amount):
    change = net(led, (agent, amount))
    led.post(change, change)


def repay_loan(led, agent, amount):
    change = net(led, (agent, -amount))
    led.post(change, change)


def pay_to_bank(led, agent, amount):
    led.post(net(led, (agent, -amount)), equity_change=amount)


def pay_from_bank(led, agent, amount):
    led.post(net(led, (agent, amount)), equity_change=-amount)


def annihilate(led, *agents):
    """Write off the listed accounts (a repeat counts once), as the
    bankruptcy phase does: masked columns, the net on bank equity."""
    wiped = np.isin(np.arange(led.n_agents), agents)
    dep = np.where(wiped, led.deposits, 0)
    debt = np.where(wiped, led.debts, 0)
    led.post(-dep, -debt, equity_change=sum(dep.tolist()) - sum(debt.tolist()))


class TestTransfer:
    def test_zero_amount_is_identity(self):
        led = make_ledger([100, 200])
        transfer(led, 0, 1, 0)
        assert account(led, 0) == (100, 0)
        assert account(led, 1) == (200, 0)

    def test_inverse_pair_restores_ledger(self):
        led = make_ledger([100, 200])
        transfer(led, 0, 1, 70)
        transfer(led, 1, 0, 70)
        assert account(led, 0) == (100, 0)
        assert account(led, 1) == (200, 0)

    def test_moves_exactly_amount(self):
        led = make_ledger([100, 200])
        transfer(led, 0, 1, 30)
        assert led.deposits.tolist() == [70, 230]
        assert conservation_oracle(led) == 0

    def test_insufficient_funds(self):
        led = make_ledger([10, 0])
        with pytest.raises(InsufficientFunds, match="^agent 0 holds 10, batch takes 11$"):
            transfer(led, 0, 1, 11)
        # failed op must not partially apply
        assert account(led, 0) == (10, 0)

    def test_self_transfer_nets_to_nothing(self):
        # a column has one entry per agent: paying oneself is a zero change
        led = make_ledger([10, 10])
        assert net(led, (1, -1), (1, 1)).tolist() == [0, 0]
        transfer(led, 1, 1, 1)
        assert [account(led, i) for i in (0, 1)] == [(10, 0)] * 2

    def test_unknown_agent(self):
        # a column reaching agent 2 of a two-agent ledger, or one stopping
        # short of agent 1, is rejected before anything is written
        led = make_ledger([10, 10])
        with pytest.raises(InvalidConfig, match="^change column of 3 for a ledger of 2 agents$"):
            led.post(column([-1, 0, 1]))
        with pytest.raises(InvalidConfig, match="^change column of 3 for a ledger of 2 agents$"):
            led.post(column([0, 0]), column([0, 0, 0]))
        with pytest.raises(InvalidConfig, match="^change column of 1 for a ledger of 2 agents$"):
            led.post(column([0]), equity_change=0)
        with pytest.raises(InvalidConfig, match="^change column of 1 for a ledger of 2 agents$"):
            led.post(column([0, 0]), column([0]))
        assert led.deposits.tolist() == [10, 10]

    def test_negative_amount_rejected(self):
        # funding a negative deposit is a shortfall like any other posting
        with pytest.raises(InsufficientFunds, match="^agent 1 holds 0, batch takes 5$"):
            make_ledger([10, -5])
        led = make_ledger([10, 10])
        with pytest.raises(ValueError, match="^posting does not conserve money$"):
            led.post(column([-5, -5]))  # a payment of -5 to agent 1 that agent 0 also makes
        assert led.deposits.tolist() == [10, 10]

    def test_million_random_transfers_conserve(self):
        # 1e6 random transfers in ten netted batches of 1e5, the summation
        # oracle checked after each. Each transfer is capped at its payer's
        # deposit at the batch's start divided by the payer's transfers in
        # the batch, so no payer can overdraw.
        n = 10_000
        led = make_ledger([1000] * n, 10**10)
        payers = rng.randint_block(1, 0, 10**6, n)
        offsets = rng.randint_block(2, 0, 10**6, n - 1)
        amounts = rng.randint_block(3, 0, 10**6, 500)
        payees = (payers + 1 + offsets) % n
        batch = 10**5
        for start in range(0, 10**6, batch):
            p, q = payers[start : start + batch], payees[start : start + batch]
            times = np.bincount(p, minlength=n)
            cap = led.deposits[p] // times[p]
            amount = np.minimum(amounts[start : start + batch], cap)
            change = np.zeros(n, dtype=np.int64)
            np.add.at(change, q, amount)
            np.subtract.at(change, p, amount)
            led.post(change)
            assert conservation_oracle(led) == 0
        assert int(led.deposits.sum()) == 1000 * n
        assert conservation_oracle(led) == 0


class TestCreateLoan:
    def test_zero_is_identity(self):
        led = make_ledger([5, 5])
        create_loan(led, 0, 0)
        assert account(led, 0) == (5, 0)

    def test_asset_liability_pair_cancels(self):
        led = make_ledger([0, 0])
        create_loan(led, 0, 100)
        assert account(led, 0) == (100, 100)
        assert net_position(led, 0) == 0
        assert conservation_oracle(led) == 0

    def test_loan_sequences_conserve(self):
        led = make_ledger([10, 20, 30])
        for agent, amount in [(0, 7), (1, 0), (2, 1000), (0, 3)]:
            create_loan(led, agent, amount)
            assert conservation_oracle(led) == 0

    def test_overflow_is_hard_error(self):
        led = make_ledger([0, 0], base_money=0)
        create_loan(led, 0, MONEY_MAX - 10)
        with pytest.raises(MoneyOverflow, match="^balance of agent 0 would exceed 64-bit range$"):
            create_loan(led, 0, 11)
        assert account(led, 0) == (MONEY_MAX - 10, MONEY_MAX - 10)


class TestRepayLoan:
    def test_repay_inverts_loan(self):
        led = make_ledger([50, 0])
        create_loan(led, 0, 200)
        repay_loan(led, 0, 200)
        assert account(led, 0) == (50, 0)

    def test_zero_repay_is_identity(self):
        led = make_ledger([50, 0])
        repay_loan(led, 0, 0)
        assert account(led, 0) == (50, 0)

    def test_no_such_debt(self):
        led = make_ledger([50, 0])
        create_loan(led, 0, 10)
        with pytest.raises(NoSuchDebt, match="^agent 0 owes 10, batch takes 11$"):
            repay_loan(led, 0, 11)

    def test_insufficient_funds_on_repay(self):
        led = make_ledger([0, 0])
        create_loan(led, 0, 10)
        transfer(led, 0, 1, 5)
        with pytest.raises(InsufficientFunds):
            repay_loan(led, 0, 6)

    def test_random_interleavings_conserve(self):
        led = make_ledger([100] * 5)
        amounts = rng.randint_block(7, 0, 200, 50).tolist()
        agents = rng.randint_block(8, 0, 200, 5).tolist()
        kinds = rng.randint_block(9, 0, 200, 2).tolist()
        for agent, amount, kind in zip(agents, amounts, kinds):
            if kind == 0:
                create_loan(led, agent, amount)
            else:
                repay_loan(led, agent, min(amount, *account(led, agent)))
            assert conservation_oracle(led) == 0


class TestAnnihilate:
    def test_writeoff_hits_bank_equity(self):
        led = make_ledger([0, 0], base_money=1000)
        create_loan(led, 0, 100)
        transfer(led, 0, 1, 90)  # deposit 10, debt 100
        before = led.bank_equity
        annihilate(led, 0)
        assert account(led, 0) == (0, 0)
        assert led.bank_equity == before + (10 - 100)
        assert conservation_oracle(led) == 0

    def test_empty_account_is_noop(self):
        led = make_ledger([0, 0], base_money=7)
        before = led.bank_equity
        annihilate(led, 0)
        assert led.bank_equity == before
        assert account(led, 0) == (0, 0)

    def test_annihilate_everyone_restores_base_money(self):
        led = make_ledger([10, 20, 30], base_money=500)
        create_loan(led, 0, 99)
        transfer(led, 0, 2, 40)
        for agent in range(3):
            annihilate(led, agent)
        assert led.bank_equity == 500
        assert conservation_oracle(led) == 0


class TestDistinctAgents:
    """A column holds one change per agent: repeated agents are netted
    into their entry, exactly, before the one posting."""

    @pytest.mark.parametrize("agents", [[0, 0], [1, 0, 1], [2, 1, 0, 2], [3, 3, 3]])
    def test_rows_of_a_repeated_agent_net_into_one_entry(self, agents):
        # Each row lends 2**62 (the repeats' sums pass MONEY_MAX, so the
        # kernel flags them) or 1000 (they fit).
        for amount in (2**62, 1000):
            led = make_ledger([10, 0, 0, 0])
            rows = np.full(len(agents), amount, dtype=np.int64)
            change, over = _sums(np.zeros(led.n_agents, dtype=np.int64), np.array(agents), rows)
            exact = [agents.count(a) * amount for a in range(led.n_agents)]
            assert over.tolist() == [s > MONEY_MAX for s in exact]
            assert change[~over].tolist() == [s for s in exact if s <= MONEY_MAX]
            sequential = led.copy()
            try:
                for agent in agents:
                    create_loan(sequential, agent, amount)
            except MoneyOverflow:
                assert over.any()  # only a flagged sum fails one row at a time
                with pytest.raises(TypeError):  # its exact sum is no int64 column
                    led.post(column(exact), column(exact))
                assert _state(led) == _state(make_ledger([10, 0, 0, 0]))
            else:
                assert not over.any()
                led.post(change, change)
                assert _state(led) == _state(sequential)

    @pytest.mark.parametrize(
        "bankrupt, posted",
        [([], []), ([2], [2]), ([3, 1, 3, 0, 1], [0, 1, 3]), ([2, 2, 2], [2])],
    )
    def test_annihilate_posts_sorted_distinct_ids(self, monkeypatch, bankrupt, posted):
        led = make_ledger([10, 20, 30, 40])
        create_loan(led, 3, 50)
        before = led.copy()
        columns = []
        post = Ledger.post

        def spy(self, dep_change, debt_change=None, equity_change=0):
            columns.append((dep_change, debt_change, equity_change))
            post(self, dep_change, debt_change, equity_change)

        monkeypatch.setattr(Ledger, "post", spy)
        annihilate(led, *bankrupt)
        [(dep, debt, equity)] = columns  # one posting
        assert np.flatnonzero(dep).tolist() == posted  # each account once
        assert np.flatnonzero(debt).tolist() == [a for a in posted if a == 3]  # the debtor
        assert equity == sum(net_position(before, a) for a in posted)
        assert [account(led, a) for a in posted] == [(0, 0)] * len(posted)
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
        assert net_position(led, 0) == 0

    def test_unchanged_by_loan(self):
        led = Ledger(3, 100)
        create_loan(led, 1, 50)
        assert net_position(led, 1) == 0

    def test_signed_arithmetic(self):
        led = make_ledger([30, 0])
        create_loan(led, 0, 100)
        transfer(led, 0, 1, 100)  # deposit 30, debt 100
        assert net_position(led, 0) == -70


class TestBankFlows:
    def test_pay_to_bank(self):
        led = make_ledger([100, 0], base_money=50)
        pay_to_bank(led, 0, 40)
        assert int(led.deposits[0]) == 60
        assert conservation_oracle(led) == 0

    def test_pay_to_bank_insufficient(self):
        led = make_ledger([10, 0])
        with pytest.raises(InsufficientFunds):
            pay_to_bank(led, 0, 11)

    def test_pay_from_bank_can_go_negative(self):
        led = Ledger(2, 10)
        pay_from_bank(led, 0, 25)
        assert int(led.deposits[0]) == 25
        assert led.bank_equity == -15
        assert conservation_oracle(led) == 0


class TestConservationResidual:
    def test_new_ledger(self):
        assert Ledger(10, 12345).conservation_residual() == 0
        assert make_ledger([1, 2, 3]).conservation_residual() == 0

    def test_after_each_single_op(self):
        ops = {
            transfer: (0, 1, 5), create_loan: (0, 5), repay_loan: (0, 5), annihilate: (0,),
            pay_to_bank: (0, 5), pay_from_bank: (1, 5),
        }
        for op, args in ops.items():
            led = make_ledger([100, 100])
            create_loan(led, 0, 10)
            op(led, *args)
            assert led.conservation_residual() == 0
            assert conservation_oracle(led) == 0


class TestSnapshots:
    def test_copy_is_independent(self):
        led = make_ledger([10, 10])
        clone = led.copy()
        transfer(led, 0, 1, 5)
        assert account(clone, 0) == (10, 0)


def test_importing_firms_does_not_load_csv():
    # no ledger snapshot format: the firm economy needs no csv module
    src = str(Path(firms.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, finphase.firms; print('csv' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


def test_base_money_is_immutable():
    led = Ledger(2, 1000)
    with pytest.raises(AttributeError):
        led.base_money = 5
    with pytest.raises(AttributeError):
        led.bank_equity = 5


def test_queries_reject_unknown_agents():
    # the columns hold exactly the ledger's agents: no read reaches past them
    led = Ledger(2, 1000)
    for col in (led.deposits, led.debts):
        assert len(col) == 2
        with pytest.raises(IndexError):
            col[2]


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
    led = make_ledger(deposits, 10**9)
    net_before = [net_position(led, i) for i in range(5)]
    equity_before = led.bank_equity
    for kind, a, b, amount in ops:
        if kind == "transfer" and a != b:
            transfer(led, a, b, min(amount, int(led.deposits[a])))
        elif kind == "loan":
            create_loan(led, a, amount)
        elif kind == "repay":
            repay_loan(led, a, min(amount, *account(led, a)))
        elif kind == "annihilate":
            annihilate(led, a)
        elif kind == "to_bank":
            pay_to_bank(led, a, min(amount, int(led.deposits[a])))
        elif kind == "from_bank":
            pay_from_bank(led, a, amount)
    assert conservation_oracle(led) == 0
    assert led.conservation_residual() == 0
    assert min(led.deposits) >= 0 and min(led.debts) >= 0
    # discrete momentum conservation over the whole window
    delta_net = sum(net_position(led, i) - net_before[i] for i in range(5))
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
    led1 = make_ledger([start, start] + others, 10**10)
    led2 = make_ledger([start, start] + others, 10**10)
    transfer(led1, 0, 1, amount)
    transfer(led2, 1, 0, amount)
    net1 = sorted(net_position(led1, i) for i in range(6))
    net2 = sorted(net_position(led2, i) for i in range(6))
    assert net1 == net2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**12), st.integers(0, 10**9))
def test_loan_then_repay_is_identity(deposit, amount):
    led = make_ledger([deposit, 0], 10**13)
    before = (account(led, 0), account(led, 1), led.bank_equity)
    create_loan(led, 0, amount)
    repay_loan(led, 0, amount)
    assert (account(led, 0), account(led, 1), led.bank_equity) == before


# --- the exact summation kernel ------------------------------------------------

# Small values, the limb boundary 2**31 +- 1, 2**62 and the int64 ends.
_EDGES = sorted(
    {sign * v for v in (0, 1, 2**31 - 1, 2**31 + 1, 2**62, MONEY_MAX) for sign in (1, -1)}
    | {MONEY_MIN}
)


@st.composite
def _kernel_case(draw):
    """A start column and up to a few thousand rows of (target, amount),
    drawn from a few of the edges: some cases keep every sum in range,
    others overflow in either direction."""
    n = draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(st.sampled_from(_EDGES), min_size=1, max_size=4)))
    k = draw(st.one_of(st.integers(0, 8), st.integers(0, 3000)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gen.choice(pool, n), gen.integers(0, n, k), gen.choice(pool, k)


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
# the gross inflow passes MONEY_MAX, and the start (the payee's own
# outflow) brings the sum back into range: not an overflow
@example((np.array([-MONEY_MAX, 0]), np.zeros(3, dtype=np.int64), np.full(3, 2**62)))
def test_sums_match_python_ints(case):
    start, target, amount = case
    exact = start.tolist()
    for t, a in zip(target.tolist(), amount.tolist()):
        exact[t] += a
    sums, over = _sums(start, target, amount)
    assert over.tolist() == [not MONEY_MIN <= s <= MONEY_MAX for s in exact]
    assert sums[~over].tolist() == [s for s in exact if MONEY_MIN <= s <= MONEY_MAX]
    for col in (start, amount):
        assert _total(col) == sum(map(int, col))


# --- netted postings -----------------------------------------------------------

def _state(led):
    return led.deposits.tolist(), led.debts.tolist(), led.bank_equity


# Mixed scales: small amounts exercise the ordinary checks, amounts in
# [2**61, 2**63-1] the overflow headroom and the wide (Python int) sums.
_amount = st.one_of(st.integers(0, 1000), st.integers(2**61, MONEY_MAX))
_agent = st.integers(0, 4)

# kind -> (row strategy, one-row posting, the rows' netted columns)
_BATCHES = {
    "transfer": (
        st.tuples(_agent, _agent, _amount), transfer,
        lambda rows: ([x for s, d, a in rows for x in ((s, -a), (d, a))], None, 0),
    ),
    "loan": (
        st.tuples(_agent, _amount), create_loan,
        lambda rows: (rows, rows, 0),
    ),
    "repay": (
        st.tuples(_agent, _amount), repay_loan,
        lambda rows: ([(i, -a) for i, a in rows], [(i, -a) for i, a in rows], 0),
    ),
    "to_bank": (
        st.tuples(_agent, _amount), pay_to_bank,
        lambda rows: ([(i, -a) for i, a in rows], None, sum(a for _, a in rows)),
    ),
    "annihilate": (st.tuples(_agent), annihilate, None),
}


@st.composite
def _batch_case(draw):
    kind = draw(st.sampled_from(sorted(_BATCHES)))
    rows = draw(st.lists(_BATCHES[kind][0], max_size=8))
    deposits = draw(st.lists(_amount, min_size=5, max_size=5))
    loans = draw(st.lists(st.one_of(st.just(0), _amount), min_size=5, max_size=5))
    base = draw(st.one_of(st.integers(0, MONEY_MAX), st.just(MONEY_MAX)))
    return kind, rows, deposits, loans, base


def _reference(kind, rows, led):
    """The rows one at a time on Python ints, each checked as a single
    posting is; None if one fails."""
    dep, debt, equity = _state(led)
    for row in rows:
        i, amount = row[0], row[-1]
        if kind == "transfer":
            j = row[1]
            if i != j and (dep[i] < amount or dep[j] + amount > MONEY_MAX):
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
    return dep, debt, equity


@settings(max_examples=400, deadline=None)
@given(_batch_case())
def test_batch_equals_sequential_scalar_ops(case):
    kind, rows, deposits, loans, base = case
    if base - sum(deposits) < -(2**63) or max(map(sum, zip(deposits, loans))) > MONEY_MAX:
        return  # not a representable starting ledger
    led = make_ledger(deposits, base)
    led.post(column(loans), column(loans))
    _, one_row, netted = _BATCHES[kind]
    before = _state(led)
    expected = _reference(kind, rows, led)

    sequential = led.copy()
    try:
        for row in rows:
            one_row(sequential, *row)
        assert _state(sequential) == expected
    except (FinphaseError, ValueError):
        assert expected is None

    batched = led.copy()
    try:
        if netted is None:
            annihilate(batched, *(row[0] for row in rows))
        else:
            dep_rows, debt_rows, equity = netted(rows)
            batched.post(
                net(led, *dep_rows), None if debt_rows is None else net(led, *debt_rows), equity
            )
        assert batched.conservation_residual() == 0
        assert conservation_oracle(batched) == 0
    except (FinphaseError, ValueError, TypeError):  # TypeError: a net beyond int64
        assert _state(batched) == before  # a rejected posting writes nothing
        assert expected is None  # only a failing sequence may be rejected
    else:
        if expected is not None:
            assert _state(batched) == expected


class TestBatchEdges:
    def test_two_large_inflows_overflow_without_wrapping(self):
        led = make_ledger([1, 2**62, 2**62], MONEY_MAX)
        before = _state(led)
        # two 2**62 payments to agent 0 sum to 2**63, which int64 wraps to
        # -2**63: the kernel flags the sum instead
        inflow, over = _sums(np.zeros(3, dtype=np.int64), np.array([0, 0]), np.full(2, 2**62))
        assert over.tolist() == [True, False, False]
        assert inflow[1:].tolist() == [0, 0]
        # as does the deposit it lands on, and the payers' net change fits
        start = led.deposits - np.array([0, 2**62, 2**62])
        after, over = _sums(start, np.array([0, 0]), np.full(2, 2**62))
        assert over.tolist() == [True, False, False]
        assert after[1:].tolist() == [0, 0]
        # the exact sums do not fit an int64 column: the posting writes nothing
        rejected = "^changes must be 1-d int64 columns, got "
        with pytest.raises(TypeError, match=rf"{rejected}object \(3,\)$"):
            led.post(column([2**63, -(2**62), -(2**62)]))
        assert _state(led) == before
        wide = np.array([2**63, 0, 0], dtype=np.uint64)
        with pytest.raises(TypeError, match=rf"{rejected}uint64 \(3,\)$"):
            led.post(wide, wide)
        assert _state(led) == before

    def test_balances_reach_money_max_exactly(self):
        led = make_ledger([0, 0, 10], MONEY_MAX)
        create_loan(led, 0, MONEY_MAX)
        led.post(net(led, (0, -(MONEY_MAX - 10)), (2, -10), (1, MONEY_MAX)))
        pay_to_bank(led, 1, 0)
        assert _state(led)[:2] == ([10, MONEY_MAX, 0], [MONEY_MAX, 0, 0])
        assert led.conservation_residual() == 0

    def test_batch_total_above_int64_sums_exactly(self):
        # a column whose max |x| times its length passes MONEY_MAX, so that
        # a plain int64 sum could wrap: its conservation sum is exact, and
        # every balance fits
        led = make_ledger([2**62, 2**62, 0], MONEY_MAX)
        sequential = led.copy()
        transfer(sequential, 0, 2, 2**62)
        transfer(sequential, 1, 2, 2**62 - 1)
        change = np.array([-(2**62), -(2**62 - 1), MONEY_MAX])
        led.post(change)
        assert _state(led) == _state(sequential)
        assert led.conservation_residual() == 0
        with pytest.raises(ValueError, match="^posting does not conserve money$"):
            led.post(np.array([MONEY_MAX, MONEY_MAX, 2]))  # sums to 0 in int64

    def test_bank_equity_overflow_rejects_whole_batch(self):
        led = Ledger(2, MONEY_MAX)
        create_loan(led, 0, 10)
        create_loan(led, 1, 10)
        before = _state(led)
        with pytest.raises(MoneyOverflow, match=f"^bank equity {2**63 + 1} out of 64-bit range$"):
            led.post(column([-1, -1]), equity_change=2)
        assert _state(led) == before

    def test_spend_what_the_batch_brings_in(self):
        led = make_ledger([0, 50, 0])
        led.post(net(led, (1, -50), (0, 50), (0, -50), (2, 50)))
        assert [int(led.deposits[i]) for i in range(3)] == [0, 0, 50]

    def test_mismatched_lengths_and_bad_inputs(self):
        led = make_ledger([10, 10])
        rejected = "^changes must be 1-d int64 columns, got "
        with pytest.raises(InvalidConfig, match="^change column of 3 for a ledger of 2 agents$"):
            led.post(column([-1, 0, 1]))  # longer than the ledger
        with pytest.raises(InvalidConfig, match="^change column of 1 for a ledger of 2 agents$"):
            led.post(column([0]))  # shorter than the ledger
        with pytest.raises(TypeError, match=rf"{rejected}int64 \(1, 2\)$"):
            led.post(column([[-1, 1]]))
        with pytest.raises(TypeError, match=rf"{rejected}float64 \(2,\)$"):
            led.post(np.array([-1.0, 1.0]))
        with pytest.raises(TypeError, match=rf"{rejected}uint64 \(2,\)$"):
            led.post(np.array([2**63, 0], dtype=np.uint64), equity_change=-(2**63))
        # a list is no column, even one numpy could convert
        with pytest.raises(TypeError, match=f"{rejected}list$"):
            led.post([2**63, -1])
        # funding a fresh ledger with money beyond int64 writes nothing
        for deposits in ([2**63, 0], [2**63], [0, MONEY_MIN - 1]):
            funded = Ledger(len(deposits), 10)
            with pytest.raises(TypeError, match=rf"{rejected}object \({len(deposits)},\)$"):
                funded.post(column(deposits), equity_change=-sum(deposits))
            assert _state(funded) == _state(Ledger(len(deposits), 10))
        with pytest.raises(ValueError):
            led.post(column([0, 1]), column([1, 1]))
        assert _state(led) == _state(make_ledger([10, 10]))

    def test_rejected_batch_leaves_no_partial_sums_behind(self):
        led = make_ledger([10, 0, 0])
        with pytest.raises(InsufficientFunds, match="^agent 1 holds 0, batch takes 1$"):
            led.post(column([-10, -1, 11]))  # agent 1 nets -1
        transfer(led, 0, 2, 4)
        assert [int(led.deposits[i]) for i in range(3)] == [6, 0, 4]
        assert led.conservation_residual() == 0

    def test_column_views_are_read_only_and_follow_postings(self):
        led = make_ledger([10, 0])
        dep = led.deposits
        with pytest.raises(ValueError):
            dep[0] = 99
        transfer(led, 0, 1, 4)
        assert dep.tolist() == [6, 4]
        create_loan(led, 1, 3)
        assert led.debts.tolist() == [0, 3]


class TestSettle:
    """Phase 4 posts the net result of loans, purchases and repayments
    as one pair of columns."""

    def test_equals_the_gross_postings(self):
        # agent 1 borrows 30 and pays it to agent 0, which repays 25
        led = make_ledger([20, 0, 5])
        create_loan(led, 0, 25)
        gross = led.copy()
        create_loan(gross, 1, 30)
        transfer(gross, 1, 0, 30)
        repay_loan(gross, 0, 25)
        led.post(column([30 - 25, 0, 0]), column([-25, 30, 0]))
        assert _state(led) == _state(gross)
        assert conservation_oracle(led) == 0

    def test_net_result_may_pass_through_money_max(self):
        # Agent 0 holds MONEY_MAX - 10 and owes 2000. Receiving 1000
        # before repaying would overflow; the net result fits.
        led = make_ledger([MONEY_MAX - 2010, 0], MONEY_MAX)
        create_loan(led, 0, 2000)
        gross = led.copy()
        create_loan(gross, 1, 1000)
        with pytest.raises(MoneyOverflow):
            transfer(gross, 1, 0, 1000)
        led.post(column([1000 - 2000, 0]), column([-2000, 1000]))
        assert _state(led)[:2] == ([MONEY_MAX - 1010, 0], [0, 1000])
        assert led.conservation_residual() == 0

    @pytest.mark.parametrize(
        "agents, dep_change, debt_change, error",
        [
            ([0, 0], [1, 1], [0, 0], ValueError),  # a repeated agent's rows create money
            ([0], [5], [4], ValueError),  # would create money
            ([0, 1], [-16, 16], [0, 0], InsufficientFunds),
            ([0, 1], [-5, 0], [-6, 1], NoSuchDebt),
            ([0, 1], [MONEY_MAX, 0], [0, MONEY_MAX], MoneyOverflow),
            ([0], [2**63], [2**63], TypeError),  # change beyond int64: no int64 column
            ([0, 1], [1, 2], [3, 1], ValueError),  # totals differ by one
        ],
    )
    def test_rejected_settlement_writes_nothing(self, agents, dep_change, debt_change, error):
        led = make_ledger([10, 0], base_money=MONEY_MAX)
        create_loan(led, 0, 5)
        before = _state(led)
        with pytest.raises(error):
            led.post(net(led, *zip(agents, dep_change)), net(led, *zip(agents, debt_change)))
        assert _state(led) == before

"""Step outcomes at the edges of the money range, pinned.

Each case is a seeded random economy of 1-4 firms and 0-6 workers whose
firm balances, debts, profits and capital stocks are drawn from 0, small
values and values within 10**6 of MONEY_MAX, with edge wages, rates and
consumption fractions. Households are one sector that saves nothing, so
they hold no balance at a step boundary: only the firms' accounts are
drawn. It is stepped twice (once if the first step raises). The outcome
is a SHA-256 over both records and the whole state after them, or the
step number, class and message of the error raised.

The previous boundary's net debt is the ledger's, debts less deposits,
as in every run; the draws once made for it are still made, so the
draws after them are unchanged. ``step_edges.json`` pins the outcomes of
the step in which every firm acts on its deposit at the start of owner
consumption and of phase 4: every overflow, shortfall and write-off at
the edges, and the lowest failing firm each error names. Print the
current outcomes with
``PYTHONPATH=src python tests/test_step_edges.py``; when
``step_edges.json`` exists, how many of its ``ok`` hashes and error
outcomes differ from them goes to stderr.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from finphase import rng
from finphase.firms import EconomyConfig, init_economy, step
from finphase.ledger import MONEY_MAX, MONEY_MIN, Ledger

CASES = 400
EXPECTED = Path(__file__).with_name("step_edges.json")

class _Draws:
    """A stream of draws from the package's own splitmix64, so the cases
    are the same on every platform and Python version."""

    def __init__(self, case: int):
        self._values = iter(rng.u64_block(rng.derive(0xED6E, case), 0, 512).tolist())

    def below(self, bound: int) -> int:
        return next(self._values) % bound

    def pick(self, options):
        return options[self.below(len(options))]

    def money(self) -> int:
        kind = self.below(8)
        if kind == 0:
            return 0
        if kind < 6:
            return self.below(10**6 + 1)
        return MONEY_MAX - self.below(10**6 + 1)


def economy(case: int):
    draws = _Draws(case)
    n, n_workers = 1 + draws.below(4), draws.below(7)
    config = EconomyConfig(
        n_firms=n,
        n_workers=n_workers,
        base_money=MONEY_MAX // 2,
        wage=draws.pick([0, 100, 100, 2**60, MONEY_MAX // 2, MONEY_MAX // 4, draws.money()]),
        interest_rate=draws.pick([0.0, 0.005, 0.5, 1.0, 3.0]),
        investment_margin=draws.pick([0.0, 0.01]),
        depreciation=draws.pick([0.0, 0.01]),
        capitalist_consumption_fraction=draws.pick([0.0, 0.05, 0.5, 1.0]),
        customer_churn=draws.pick([0.0, 0.5]),
        seed=case,
    )
    state = init_economy(config)
    while True:  # until the balances leave a representable bank equity
        dep = [draws.money() for _ in range(n)]
        debt = [draws.money() if draws.below(2) else 0 for _ in range(n)]
        base = draws.pick([0, MONEY_MAX // 2, MONEY_MAX])
        equity = base - sum(dep) + sum(debt)
        if MONEY_MIN <= equity <= MONEY_MAX:
            break
    column = lambda values: np.array(values, dtype=np.int64)
    state.ledger = Ledger._of(column(dep), column(debt), equity, base)
    state.capital = column([draws.pick([1, 3000, draws.money() or 1]) for _ in range(n)])
    state.last_profit = column(
        [draws.pick([0, -draws.money(), draws.money()]) for _ in range(n)]
    )
    for _ in range(n):  # once the previous net debt; drawn to keep the later draws
        draws.pick([0, draws.money(), -draws.money()])
    state.worker_shop = column([draws.below(n) for _ in range(n_workers)])
    return state


def outcome(state) -> str:
    parts = []
    for _ in range(2):
        try:
            rec = step(state)
        except Exception as exc:  # any class: a change of class must show
            return f"step {state.t + 1}: {type(exc).__name__}: {exc}"
        parts.append(
            (rec.t, rec.class_counts, rec.bankruptcies, rec.conservation_residual,
             rec.points.tobytes().hex())
        )
    led = state.ledger
    parts.append(
        (state.t, led.deposits.tolist(), led.debts.tolist(), led.bank_equity,
         state.capital.tolist(), state.last_profit.tolist(), (led.debts - led.deposits).tolist(),
         state.worker_shop.tolist())
    )
    return "ok " + hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("case", range(CASES))
def test_step_outcome_is_pinned(expected, case):
    assert outcome(economy(case)) == expected[str(case)]


def differing(pinned: dict, current: dict) -> str:
    """How many of the ``pinned`` outcomes ``current`` changes, ``ok``
    hashes and error outcomes apart."""
    moved = {"ok hashes": [0, 0], "error outcomes": [0, 0]}
    for case, was in pinned.items():
        kind = moved["ok hashes" if was.startswith("ok ") else "error outcomes"]
        kind[0] += current.get(case) != was
        kind[1] += 1
    counts = " and ".join(f"{m} of {n} {kind}" for kind, (m, n) in moved.items())
    return f"{counts} differ from {EXPECTED.name}"


if __name__ == "__main__":
    current = {str(c): outcome(economy(c)) for c in range(CASES)}
    json.dump(current, sys.stdout, indent=1)
    print()
    if EXPECTED.exists():
        print(differing(json.loads(EXPECTED.read_text()), current), file=sys.stderr)

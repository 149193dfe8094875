"""Config bounds: every bounded field of EconomyConfig and ExchangeConfig at,
just inside and just outside its bound, with each message written out."""

import math
from dataclasses import fields

import pytest

from finphase.errors import InvalidConfig
from finphase.exchange import RULE_FIXED_AMOUNT, ExchangeConfig
from finphase.firms import EconomyConfig

MONEY = "[0, 2**63 - 1]"
SEED = "[0, 2**64 - 1]"
EXCHANGE = dict(n_agents=2, initial_money=1, n_events=0)

# (config, field, least valid value, greatest valid value or None, message)
BOUNDS = [
    (EconomyConfig, "n_firms", 1, None, "n_firms must be >= 1"),
    (EconomyConfig, "n_workers", 0, None, "n_workers must be >= 0"),
    (EconomyConfig, "base_money", 0, 2**63 - 1, f"base_money must be in {MONEY}"),
    (EconomyConfig, "wage", 0, 2**63 - 1, f"wage must be in {MONEY}"),
    (EconomyConfig, "interest_rate", 0.0, None, "interest_rate must be >= 0"),
    (EconomyConfig, "investment_margin", 0.0, None, "investment_margin must be >= 0"),
    (EconomyConfig, "depreciation", 0.0, math.nextafter(1.0, 0.0), "depreciation must be in [0, 1)"),
    (EconomyConfig, "capitalist_consumption_fraction", 0.0, 1.0,
     "capitalist_consumption_fraction must be in [0, 1]"),
    (EconomyConfig, "n_steps", 0, None, "n_steps must be >= 0"),
    (EconomyConfig, "seed", 0, 2**64 - 1, f"seed must be in {SEED}"),
    (EconomyConfig, "initial_capital", 1, 2**63 - 1, "initial_capital must be in [1, 2**63 - 1]"),
    (EconomyConfig, "customer_churn", 0.0, 1.0, "customer_churn must be in [0, 1]"),
    (ExchangeConfig, "n_agents", 2, None, "n_agents must be >= 2"),
    (ExchangeConfig, "initial_money", 0, None, "initial_money must be >= 0"),
    (ExchangeConfig, "n_events", 0, None, "n_events must be >= 0"),
    (ExchangeConfig, "seed", 0, 2**64 - 1, f"seed must be in {SEED}"),
]


def _step(value, direction):
    """The next value above (+1) or below (-1): an integer or a float."""
    if isinstance(value, float):
        return math.nextafter(value, direction * math.inf)
    return value + direction


def _cases():
    for cls, name, lo, hi, message in BOUNDS:
        values = [(_step(lo, -1), message), (lo, None), (_step(lo, 1), None)]
        if hi is not None:
            values += [(_step(hi, -1), None), (hi, None), (_step(hi, 1), message)]
        if isinstance(lo, float):
            values += [(v, f"{name} must be finite, got {v}") for v in (math.nan, math.inf, -math.inf)]
        for value, error in values:
            yield pytest.param(cls, name, value, error, id=f"{cls.__name__}-{name}-{value!r}")


@pytest.mark.parametrize("cls, name, value, message", _cases())
def test_bound_is_checked_with_its_message(cls, name, value, message):
    values = {**(EXCHANGE if cls is ExchangeConfig else {}), name: value}
    if message is None:
        assert getattr(cls(**values), name) == value
    else:
        with pytest.raises(InvalidConfig) as info:
            cls(**values)
        assert str(info.value) == message


def test_every_field_but_the_rules_declares_its_range_and_is_pinned():
    declared = {
        (cls, f.name)
        for cls in (EconomyConfig, ExchangeConfig)
        for f in fields(cls)
        if "range" in f.metadata
    }
    every = {(cls, f.name) for cls in (EconomyConfig, ExchangeConfig) for f in fields(cls)}
    assert every - declared == {(ExchangeConfig, "rule"), (ExchangeConfig, "fixed_amount")}
    assert declared == {(cls, name) for cls, name, *_ in BOUNDS}


@pytest.mark.parametrize(
    "cls, values, message",
    [
        # any non-finite float comes first, then the fields in their order
        (EconomyConfig, dict(n_firms=0, customer_churn=math.nan), "customer_churn must be finite, got nan"),
        (EconomyConfig, dict(n_workers=-1, wage=-1), "n_workers must be >= 0"),
        # seed is checked in its field's place, before initial_capital and
        # customer_churn (it used to come after both)
        (EconomyConfig, dict(seed=-1, initial_capital=0), f"seed must be in {SEED}"),
        (EconomyConfig, dict(seed=-1, customer_churn=2.0), f"seed must be in {SEED}"),
        # every field's own bound comes before the checks across fields and
        # choices: n_events and seed before the total money (which came
        # first), seed before the rule and the fixed amount (which came
        # before it); n_agents and initial_money came first already
        (ExchangeConfig, dict(n_agents=1, initial_money=2**62, n_events=0), "n_agents must be >= 2"),
        (ExchangeConfig, dict(n_agents=4, initial_money=2**62, n_events=-1), "n_events must be >= 0"),
        (ExchangeConfig, dict(n_agents=4, initial_money=2**62, n_events=0, seed=-1),
         f"seed must be in {SEED}"),
        (ExchangeConfig, dict(EXCHANGE, rule="bogus", seed=-1), f"seed must be in {SEED}"),
        (ExchangeConfig, dict(EXCHANGE, rule=RULE_FIXED_AMOUNT, fixed_amount=-1, seed=2**64),
         f"seed must be in {SEED}"),
        # the checks across fields keep their order
        (ExchangeConfig, dict(n_agents=4, initial_money=2**62, n_events=0, rule="bogus"),
         f"total money n_agents * initial_money must be <= {2**63 - 1}, got {2**64}"),
        (ExchangeConfig, dict(EXCHANGE, rule=RULE_FIXED_AMOUNT, fixed_amount=-1),
         "fixed_amount must be in [0, 2**63 - 1]"),
    ],
    ids=["finite_first", "field_order", "seed_before_capital", "seed_before_churn",
         "agents_before_total", "events_before_total", "seed_before_total", "seed_before_rule",
         "seed_before_amount", "total_before_rule", "amount_under_fixed_rule"],
)
def test_first_broken_bound_is_reported(cls, values, message):
    with pytest.raises(InvalidConfig) as info:
        cls(**values)
    assert str(info.value) == message

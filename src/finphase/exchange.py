"""Conservative random pairwise money exchange.

Agents start with equal endowments and money moves only inside pairs of
distinct agents, so total money is conserved bit-exactly. Two rules are
provided:

* ``uniform_pair_split`` (default): a pair's combined money is
  redistributed uniformly over its integer splits. Once per run the
  agents are placed in uniformly random order on a ring of slots; the run
  is then a sequence of rounds, each of which draws a centre ``c`` and
  pairs slot ``s`` with slot ``c - s`` (mod n), a perfect matching (with
  an odd count, one agent sits the round out), and splits all n // 2
  disjoint pairs at once, one event per pair. Over the random placement,
  each round's matching is a uniformly random one; consecutive rounds are
  not independent matchings, so this is a different Markov chain from
  one that draws every matching afresh, with the same stationary law.
  Every pair-split maps the uniform measure on compositions of the total
  to itself and every two agents can meet, so that law is exactly the
  maximum-entropy (Gibbs-Boltzmann/exponential) one, reached within a few
  events per agent (Dragulescu & Yakovenko, "Statistical mechanics of
  money", Eur. Phys. J. B 17, 2000). The splits of a round touch disjoint
  agents, so applying them together is the same as applying them in any
  order.
* ``fixed_amount``: an ordered (payer, payee) pair is drawn uniformly per
  event and the payer pays min(fixed_amount, balance). The classic
  quantum-transfer model; it runs one event at a time, equilibrates to
  the exponential only over ~(mean/amount)^2 events per agent and leaves
  a lattice atom at zero of roughly amount/mean, so large runs and small
  amounts are needed for a close exponential fit.

A multiplicative rule such as "pay floor(u * balance)" also conserves
money but does not relax to the exponential law; the test suite keeps
it as the counterexample.

Every draw is read from a counter-mode stream at a fixed offset (round
``r`` uses centre ``r`` and splits ``r*(n//2) ..``), so the output does
not depend on how many rounds are drawn per block. A round's pairs are
two runs of adjacent slots, each paired end to end, and at most one more
pair, so its splits are a few numpy operations on slices of the money
array, all on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DegenerateSample, InvalidConfig, check_bounds
from .ledger import MONEY_MAX, Money

RULE_UNIFORM_PAIR_SPLIT = "uniform_pair_split"
RULE_FIXED_AMOUNT = "fixed_amount"

_RULES = (RULE_UNIFORM_PAIR_SPLIT, RULE_FIXED_AMOUNT)

# Substream tags: (payer, payee-offset) draws of the fixed rule; the
# pair-split rule's split draws, placement keys and round centres.
_TAG_PAYER, _TAG_PAYEE, _TAG_SPLIT, _TAG_MATCH, _TAG_CENTRE = 1, 2, 3, 4, 6

# Stream outputs drawn per block: split draws for the pair-split rule (at
# least one round's), events for the fixed rule. 2**17 draws are 1 MB;
# from 2**15 to 2**18 a 1e4 x 1e7 pair-split run took the same time
# within the host's noise (in-process runs on a 2-core Xeon).
_BLOCK = 1 << 17


@dataclass(frozen=True)
class ExchangeConfig:
    """Exchange parameters; each field's bound but ``rule``'s and
    ``fixed_amount``'s is its ``range`` metadata (:func:`errors.check_bounds`)."""

    n_agents: int = field(metadata={"range": (2, None)})
    initial_money: Money = field(metadata={"range": (0, None)})
    n_events: int = field(metadata={"range": (0, None)})
    rule: str = RULE_UNIFORM_PAIR_SPLIT
    fixed_amount: Money = 1
    seed: int = field(default=0, metadata={"range": (0, 2**64 - 1)})

    def __post_init__(self):
        check_bounds(self)
        if self.n_agents * self.initial_money > MONEY_MAX:
            raise InvalidConfig(
                f"total money n_agents * initial_money must be <= {MONEY_MAX}, "
                f"got {self.n_agents * self.initial_money}"
            )
        if self.rule not in _RULES:
            raise InvalidConfig(f"unknown exchange rule {self.rule!r}")
        if self.rule == RULE_FIXED_AMOUNT and not 0 <= self.fixed_amount <= MONEY_MAX:
            raise InvalidConfig("fixed_amount must be in [0, 2**63 - 1]")


@dataclass
class WealthVector:
    """Final money holdings, one entry per agent; the sum is invariant."""

    money: list = field(default_factory=list)

    def total(self) -> Money:
        return sum(self.money)


@dataclass(frozen=True)
class ExponentialFit:
    temperature: float  # sample mean, same units as money
    ks_statistic: float  # sup |ECDF - Exponential(temperature) CDF|


def run_exchange(config: ExchangeConfig) -> WealthVector:
    """Run the exchange process; deterministic given the config seed.

    Balances never go negative: a fixed-rule payer with zero balance
    makes the event a no-op, which still counts as an event.
    """
    if config.rule == RULE_UNIFORM_PAIR_SPLIT:
        money = np.full(config.n_agents, config.initial_money, dtype=np.uint64)
        _pair_split_rounds(money, config.n_events, config.seed)
        return WealthVector(money.tolist())
    return WealthVector(_fixed_amount_events(config))


def _pair_split_rounds(money: np.ndarray, n_events: int, seed: int) -> None:
    """Apply ``n_events`` pair-splits to ``money`` (uint64) in place.

    Once per run the agents are relabelled into slots by a uniformly
    random permutation: agent ``i`` is keyed with stream output ``i``,
    whose low ``b = (n-1).bit_length()`` bits are replaced by ``i``, and
    slot ``s`` holds the agent of the ``s``-th smallest key. The keys are
    distinct, so any sort gives the same order; keys whose random high
    bits tie fall back to id order, with probability below
    n**2 / 2**(65 - b), far under sampling noise.

    Round ``r`` pairs slot ``s`` with slot ``(c - s) mod n``, where the
    centre ``c`` is output ``r`` of its own stream, uniform on [0, n):
    two runs of slots, [0, c] and [c+1, n-1], each paired end to end.
    A slot that is its own partner is a run's middle slot. When ``n`` and
    ``c`` are both even there are two, ``c/2`` and ``c/2 + n/2``, and
    they pair with each other; with an odd ``n`` there is one, which sits
    the round out. So every round has ``n // 2`` pairs. Pair ``j`` in the
    order run A, run B, the middle pair reads split offset
    ``r*(n//2) + j``, and its lower slot keeps ``draw % (total + 1)``, or
    its :func:`rng.redraw_below` when the draw lies in the biased top
    range (see :func:`rng.unbiased_mod`). The last round of a run that is
    not a whole number of rounds splits its first pairs only.
    """
    n = len(money)
    half = n // 2
    s_split = rng.derive(seed, _TAG_SPLIT)
    s_centre = rng.derive(seed, _TAG_CENTRE)
    whole, rest = divmod(n_events, half)
    rounds = whole + (rest > 0)
    per_block = max(1, _BLOCK // half)

    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = rng.u64_block(rng.derive(seed, _TAG_MATCH), 0, n)
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    slots = (keys & low).view(np.int64)  # agent ids < 2**63: same bits
    m = money[slots]

    # A pair's total is at most the run's, so a draw <= 2**64 - 1 - run
    # total is below every pair's rejection limit; only rounds with a draw
    # above it need the exact check.
    safe = ~np.uint64(int(money.sum()))
    one = np.uint64(1)
    for r0 in range(0, rounds, per_block):
        b = min(per_block, rounds - r0)
        centres = rng.randint_block(s_centre, r0, b, n).tolist()
        draws = rng.u64_block(s_split, r0 * half, b * half)
        risky = (draws.reshape(b, half).max(axis=1) > safe).tolist()
        for j, c in enumerate(centres):
            k = half if r0 + j < whole else rest
            # (first lower slot, last upper slot, pairs) of run A, run B
            # and the middle pair; the runs hold all n // 2 pairs unless n
            # and c are both even, so only then is one left for the middle
            done = 0
            for lo, hi, pairs in (
                (0, c, (c + 1) // 2),
                (c + 1, n - 1, (n - 1 - c) // 2),
                (c // 2, c // 2 + half, 1),
            ):
                pairs = min(pairs, k - done)
                if pairs <= 0:
                    continue
                at = j * half + done
                d = draws[at : at + pairs]
                p = m[lo : lo + pairs]
                q = m[hi : hi - pairs : -1]  # hi >= pairs: the stop is never -1
                # total money <= MONEY_MAX, so total + 1 fits in uint64
                total = p + q
                if risky[j]:
                    p[:] = rng.unbiased_mod(s_split, r0 * half + at, d, total + one)
                else:
                    np.remainder(d, total + one, out=p)
                np.subtract(total, p, out=q)
                done += pairs
    money[slots] = m


def _fixed_amount_events(config: ExchangeConfig) -> list:
    n = config.n_agents
    money = [config.initial_money] * n
    s_payer = rng.derive(config.seed, _TAG_PAYER)
    s_payee = rng.derive(config.seed, _TAG_PAYEE)
    fixed = config.fixed_amount
    for done in range(0, config.n_events, _BLOCK):
        m = min(_BLOCK, config.n_events - done)
        payers = rng.randint_block(s_payer, done, m, n).tolist()
        offsets = rng.randint_block(s_payee, done, m, n - 1).tolist()
        for p, off in zip(payers, offsets):
            bal = money[p]
            amount = fixed if fixed <= bal else bal
            if amount:
                money[p] = bal - amount
                money[(p + 1 + off) % n] += amount
    return money


def fit_exponential(wealth: WealthVector) -> ExponentialFit:
    """Fit Exponential(mean) and report the KS sup-distance to it.

    The statistic is computed from the sorted sample against the
    closed-form CDF 1 - exp(-x / mean).
    """
    sample = np.asarray(wealth.money, dtype=float)
    n = len(sample)
    if n < 2:
        raise InvalidConfig("need at least 2 agents to fit")
    total = sample.sum()
    if total <= 0:
        raise DegenerateSample("all-zero wealth vector")
    temperature = total / n
    xs = np.sort(sample)
    cdf = 1.0 - np.exp(-xs / temperature)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    return ExponentialFit(float(temperature), float(max(d_plus, d_minus)))

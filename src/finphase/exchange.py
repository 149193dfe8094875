"""Conservative random pairwise money exchange.

Agents start with equal endowments and money moves only inside pairs of
distinct agents, so total money is conserved bit-exactly. Two rules are
provided:

* ``uniform_pair_split`` (default): a pair's combined money is
  redistributed uniformly over its integer splits. The run is a sequence
  of matching rounds: each round draws a uniformly random perfect
  matching of the agents (with an odd count, one agent sits the round
  out) and splits all n // 2 disjoint pairs at once, one event per pair.
  Every pair-split maps the uniform measure on compositions of the total
  to itself, so the stationary distribution is exactly the
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
``r`` uses keys ``r*n ..`` and splits ``r*(n//2) ..``), so the output does
not depend on how many rounds are drawn per block.

The pair-split rule runs on two threads: one worker thread per run sorts
the matchings of the next block of rounds (their keys never read the
balances, and numpy releases the GIL while it draws and sorts them)
while the calling thread splits the pairs of the current block. Every
round still reads its keys and draws at the offsets above, so the output
is the same whenever the worker finishes.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DegenerateSample, InvalidConfig, check_bounds
from .ledger import MONEY_MAX, Money

RULE_UNIFORM_PAIR_SPLIT = "uniform_pair_split"
RULE_FIXED_AMOUNT = "fixed_amount"

_RULES = (RULE_UNIFORM_PAIR_SPLIT, RULE_FIXED_AMOUNT)

# Substream tags: (payer, payee-offset) draws of the fixed rule; the
# pair-split rule's matching keys and split draws.
_TAG_PAYER, _TAG_PAYEE, _TAG_SPLIT, _TAG_MATCH = 1, 2, 3, 4

# Stream outputs drawn per block: matching keys for the pair-split rule
# (at least one round), events for the fixed rule. The pair-split rule
# holds two blocks of keys at once, the one being split and the next one
# being sorted on the worker: 2 x 2**17 keys are 2 MB. Larger blocks
# only raise peak memory, on one CPU too, where the two threads take
# turns: pinned to one CPU, a 1e4 x 1e7 run took 0.62 s with 8.6k minor
# faults, and 0.63 s with 14.5k faults and 4 MB more peak memory with
# blocks of 2**18 keys (medians of 10 runs each).
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

    Round ``r`` keys agent ``i`` with stream output ``r*n + i``, whose low
    ``b = (n-1).bit_length()`` bits are replaced by ``i``. The keys are
    then distinct, so sorting them gives one permutation whatever the sort
    algorithm, and the low bits of the sorted keys are that permutation.
    Keys whose random high bits tie fall back to id order; that happens
    with probability below n**2 / 2**(65 - b), far under sampling noise.
    Pair ``j`` is (perm[2j], perm[2j+1]); the first agent keeps
    ``draw % (total + 1)``, or its :func:`rng.redraw_below` when the draw
    lies in the biased top range (see :func:`rng.unbiased_mod`). The last
    round of a run that is not a whole number of rounds splits its first
    pairs only.

    Rounds run in blocks of ``_BLOCK // n``. One worker thread per run
    computes the sorted keys of each block in turn: this thread takes
    block ``b``, asks for block ``b + 1`` and draws and applies the splits
    of block ``b`` while the worker sorts the next one. The keys never
    read ``money`` and every round reads the stream at its own offsets,
    so the result does not depend on when the worker finishes. An
    exception the worker raises is raised here, and the worker is stopped
    and joined on every exit.
    """
    n = len(money)
    half = n // 2
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    ids = np.arange(n, dtype=np.uint64)
    s_match = rng.derive(seed, _TAG_MATCH)
    s_split = rng.derive(seed, _TAG_SPLIT)
    whole, rest = divmod(n_events, half)
    rounds = whole + (rest > 0)
    per_block = max(1, _BLOCK // n)

    def matchings(r0: int) -> np.ndarray:
        """The perms of rounds ``r0 ..`` of one block, one row per round."""
        b = min(per_block, rounds - r0)
        keys = rng.u64_block(s_match, r0 * n, b * n).reshape(b, n)
        keys &= ~low
        keys |= ids
        keys.sort(axis=1)
        keys &= low
        return keys.view(np.int64)  # agent ids < 2**63: same bits

    # One block's start round goes in, its perms or the exception that
    # computing them raised come out; None stops the worker.
    requests, results = queue.SimpleQueue(), queue.SimpleQueue()

    def work() -> None:
        while (r0 := requests.get()) is not None:
            try:
                results.put(matchings(r0))
            except BaseException as exc:  # raised again on the calling thread
                results.put(exc)

    # A pair's total is at most the run's, so a draw <= 2**64 - 1 - run
    # total is below every pair's rejection limit; only rounds with a draw
    # above it need the exact check.
    safe = ~np.uint64(int(money.sum()))
    worker = threading.Thread(target=work)
    worker.start()
    try:
        if rounds:
            requests.put(0)
        for r0 in range(0, rounds, per_block):
            perm = results.get()
            if isinstance(perm, BaseException):
                raise perm
            if r0 + per_block < rounds:
                requests.put(r0 + per_block)
            b = len(perm)
            draws = rng.u64_block(s_split, r0 * half, b * half).reshape(b, half)
            risky = (draws.max(axis=1) > safe).tolist()
            for j in range(b):
                k = half if r0 + j < whole else rest
                p = perm[j, 0 : 2 * k : 2]
                q = perm[j, 1 : 2 * k : 2]
                # total money <= MONEY_MAX, so total + 1 fits in uint64
                total = money[p] + money[q]
                bound = total + np.uint64(1)
                if risky[j]:
                    keep = rng.unbiased_mod(s_split, (r0 + j) * half, draws[j, :k], bound)
                else:
                    keep = draws[j, :k] % bound
                money[p] = keep
                money[q] = total - keep
    finally:
        requests.put(None)
        worker.join()


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

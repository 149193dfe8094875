"""Exchange kinetics: conservation, determinism, Gibbs-Boltzmann fit."""

import hashlib
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.stats

from finphase import exchange, phase, rng
from finphase.errors import DegenerateSample, InvalidConfig
from finphase.exchange import (
    RULE_FIXED_AMOUNT,
    RULE_UNIFORM_PAIR_SPLIT,
    ExchangeConfig,
    WealthVector,
    fit_exponential,
    run_exchange,
)
from finphase.ledger import MONEY_MAX


def config(**kwargs):
    base = dict(n_agents=500, initial_money=1000, n_events=20_000, seed=0)
    base.update(kwargs)
    return ExchangeConfig(**base)


def _ordered_pairs(config):
    """Per event, a uniformly drawn ordered pair of distinct agents and a
    third stream output, in blocks of 10**6 events."""
    n = config.n_agents
    s_payer = rng.derive(config.seed, 1)
    s_payee = rng.derive(config.seed, 2)
    s_amount = rng.derive(config.seed, 3)
    for done in range(0, config.n_events, 10**6):
        m = min(10**6, config.n_events - done)
        payers = rng.randint_block(s_payer, done, m, n).tolist()
        offsets = rng.randint_block(s_payee, done, m, n - 1).tolist()
        draws = rng.u64_block(s_amount, done, m).tolist()
        for p, off, r in zip(payers, offsets, draws):
            yield p, (p + 1 + off) % n, r


def sequential_pair_split(config):
    """Oracle: one uniform pair-split per event on a uniformly drawn pair,
    strictly in sequence (the chain ``run_exchange`` ran before it moved
    to matching rounds)."""
    money = [config.initial_money] * config.n_agents
    for p, q, r in _ordered_pairs(config):
        pair_total = money[p] + money[q]
        keep = r % (pair_total + 1)
        money[p] = keep
        money[q] = pair_total - keep
    return WealthVector(money)


def reflection_rounds(config):
    """Oracle: ``run_exchange``'s pair-split chain, one event at a time.
    Slot ``s`` holds the agent with the ``s``-th smallest placement key;
    round ``r`` pairs slot ``s`` with slot ``(c - s) mod n`` for its centre
    ``c``, and the two slots that are their own partners (n and c even)
    with each other. Pairs are taken by their lower slot, which keeps the
    draw, so event ``e`` (pair ``e % (n//2)`` of round ``e // (n//2)``)
    reads split output ``e``."""
    n, half, seed = config.n_agents, config.n_agents // 2, config.seed
    low = (1 << (n - 1).bit_length()) - 1
    keys = rng.u64_block(rng.derive(seed, exchange._TAG_MATCH), 0, n).tolist()
    agent_of = [k & low for k in sorted((k & ~low) | i for i, k in enumerate(keys))]
    rounds = -(-config.n_events // half)
    centres = rng.randint_block(rng.derive(seed, exchange._TAG_CENTRE), 0, rounds, n).tolist()
    draws = rng.u64_block(rng.derive(seed, exchange._TAG_SPLIT), 0, config.n_events).tolist()
    money = [config.initial_money] * n  # by slot
    for e, draw in enumerate(draws):
        c = centres[e // half]
        pairs = sorted((s, (c - s) % n) for s in range(n) if s < (c - s) % n)
        fixed = tuple(s for s in range(n) if (2 * s - c) % n == 0)
        if len(fixed) == 2:
            pairs.append(fixed)
        s, t = pairs[e % half]
        total = money[s] + money[t]
        money[s] = draw % (total + 1)
        money[t] = total - money[s]
    wealth = [0] * n
    for s, agent in enumerate(agent_of):
        wealth[agent] = money[s]
    return WealthVector(wealth)


def uniform_fraction(config):
    """Counterexample: the payer pays floor(u * balance), u ~ U[0, 1).

    Conserves money, but the multiplicative own-balance kernel piles mass
    near zero, so its stationary law is not exponential."""
    money = [config.initial_money] * config.n_agents
    for p, q, r in _ordered_pairs(config):
        amount = int((r >> 11) * 2.0**-53 * money[p])
        money[p] -= amount
        money[q] += amount
    return WealthVector(money)


class TestRunExchange:
    def test_zero_events_leaves_endowments(self):
        w = run_exchange(config(n_events=0))
        assert w.money == [1000] * 500

    @pytest.mark.parametrize("rule", [RULE_UNIFORM_PAIR_SPLIT, RULE_FIXED_AMOUNT])
    def test_total_money_exactly_conserved(self, rule):
        w = run_exchange(config(rule=rule, fixed_amount=37))
        assert w.total() == 500 * 1000
        assert all(m >= 0 for m in w.money)

    def test_deterministic_given_seed(self):
        a = run_exchange(config(seed=99))
        b = run_exchange(config(seed=99))
        c = run_exchange(config(seed=100))
        assert a.money == b.money
        assert a.money != c.money

    # 1: one pair-split round or one fixed-rule event per block; 7919 keys
    # is 15 rounds of 500 agents plus a remainder, and is prime.
    @pytest.mark.parametrize("block", [1, 7_919])
    @pytest.mark.parametrize("rule", [RULE_UNIFORM_PAIR_SPLIT, RULE_FIXED_AMOUNT])
    def test_block_size_does_not_change_output(self, monkeypatch, rule, block):
        # 20_101 events: 80 whole rounds of 250 pairs and a final round of 101
        cfg = config(rule=rule, fixed_amount=37, n_events=20_101)
        whole = run_exchange(cfg)
        monkeypatch.setattr(exchange, "_BLOCK", block)
        assert run_exchange(cfg).money == whole.money

    @pytest.mark.parametrize("n_agents", [2, 3, 500, 501])
    def test_partial_round_moves_only_its_pairs(self, n_agents):
        # events = r whole rounds + k pairs: against r rounds, only the 2k
        # agents of the first k pairs of round r may have moved, and against
        # r + 1 rounds, only the other pairs of that round
        half = n_agents // 2
        r, k = 7, (half + 1) // 2
        runs = [
            np.array(run_exchange(config(n_agents=n_agents, n_events=e, seed=4)).money)
            for e in (r * half, r * half + k, (r + 1) * half)
        ]
        for w in runs:
            assert w.sum() == n_agents * 1000 and (w >= 0).all()
        assert (runs[0] != runs[1]).sum() <= 2 * k
        assert (runs[1] != runs[2]).sum() <= 2 * (half - k)
        if n_agents % 2:
            # one agent sits each round out
            assert (runs[0] == runs[2]).sum() >= 1

    @pytest.mark.parametrize("n_agents", [2, 3, 4, 5, 10, 11])
    def test_rounds_match_the_reflection_oracle(self, n_agents):
        # 6 whole rounds and a partial one
        cfg = config(n_agents=n_agents, n_events=6 * (n_agents // 2) + 1, seed=4)
        assert run_exchange(cfg).money == reflection_rounds(cfg).money

    @pytest.mark.parametrize(
        "n_agents, initial_money", [(7, MONEY_MAX // 7), (2, MONEY_MAX // 2)]
    )
    @pytest.mark.parametrize("rule", [RULE_UNIFORM_PAIR_SPLIT, RULE_FIXED_AMOUNT])
    def test_total_money_up_to_int64_max(self, rule, n_agents, initial_money):
        cfg = config(
            n_agents=n_agents, initial_money=initial_money, n_events=1_001, rule=rule,
            fixed_amount=MONEY_MAX // 3,
        )
        w = run_exchange(cfg)
        assert w.total() == n_agents * initial_money  # exactly MONEY_MAX for 7 agents
        assert all(0 <= m <= MONEY_MAX for m in w.money)
        assert w.money != [initial_money] * n_agents

    def test_split_is_uniform_at_a_pair_total_near_int64(self):
        # total + 1 = 3 * 2**61: a plain draw % (total + 1) keeps less than
        # 2**62 with probability 3/4, so one agent of the pair ends below
        # 2**61 with probability 5/8 instead of 2/3
        total = 3 * 2**61 - 1
        seeds = 6000
        below = 0
        for seed in range(seeds):
            money = np.array([total, 0], dtype=np.uint64)
            exchange._pair_split_rounds(money, 1, seed)
            assert int(money[0]) + int(money[1]) == total
            below += int(money.min()) < 2**61
        assert abs(below / seeds - 2 / 3) < 0.018  # sigma 0.006

    def test_split_near_int64_is_pinned(self):
        # sha256 of the final balances of the 6000 runs above: a change to
        # any split or redraw fails here
        digest = hashlib.sha256()
        for seed in range(6000):
            money = np.array([3 * 2**61 - 1, 0], dtype=np.uint64)
            exchange._pair_split_rounds(money, 1, seed)
            digest.update(money.tobytes())
        assert digest.hexdigest() == (
            "f3ba7582361c48d927a7c5ec88d1f3b02d32ef1cab23ac9af80f083fe7f97f9e"
        )

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            run_exchange(config(n_agents=1))
        with pytest.raises(InvalidConfig):
            run_exchange(config(initial_money=-1))
        with pytest.raises(InvalidConfig):
            run_exchange(config(n_events=-1))
        with pytest.raises(InvalidConfig):
            run_exchange(config(rule="bogus"))
        with pytest.raises(InvalidConfig):
            run_exchange(config(rule="uniform_fraction"))
        with pytest.raises(InvalidConfig):
            run_exchange(config(rule=RULE_FIXED_AMOUNT, fixed_amount=-2))
        with pytest.raises(InvalidConfig, match="total money"):
            run_exchange(config(n_agents=2, initial_money=2**62))
        with pytest.raises(InvalidConfig, match="total money"):
            run_exchange(config(n_agents=10**6, initial_money=MONEY_MAX // 10**6 + 1))

    def test_zero_balance_payer_is_noop_event(self):
        # all money starts on one agent; fixed rule with huge amount
        cfg = ExchangeConfig(
            n_agents=2, initial_money=0, n_events=5, rule=RULE_FIXED_AMOUNT,
            fixed_amount=10, seed=3,
        )
        w = run_exchange(cfg)
        assert w.total() == 0


# config() runs 80 rounds of 250 pairs: 20 blocks of 4 rounds
ROUNDS_PER_BLOCK = 4


@pytest.fixture
def threads(monkeypatch):
    """Every thread started during the test, with blocks of
    ``ROUNDS_PER_BLOCK`` rounds."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(exchange, "_BLOCK", ROUNDS_PER_BLOCK * 250)
    return started


def patch_stream_calls(monkeypatch, on_call):
    """Call ``on_call(tag, k)`` before the ``k``-th (from 1) call of
    ``rng.u64_block`` on the pair-split stream ``tag`` (``_TAG_CENTRE``
    or ``_TAG_SPLIT``) of seed 0."""
    u64_block = rng.u64_block
    tags = {rng.derive(0, tag): tag for tag in (exchange._TAG_CENTRE, exchange._TAG_SPLIT)}
    calls = dict.fromkeys(tags.values(), 0)

    def patched(seed, start, count):
        if seed in tags:
            calls[tags[seed]] += 1
            on_call(tags[seed], calls[tags[seed]])
        return u64_block(seed, start, count)

    monkeypatch.setattr(rng, "u64_block", patched)


class TestPairSplitThreads:
    def test_error_in_a_stream_call_reaches_the_caller(self, monkeypatch, threads):
        before = threading.active_count()
        raised_on = []

        def on_call(tag, k):
            # every block draws its centres once; this is block 2
            if tag == exchange._TAG_CENTRE and k == 3:
                raised_on.append(threading.current_thread())
                raise MemoryError("centres")

        patch_stream_calls(monkeypatch, on_call)
        with pytest.raises(MemoryError, match="^centres$"):
            run_exchange(config())
        assert raised_on == [threading.main_thread()]
        assert threads == []
        assert threading.active_count() == before

    def test_interrupt_mid_run_propagates(self, monkeypatch, threads):
        before = threading.active_count()

        def on_call(tag, k):
            if tag == exchange._TAG_SPLIT and k == 3:
                assert threading.current_thread() is threading.main_thread()
                raise KeyboardInterrupt

        patch_stream_calls(monkeypatch, on_call)
        with pytest.raises(KeyboardInterrupt):
            run_exchange(config())
        assert threads == []  # the run starts no thread
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, None], ids=["one_cpu", "two_cpus", "no_affinity_call"])
    def test_money_does_not_depend_on_cpus_or_timing(self, monkeypatch, threads, cpus):
        before = threading.active_count()
        expected = run_exchange(config()).money
        pin = cpus == {0} and hasattr(os, "sched_setaffinity")
        allowed = os.sched_getaffinity(0) if pin else None
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        interval = sys.getswitchinterval()
        try:
            if pin:
                os.sched_setaffinity(0, {min(allowed)})
            runs = [run_exchange(config()).money]
            # slow stream calls, with threads switching at every chance
            patch_stream_calls(
                monkeypatch,
                lambda tag, k: time.sleep(0.005) if tag == exchange._TAG_CENTRE else None,
            )
            sys.setswitchinterval(1e-6)
            runs.append(run_exchange(config()).money)
        finally:
            sys.setswitchinterval(interval)
            if pin:
                os.sched_setaffinity(0, allowed)
        assert runs == [expected, expected]
        assert threads == []  # no run starts a thread
        assert threading.active_count() == before

    def test_import_loads_no_executor(self):
        src = os.path.dirname(os.path.dirname(exchange.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import finphase.exchange; "
            "print('concurrent.futures' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
        assert out.stdout == "False\n", out.stderr


class TestFitExponential:
    def test_point_mass_statistic(self):
        w = WealthVector([500] * 100)
        fit = fit_exponential(w)
        assert fit.temperature == 500
        # ECDF jumps 0 -> 1 at the mean; sup distance is 1 - 1/e
        assert fit.ks_statistic == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_synthetic_exponential_sample(self):
        # inverse-CDF oracle sample, n = 1e5
        mu = 1000.0
        u = rng.uniform_block(rng.derive(40, 1), 0, 100_000)
        sample = -mu * np.log(1.0 - u)
        fit = fit_exponential(WealthVector(sample.tolist()))
        assert fit.ks_statistic <= 0.01
        assert fit.temperature == pytest.approx(mu, rel=0.02)

    def test_matches_scipy_kstest(self):
        w = run_exchange(config(n_events=200_000))
        fit = fit_exponential(w)
        stat = scipy.stats.kstest(
            np.asarray(w.money, float), "expon", args=(0, fit.temperature)
        ).statistic
        assert fit.ks_statistic == pytest.approx(stat, abs=1e-12)

    def test_degenerate_all_zero(self):
        with pytest.raises(DegenerateSample):
            fit_exponential(WealthVector([0, 0, 0]))

    def test_too_few_agents(self):
        with pytest.raises(InvalidConfig):
            fit_exponential(WealthVector([5]))


class TestEquilibrium:
    def test_pair_split_reaches_exponential(self):
        w = run_exchange(
            ExchangeConfig(n_agents=2000, initial_money=1000, n_events=10**6, seed=1)
        )
        fit = fit_exponential(w)
        assert fit.ks_statistic <= 0.04  # sampling noise floor ~1.36/sqrt(2000)
        assert fit.temperature == pytest.approx(1000, abs=1e-9)

    def test_sequential_oracle_has_the_same_law(self):
        # The sequential chain draws one pair per event; the rounds chain
        # splits disjoint pairs together. Both must relax to the same
        # exponential law, and their samples must agree with each other
        # (two-sample KS at 2000 + 2000, 0.1% critical value ~0.062).
        cfg = ExchangeConfig(n_agents=2000, initial_money=1000, n_events=10**6, seed=1)
        rounds = run_exchange(cfg)
        oracle = sequential_pair_split(cfg)
        assert oracle.total() == rounds.total() == 2000 * 1000
        for w in (rounds, oracle):
            assert fit_exponential(w).ks_statistic <= 0.04
        two_sample = scipy.stats.ks_2samp(rounds.money, oracle.money).statistic
        assert two_sample <= 0.062

    def test_relaxes_no_slower_than_the_sequential_oracle(self):
        # 2.5 events per agent, far from equilibrium: a matching family
        # that mixes slowly would leave run_exchange's KS above that of
        # independently drawn pairs (medians over seeds 0-9)
        def median_ks(chain):
            return statistics.median(
                fit_exponential(
                    chain(ExchangeConfig(n_agents=2000, initial_money=1000, n_events=5000, seed=s))
                ).ks_statistic
                for s in range(10)
            )

        assert median_ks(run_exchange) <= median_ks(sequential_pair_split)

    @pytest.mark.parametrize("chain", [run_exchange, sequential_pair_split])
    def test_three_agents_visit_compositions_uniformly(self, chain):
        # 3 agents sharing 3 units have 10 compositions, and the pair-split
        # chain's stationary law is uniform over them. Final states of 2000
        # seeds after 30 events against the chi-square 0.1% critical value
        # for 9 degrees of freedom.
        counts = {}
        for seed in range(2000):
            w = chain(ExchangeConfig(n_agents=3, initial_money=1, n_events=30, seed=seed))
            key = tuple(w.money)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        assert all(sum(key) == 3 for key in counts)
        expected = 2000 / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 27.877

    def test_uniform_fraction_stationary_law_is_not_exponential(self):
        # Documents why a multiplicative rule is not offered: the
        # own-balance kernel piles mass near zero and its KS distance to
        # the exponential plateaus far above the sampling noise floor
        # (~0.04 here) no matter how long it runs.
        w = uniform_fraction(
            ExchangeConfig(n_agents=1000, initial_money=1000, n_events=2 * 10**6, seed=2)
        )
        assert w.total() == 1000 * 1000
        assert fit_exponential(w).ks_statistic > 0.1

    def test_stationarity_of_ks(self):
        # KS at 2x events differs from KS at x by < 0.01 once equilibrated,
        # in the median over 9 seeds. One seed alone exceeds the bound
        # about one time in ten (99 of seeds 0-999); the median does only
        # when 5 of the 9 do, about once in 1200 runs at that rate.
        diffs = []
        for seed in range(9):
            base = dict(n_agents=2000, initial_money=1000, seed=seed)
            k1, k2 = (
                fit_exponential(run_exchange(ExchangeConfig(n_events=e, **base))).ks_statistic
                for e in (10**6, 2 * 10**6)
            )
            diffs.append(abs(k2 - k1))
        assert statistics.median(diffs) < 0.01

    def test_entropy_nondecreasing_toward_equilibrium(self):
        # 1-D wealth entropy via the degenerate phase grid, median over 10 seeds
        grid = phase.GridSpec(0.0, 10000.0, -1.0, 1.0, 100, 1)
        checkpoints = (2_000, 20_000, 200_000)
        medians = []
        for n_events in checkpoints:
            hs = []
            for seed in range(10):
                w = run_exchange(
                    ExchangeConfig(
                        n_agents=2000, initial_money=1000, n_events=n_events, seed=seed
                    )
                )
                pts = [(float(m), 0.0) for m in w.money]
                hs.append(phase.entropy(phase.bin_phase(pts, grid)))
            medians.append(statistics.median(hs))
        assert medians[0] < medians[1] <= medians[2] + 0.02

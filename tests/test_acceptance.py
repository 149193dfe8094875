"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from finphase import exchange, firms, interest, macro, phase, sectors
from finphase.cli import dispatch


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {description}")


@pytest.fixture(scope="module")
def default_runs():
    """Seeds 0-9 of the default firm economy, shared by criteria 3 and 4."""
    t0 = time.perf_counter()
    runs = [firms.run(firms.EconomyConfig(seed=seed)) for seed in range(10)]
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_exact_conservation_at_scale():
    with criterion(1, "conservation residual 0 at every step, 1000x10000x100 in <10s"):
        config = firms.EconomyConfig(n_steps=100, seed=0)
        t0 = time.perf_counter()
        records = firms.run(config)
        elapsed = time.perf_counter() - t0
        assert config.n_firms == 1000 and config.n_workers == 10000
        assert len(records) == 101
        assert all(rec.conservation_residual == 0 for rec in records)
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gibbs_boltzmann_emergence():
    with criterion(2, "exchange 1e4 agents x 1e7 events: KS <= 0.02, exact total, <60s"):
        config = exchange.ExchangeConfig(
            n_agents=10**4, initial_money=1000, n_events=10**7, seed=0
        )
        t0 = time.perf_counter()
        wealth = exchange.run_exchange(config)
        elapsed = time.perf_counter() - t0
        assert wealth.total() == 10**4 * 1000
        fit = exchange.fit_exponential(wealth)
        assert fit.ks_statistic <= 0.02, f"KS = {fit.ks_statistic:.4f}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_entropy_growth(default_runs):
    with criterion(3, "median H(20) > H(5) > H(2) and std_x(20) > std_x(2), <30s"):
        runs, elapsed = default_runs
        grid = phase.GridSpec.default()

        def med_entropy(t):
            return statistics.median(
                phase.entropy(phase.bin_phase(run[t].points, grid)) for run in runs
            )

        def med_std(t):
            return statistics.median(
                phase.tail_metrics(run[t].points).std_x for run in runs
            )

        h2, h5, h20 = med_entropy(2), med_entropy(5), med_entropy(20)
        assert h20 > h5 > h2, f"H medians {h2:.3f}, {h5:.3f}, {h20:.3f}"
        assert med_std(20) > med_std(2)
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_rentier_tail(default_runs):
    with criterion(4, "median rentier_fraction(20) > (2); no live firm ever has x > 1"):
        runs, _ = default_runs

        def med_rentier(t):
            return statistics.median(
                phase.tail_metrics(run[t].points).rentier_fraction for run in runs
            )

        assert med_rentier(20) > med_rentier(2)
        for run in runs:
            for rec in run:
                assert (rec.points[:, 0] <= 1.0).all()


def test_criterion_5_equilibrium_profit_rate():
    with criterion(5, "R*(0.02,0.03,0.10,0.60) = 0.25 +/- 1e-12; trajectory oracle 1e-6, <1s"):
        t0 = time.perf_counter()
        r_star = macro.equilibrium_rate(0.02, 0.03, 0.10, 0.60)
        assert abs(r_star - 0.25) <= 1e-12
        series = macro.profit_rate_trajectory(
            0.05, 0.02, 0.03, 0.10, 0.60, dt=0.01, n=12_000
        )
        a = 0.02 + 0.03 + 0.10
        t_end = series.t[-1]
        oracle = 0.25 / (1.0 + (0.25 / 0.05 - 1.0) * math.exp(-a * t_end))
        assert abs(series.value[-1] - oracle) <= 1e-6
        assert abs(series.value[-1] - 0.25) <= 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_required_productivity():
    with criterion(6, "g_P*(0.25,0.60,0.02,0.10) = 0.03 +/- 1e-12; inverse on 1e4 draws"):
        assert abs(macro.required_productivity(0.25, 0.60, 0.02, 0.10) - 0.03) <= 1e-12
        gen = np.random.default_rng(123)
        g_L = gen.uniform(0.0, 0.5, 10_000)
        g_P = gen.uniform(0.0, 0.5, 10_000)
        d = gen.uniform(0.0, 0.5, 10_000)
        lam = gen.uniform(0.05, 2.0, 10_000)
        for i in range(10_000):
            r = macro.equilibrium_rate(g_L[i], g_P[i], d[i], lam[i])
            back = macro.required_productivity(r, lam[i], g_L[i], d[i])
            assert abs(back - g_P[i]) <= 1e-12


def test_criterion_7_interest_formation():
    with criterion(7, "P_e = 0.02140 +/- 1e-4, cost in [106900,107100], rate in [0.1069,0.1071], MC 4SE, <10s"):
        t0 = time.perf_counter()
        model = interest.ReserveRiskModel(
            banker_capital=5_000_000, reserves=3_000_000, sigma=1_000_000.0
        )
        p_e = interest.excursion_exceedance(model, 1_000_000)
        cost = interest.expected_loan_cost(model, 1_000_000)
        rate = interest.min_interest_rate(model, 1_000_000)
        assert abs(p_e - 0.02140) <= 1e-4
        assert 106_900 <= cost <= 107_100
        assert 0.1069 <= rate <= 0.1071
        draws = np.random.default_rng(2012).standard_normal(10**7) * model.sigma
        mc = float(((draws > -3_000_000) & (draws <= -2_000_000)).mean())
        se = math.sqrt(p_e * (1 - p_e) / 10**7)
        assert abs(mc - p_e) <= 4 * se, f"MC {mc:.6f} vs {p_e:.6f}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_sector_zero_sum():
    with criterion(8, "Eurozone 2012Q1 sums to exactly 0; Govt->0 offset -122, <1s"):
        t0 = time.perf_counter()
        table = sectors.bundled_eurozone_2012q1()
        assert [v for _, v in table.entries] == [48, 22, 39, -122, 13]
        report = sectors.check_zero_sum(table, 0)
        assert report.residual == 0 and report.is_balanced
        what_if = sectors.counterfactual(table, "Govt", 0)
        assert what_if.required_offset == -122
        assert time.perf_counter() - t0 < 1.0


def test_criterion_9_doubling_time_arithmetic():
    with criterion(9, "cagr: doubling/70 in [0.0099,0.0100]; doubling/7 in [0.104,0.1045]"):
        slow = macro.cagr([0.0, 70.0], [1.0, 2.0])
        fast = macro.cagr([0.0, 7.0], [1.0, 2.0])
        assert 0.0099 <= slow <= 0.0100
        assert 0.104 <= fast <= 0.1045


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every subcommand run twice -> byte-identical data outputs"):
        table_csv = tmp_path / "params.csv"
        table_csv.write_text(
            "year,g_L,g_P,d,lambda\n1964,0.02,0.03,0.10,0.60\n1990,0.01,0.02,0.08,0.50\n"
        )

        def outputs_of(label, argv, files):
            outdir = tmp_path / label
            outdir.mkdir()
            rendered = [
                arg.format(outdir=outdir, table=table_csv) for arg in argv
            ]
            assert dispatch(rendered) == 0, rendered
            return {name: (outdir / name).read_bytes() for name in files}

        cases = {
            "exchange": (
                ["exchange", "--agents", "500", "--events", "50000", "--seed", "3",
                 "--outdir", "{outdir}"],
                ["wealth.csv", "fit.json"],
            ),
            "firms": (
                ["firms", "--firms", "50", "--workers", "250", "--steps", "5",
                 "--seed", "3", "--outdir", "{outdir}"],
                ["series.csv", "run.json", "phase_t5.csv"],
            ),
            "macro": (
                ["macro", "--table", "{table}", "--out", "{outdir}/decomp.csv"],
                ["decomp.csv"],
            ),
            "interest": (
                ["interest", "--capital", "5000000", "--reserves", "3000000",
                 "--loan", "1000000", "--sigma", "1000000",
                 "--out", "{outdir}/rate.json"],
                ["rate.json"],
            ),
            "reserves": (
                ["reserves", "--b0", "9", "--g", "4", "--tax", "2", "--sales", "1",
                 "--out", "{outdir}/path.csv"],
                ["path.csv"],
            ),
            "sectors": (
                ["sectors", "what-if", "--sector", "Govt", "--value", "0",
                 "--out", "{outdir}/whatif.json"],
                ["whatif.json"],
            ),
        }
        # analyze consumes a firms run, produced once up front
        source = tmp_path / "analyzer_input"
        source.mkdir()
        assert dispatch(
            ["firms", "--firms", "30", "--workers", "120", "--steps", "3",
             "--seed", "1", "--outdir", str(source)]
        ) == 0
        cases["analyze"] = (
            ["analyze", str(source / "phase_t3.csv"),
             "--out", "{outdir}/metrics.json", "--hist-out", "{outdir}/hist.csv"],
            ["metrics.json", "hist.csv"],
        )

        for label, (argv, files) in cases.items():
            first = outputs_of(f"{label}_a", argv, files)
            second = outputs_of(f"{label}_b", argv, files)
            assert first == second, f"{label} outputs differ between runs"

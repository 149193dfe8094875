"""Reserve-excursion risk pricing and the linear reserve path."""

import re

import numpy as np
import pytest
import scipy.stats

from finphase.errors import InvalidConfig
from finphase.interest import (
    ReserveRiskModel,
    excursion_exceedance,
    expected_loan_cost,
    gaussian_cdf,
    min_interest_rate,
    reserve_path,
)

M = 1_000_000
BASE_MODEL = ReserveRiskModel(banker_capital=5 * M, reserves=3 * M, sigma=1.0 * M)


class TestGaussianCdf:
    def test_against_scipy(self):
        for x in np.linspace(-8, 8, 81):
            assert gaussian_cdf(float(x)) == pytest.approx(
                scipy.stats.norm.cdf(x), abs=1e-10
            )

    def test_location_scale(self):
        assert gaussian_cdf(3.0, mean=3.0, sigma=5.0) == pytest.approx(0.5, abs=1e-14)
        assert gaussian_cdf(8.0, mean=3.0, sigma=5.0) == pytest.approx(
            scipy.stats.norm.cdf(1.0), abs=1e-12
        )


class TestExcursionExceedance:
    def test_worked_example_band_value(self):
        p = excursion_exceedance(BASE_MODEL, M)
        # Phi(-2) - Phi(-3)
        assert p == pytest.approx(0.0214002339, abs=1e-9)

    def test_zero_loan_empty_interval(self):
        assert excursion_exceedance(BASE_MODEL, 0) == 0.0

    def test_monotone_increasing_in_loan(self):
        loans = [0, 100_000, 500_000, M, 2 * M, 3 * M]
        probs = [excursion_exceedance(BASE_MODEL, loan) for loan in loans]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_vanishes_with_large_reserves(self):
        rich = ReserveRiskModel(banker_capital=5 * M, reserves=100 * M, sigma=1.0 * M)
        assert excursion_exceedance(rich, M) < 1e-15

    def test_monte_carlo_oracle(self):
        # seeded Gaussian draws; agreement within 4 binomial standard errors
        gen = np.random.default_rng(7)
        w = gen.standard_normal(2_000_000) * BASE_MODEL.sigma
        hits = ((w > -3 * M) & (w <= -2 * M)).mean()
        p = excursion_exceedance(BASE_MODEL, M)
        se = np.sqrt(p * (1 - p) / 2_000_000)
        assert abs(hits - p) <= 4 * se

    def test_monte_carlo_oracle_parameter_sweep(self):
        gen = np.random.default_rng(11)
        for reserves, loan, sigma, mean in [
            (2 * M, M, 1.5 * M, 0.0),
            (5 * M, 3 * M, 2.0 * M, -500_000.0),
            (M, M, 0.8 * M, 250_000.0),
        ]:
            model = ReserveRiskModel(
                banker_capital=M, reserves=reserves, sigma=sigma, mean_excursion=mean
            )
            p = excursion_exceedance(model, loan)
            w = gen.standard_normal(1_000_000) * sigma + mean
            hits = ((w > -reserves) & (w <= -(reserves - loan))).mean()
            se = np.sqrt(max(p * (1 - p), 1e-12) / 1_000_000)
            assert abs(hits - p) <= 4 * se + 1e-9

    def test_loan_exceeding_reserves(self):
        with pytest.raises(InvalidConfig, match="^loan .* exceeds reserves"):
            excursion_exceedance(BASE_MODEL, 3 * M + 1)

    def test_negative_loan(self):
        with pytest.raises(ValueError):
            excursion_exceedance(BASE_MODEL, -1)

    def test_nonpositive_sigma(self):
        with pytest.raises(InvalidConfig, match="^sigma"):
            ReserveRiskModel(banker_capital=M, reserves=M, sigma=0.0)
        with pytest.raises(InvalidConfig, match="^sigma"):
            ReserveRiskModel(banker_capital=M, reserves=M, sigma=float("nan"))
        with pytest.raises(InvalidConfig, match="^sigma must be finite, got inf$"):
            ReserveRiskModel(banker_capital=M, reserves=M, sigma=float("inf"))
        with pytest.raises(InvalidConfig, match="^mean_excursion must be finite"):
            ReserveRiskModel(
                banker_capital=M, reserves=M, sigma=1.0, mean_excursion=float("-inf")
            )

    @pytest.mark.parametrize("field", ["banker_capital", "reserves"])
    def test_negative_money(self, field):
        money = {"banker_capital": M, "reserves": M}
        for value in (-1, -(2**63)):
            with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
                ReserveRiskModel(**{**money, field: value}, sigma=1.0)
        zero = ReserveRiskModel(**{**money, field: 0}, sigma=1.0)
        assert expected_loan_cost(zero, 0) == 0.0

    @pytest.mark.parametrize("field", ["banker_capital", "reserves"])
    def test_money_outside_int64(self, field):
        money = {"banker_capital": M, "reserves": M}
        for value in (2**63, 10**400):
            message = f"^{field} must be in the money range .*, got {value}$"
            with pytest.raises(InvalidConfig, match=message):
                ReserveRiskModel(**{**money, field: value}, sigma=1.0)
        edge = ReserveRiskModel(**{**money, field: 2**63 - 1}, sigma=1.0)
        assert 0 <= expected_loan_cost(edge, 1) <= 2**63


class TestMinInterestRate:
    def test_worked_example_rate(self):
        cost = expected_loan_cost(BASE_MODEL, M)
        rate = min_interest_rate(BASE_MODEL, M)
        assert cost == pytest.approx(107_001.17, abs=0.01)
        assert rate == pytest.approx(0.10700117, abs=1e-7)

    def test_rate_linear_in_capital(self):
        double = ReserveRiskModel(banker_capital=10 * M, reserves=3 * M, sigma=1.0 * M)
        assert min_interest_rate(double, M) == pytest.approx(
            2 * min_interest_rate(BASE_MODEL, M), abs=1e-12
        )

    def test_small_loan_limit(self):
        # The exceedance band and expected cost vanish with the loan; the
        # rate itself tends to the marginal hazard capital*pdf(-R/s)/s,
        # not to 0.
        assert excursion_exceedance(BASE_MODEL, 1) < 1e-8
        assert expected_loan_cost(BASE_MODEL, 1) < 0.1
        hazard = (
            BASE_MODEL.banker_capital
            * scipy.stats.norm.pdf(-3.0)
            / BASE_MODEL.sigma
        )
        assert min_interest_rate(BASE_MODEL, 1) == pytest.approx(hazard, rel=1e-4)

    def test_monotone_decreasing_in_reserves(self):
        rates = []
        for reserves in [2 * M, 3 * M, 4 * M, 6 * M, 10 * M]:
            model = ReserveRiskModel(
                banker_capital=5 * M, reserves=reserves, sigma=1.0 * M
            )
            rates.append(min_interest_rate(model, M))
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_nonpositive_loan(self):
        with pytest.raises(InvalidConfig, match="^loan must be > 0"):
            min_interest_rate(BASE_MODEL, 0)


class TestReservePath:
    def test_balanced_flows_constant(self):
        path = reserve_path(100, 50, 50, 0, 1.0, 4)
        assert [b for _, b in path] == [100.0] * 5

    def test_linear_accumulation(self):
        path = reserve_path(7, 15, 3, 2, 1.0, 5)
        assert [b for _, b in path] == [7.0, 17.0, 27.0, 37.0, 47.0, 57.0]
        assert [t for t, _ in path] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_security_sales_drain_reserves(self):
        path = reserve_path(1000, 10, 5, 20, 0.5, 6)
        values = [b for _, b in path]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nonpositive_step(self):
        with pytest.raises(InvalidConfig, match="^dt"):
            reserve_path(0, 0, 0, 0, 0.0, 3)
        with pytest.raises(InvalidConfig, match="^dt"):
            reserve_path(0, 0, 0, 0, float("nan"), 3)
        with pytest.raises(InvalidConfig, match="^dt must be finite"):
            reserve_path(0, 0, 0, 0, float("inf"), 3)

    @pytest.mark.parametrize(
        "flows,dt,n,t_end",
        [
            # float overflow of flow * t, at the last sample only
            ((2**63 - 1, 2**63 - 1, 0, 0), 1e300, 2, "2e+300"),
            # t itself overflows
            ((0, 0, 0, 0), 1e308, 2, "inf"),
            # an amount too large for a float
            ((10**400, 1, 0, 0), 1.0, 3, "3.0"),
        ],
        ids=["flow", "time", "wide_int"],
    )
    def test_leaving_the_finite_range(self, flows, dt, n, t_end):
        message = f"B(t) leaves the finite range by t = {t_end}"
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            reserve_path(*flows, dt, n)

"""Macro rate identities, the logistic trajectory, and CAGR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finphase.errors import DegenerateSample, InvalidConfig
from finphase.macro import (
    average_profit_rate,
    cagr,
    equilibrium_rate,
    profit_rate_trajectory,
    required_productivity,
)


def logistic_oracle(t, R0, g_L, g_P, d, lambda_):
    """Closed-form solution of dR/dt = R (a - lambda R), a = g_L+g_P+d."""
    a = g_L + g_P + d
    r_star = a / lambda_
    return r_star / (1.0 + (r_star / R0 - 1.0) * math.exp(-a * t))


class TestAverageProfitRate:
    def test_arithmetic(self):
        assert average_profit_rate(rho=0.5, L=100.0, K=500.0) == pytest.approx(0.10, abs=1e-15)

    def test_vanishes_with_rho(self):
        assert average_profit_rate(rho=0.0, L=100.0, K=500.0) == 0.0

    def test_homogeneous_in_L_and_K(self):
        assert average_profit_rate(0.3, 70.0, 350.0) == pytest.approx(
            average_profit_rate(0.3, 140.0, 700.0)
        )

    def test_nonpositive_capital(self):
        with pytest.raises(InvalidConfig, match="^K must be > 0"):
            average_profit_rate(0.5, 100.0, 0.0)
        with pytest.raises(InvalidConfig, match="^K must be finite, got inf$"):
            average_profit_rate(0.5, 100.0, float("inf"))


class TestEquilibriumRate:
    def test_headline_example(self):
        assert equilibrium_rate(0.02, 0.03, 0.10, 0.60) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_depreciation_only(self):
        assert equilibrium_rate(0.0, 0.0, 0.07, 1.0) == pytest.approx(0.07)

    def test_arithmetic(self):
        assert equilibrium_rate(0.01, 0.02, 0.05, 0.40) == pytest.approx(0.20)

    def test_nonpositive_lambda(self):
        with pytest.raises(InvalidConfig, match="^lambda must be > 0, got 0.0$"):
            equilibrium_rate(0.02, 0.03, 0.10, 0.0)
        with pytest.raises(InvalidConfig, match="^lambda"):
            equilibrium_rate(0.02, 0.03, 0.10, float("nan"))
        with pytest.raises(InvalidConfig, match="^lambda must be finite, got inf$"):
            equilibrium_rate(0.02, 0.03, 0.10, float("inf"))
        with pytest.raises(InvalidConfig, match="^g_P must be finite, got -inf$"):
            equilibrium_rate(0.02, float("-inf"), 0.10, 0.60)
        with pytest.raises(InvalidConfig, match="^d must be finite, got nan$"):
            equilibrium_rate(0.02, 0.03, float("nan"), 0.60)

    def test_non_finite_result(self):
        # finite parameters whose quotient overflows
        with pytest.raises(InvalidConfig, match=r"^R\* must be finite, got inf$"):
            equilibrium_rate(1.0, 1.0, 1.0, 1e-320)
        with pytest.raises(InvalidConfig, match=r"^R\* must be finite, got inf$"):
            equilibrium_rate(1e308, 1e308, 0.0, 1.0)


class TestRequiredProductivity:
    def test_inverse_of_headline_example(self):
        assert required_productivity(0.25, 0.60, 0.02, 0.10) == pytest.approx(
            0.03, abs=1e-12
        )

    def test_exact_algebraic_inverse(self):
        r = equilibrium_rate(0.02, 0.03, 0.10, 0.60)
        assert required_productivity(r, 0.60, 0.02, 0.10) == pytest.approx(
            0.03, abs=1e-12
        )

    def test_negative_requirement_allowed(self):
        assert required_productivity(0.10, 0.5, 0.01, 0.06) == pytest.approx(
            -0.02, abs=1e-12
        )

    def test_non_finite_result(self):
        with pytest.raises(InvalidConfig, match="^g_P_required must be finite, got inf$"):
            required_productivity(1e308, 10.0, 0.02, 0.1)
        with pytest.raises(InvalidConfig, match="^g_P_required must be finite, got -inf$"):
            required_productivity(0.25, 0.6, 1e308, 1e308)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.floats(0.05, 2.0),
)
def test_inverse_property_randomized(g_L, g_P, d, lambda_):
    r_star = equilibrium_rate(g_L, g_P, d, lambda_)
    back = required_productivity(r_star, lambda_, g_L, d)
    assert back == pytest.approx(g_P, abs=1e-12)


class TestTrajectory:
    def test_fixed_point_is_constant(self):
        r_star = equilibrium_rate(0.02, 0.03, 0.10, 0.60)
        series = profit_rate_trajectory(r_star, 0.02, 0.03, 0.10, 0.60, 0.1, 100)
        assert all(v == pytest.approx(r_star, abs=1e-13) for v in series.value)

    def test_converges_to_equilibrium_and_oracle(self):
        series = profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, 0.60, 0.01, 12_000)
        assert series.value[-1] == pytest.approx(0.25, abs=1e-6)
        for idx in (0, 100, 1_000, 12_000):
            exact = logistic_oracle(series.t[idx], 0.05, 0.02, 0.03, 0.10, 0.60)
            assert series.value[idx] == pytest.approx(exact, abs=1e-9)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            g_L, g_P, d = rng.uniform(0.005, 0.2, size=3)
            lambda_ = rng.uniform(0.1, 2.0)
            r_star = (g_L + g_P + d) / lambda_
            R0 = rng.uniform(0.05, 2.0) * r_star
            series = profit_rate_trajectory(R0, g_L, g_P, d, lambda_, 0.01, 2_000)
            exact = logistic_oracle(series.t[-1], R0, g_L, g_P, d, lambda_)
            assert abs(series.value[-1] - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_halving_dt_richardson(self):
        end_full = profit_rate_trajectory(
            0.05, 0.02, 0.03, 0.10, 0.60, 0.01, 1000
        ).value[-1]
        end_half = profit_rate_trajectory(
            0.05, 0.02, 0.03, 0.10, 0.60, 0.005, 2000
        ).value[-1]
        assert abs(end_full - end_half) < 1e-8

    def test_monotone_convergence(self):
        r_star = equilibrium_rate(0.02, 0.03, 0.10, 0.60)
        rising = profit_rate_trajectory(0.2 * r_star, 0.02, 0.03, 0.10, 0.60, 0.05, 400)
        assert all(b > a for a, b in zip(rising.value, rising.value[1:]))
        falling = profit_rate_trajectory(2.0 * r_star, 0.02, 0.03, 0.10, 0.60, 0.05, 400)
        assert all(b < a for a, b in zip(falling.value, falling.value[1:]))

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="^R0"):
            profit_rate_trajectory(0.0, 0.02, 0.03, 0.10, 0.60, 0.01, 10)
        with pytest.raises(InvalidConfig, match="^dt"):
            profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, 0.60, 0.0, 10)
        with pytest.raises(InvalidConfig, match="^dt"):
            profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, 0.60, float("nan"), 10)
        with pytest.raises(InvalidConfig, match="^dt must be finite"):
            profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, 0.60, float("inf"), 10)
        with pytest.raises(InvalidConfig, match="^lambda"):
            profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, 0.0, 0.01, 10)
        with pytest.raises(InvalidConfig, match="^lambda must be finite"):
            profit_rate_trajectory(0.05, 0.02, 0.03, 0.10, float("inf"), 0.01, 10)
        with pytest.raises(InvalidConfig, match="^R0 must be finite"):
            profit_rate_trajectory(float("inf"), 0.02, 0.03, 0.10, 0.60, 0.01, 10)
        with pytest.raises(InvalidConfig, match="^g_L must be finite"):
            profit_rate_trajectory(0.05, float("nan"), 0.03, 0.10, 0.60, 0.01, 10)

    def test_leaving_the_finite_range_names_the_step(self):
        # lambda * R0**2 overflows within the first step
        with pytest.raises(InvalidConfig, match="^R leaves the finite range at step 1, got -inf$"):
            profit_rate_trajectory(1e200, 0.02, 0.03, 0.10, 0.60, 1.0, 2)
        # the first step lands near -1.9e152, the second overflows
        with pytest.raises(InvalidConfig, match="^R leaves the finite range at step 2, got -inf$"):
            profit_rate_trajectory(1e10, 0.02, 0.03, 0.10, 0.60, 1.0, 50)


class TestRateSeries:
    def test_lengths_must_match(self):
        from finphase.macro import RateSeries

        with pytest.raises(ValueError):
            RateSeries((0.0, 1.0), (0.1,))

    def test_time_must_increase(self):
        from finphase.macro import RateSeries

        with pytest.raises(ValueError):
            RateSeries((0.0, 0.0), (0.1, 0.2))


class TestCagr:
    def test_constant_series(self):
        assert cagr([0, 10], [5.0, 5.0]) == pytest.approx(0.0, abs=1e-15)

    def test_doubling_over_70(self):
        rate = cagr([0, 70], [100.0, 200.0])
        assert rate == pytest.approx(2 ** (1 / 70) - 1, abs=1e-12)
        assert 0.0099 <= rate <= 0.0100

    def test_doubling_over_7(self):
        rate = cagr([0, 7], [100.0, 200.0])
        assert rate == pytest.approx(2 ** (1 / 7) - 1, abs=1e-12)
        assert 0.104 <= rate <= 0.1045

    def test_scale_and_translation_invariance(self):
        base = cagr([1900, 1950, 2000], [617.9, 2130.9, 4569.9])
        scaled = cagr([1900, 1950, 2000], [6179.0, 21309.0, 45699.0])
        shifted = cagr([0, 50, 100], [617.9, 2130.9, 4569.9])
        assert base == pytest.approx(scaled, abs=1e-14)
        assert base == pytest.approx(shifted, abs=1e-14)

    def test_errors(self):
        with pytest.raises(DegenerateSample, match="^cagr needs at least 2"):
            cagr([0], [1.0])
        with pytest.raises(InvalidConfig, match="^levels"):
            cagr([0, 1], [1.0, 0.0])
        with pytest.raises(InvalidConfig, match="^levels"):
            cagr([0, 1], [1.0, float("nan")])
        with pytest.raises(InvalidConfig, match="^levels must be finite"):
            cagr([0, 1], [1.0, float("inf")])
        with pytest.raises(ValueError):
            cagr([0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            cagr([0, float("nan")], [1.0, 2.0])
        with pytest.raises(ValueError, match="^t must be finite"):
            cagr([0, float("inf")], [1.0, 2.0])

    def test_non_finite_result(self):
        # exp overflows (OverflowError), and the levels' ratio overflows (inf)
        with pytest.raises(InvalidConfig, match="^cagr must be finite, got inf$"):
            cagr([0, 1e-10], [1.0, 1e10])
        with pytest.raises(InvalidConfig, match="^cagr must be finite, got inf$"):
            cagr([0, 1], [1e-300, 1e300])

    def test_ratio_underflow_is_finite(self):
        assert cagr([0, 1], [1e300, 1e-300]) == -1.0
        assert cagr([0, 1000], [1e300, 1e-300]) == pytest.approx(
            math.exp(-600 * math.log(10) / 1000) - 1.0, rel=1e-12
        )

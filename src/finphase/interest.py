"""Interest floor from Gaussian reserve-excursion risk, and the linear
reserve dynamics dB/dt = G - T - S.

A loan of size ``loan`` against pre-loan reserves ``reserves`` fails the
bank when the year's maximal excursion W of reserves from their mean lands
in (-reserves, -(reserves - loan)]: withdrawals the pre-loan reserves
would have survived but the post-loan reserves cannot. With W Gaussian,
that band probability times the banker's capital is the expected cost of
the loan, and cost/loan is the minimum rational interest rate.

Pure functions; thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfig
from .ledger import MONEY_MAX, MONEY_MIN, Money


@dataclass(frozen=True)
class ReserveRiskModel:
    banker_capital: Money  # lost if the bank fails
    reserves: Money  # pre-loan reserve level
    sigma: float  # std. dev. of the annual maximal excursion W
    mean_excursion: float = 0.0

    def __post_init__(self):
        for name in ("banker_capital", "reserves"):
            value = getattr(self, name)
            if not MONEY_MIN <= value <= MONEY_MAX:  # beyond it, float(value) can overflow
                raise InvalidConfig(
                    f"{name} must be in the money range [{MONEY_MIN}, {MONEY_MAX}], got {value}"
                )
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.sigma > 0:
            raise InvalidConfig(f"sigma must be > 0, got {self.sigma}")
        if not math.isfinite(self.sigma):
            raise InvalidConfig(f"sigma must be finite, got {self.sigma}")
        if not math.isfinite(self.mean_excursion):
            raise InvalidConfig(f"mean_excursion must be finite, got {self.mean_excursion}")


@dataclass(frozen=True)
class ReserveFlowParams:
    B0: Money  # initial private-bank reserves
    G: Money  # government payments per year
    Tx: Money  # tax payments per year
    S: Money  # government security sales per year


def gaussian_cdf(x: float, mean: float = 0.0, sigma: float = 1.0) -> float:
    """Phi((x - mean)/sigma) via the C library's erfc; absolute error is
    at the few-ulp level, far below the 1e-10 documented bound."""
    return 0.5 * math.erfc((mean - x) / (sigma * math.sqrt(2.0)))


def excursion_exceedance(model: ReserveRiskModel, loan: Money) -> float:
    """Pr{ -reserves < W <= -(reserves - loan) } for Gaussian W.

    The incremental failure probability created by the loan, not the
    bank's total failure probability.
    """
    if loan < 0:
        raise ValueError("loan must be >= 0")
    if loan > model.reserves:
        raise InvalidConfig(f"loan {loan} exceeds reserves {model.reserves}")
    hi = gaussian_cdf(-(model.reserves - loan), model.mean_excursion, model.sigma)
    lo = gaussian_cdf(-model.reserves, model.mean_excursion, model.sigma)
    return max(hi - lo, 0.0)


def expected_loan_cost(model: ReserveRiskModel, loan: Money) -> float:
    """banker_capital * excursion_exceedance."""
    return model.banker_capital * excursion_exceedance(model, loan)


def min_interest_rate(model: ReserveRiskModel, loan: Money) -> float:
    """Lower bound on the rational annual interest rate: expected cost of
    the loan divided by the loan."""
    if not loan > 0:
        raise InvalidConfig(f"loan must be > 0, got {loan}")
    return expected_loan_cost(model, loan) / loan


def reserve_path(
    params: ReserveFlowParams, dt: float, n: int
) -> list[tuple[float, float]]:
    """B(t) = B0 + (G - Tx - S) * t sampled at t = k*dt, k = 0..n.

    The law is exactly linear, so the path carries no integration error.
    A path that leaves the finite float range is an InvalidConfig.
    """
    if not dt > 0:
        raise InvalidConfig(f"dt must be > 0, got {dt}")
    if not math.isfinite(dt):
        raise InvalidConfig(f"dt must be finite, got {dt}")
    if n < 0:
        raise ValueError("n must be >= 0")
    flow = params.G - params.Tx - params.S
    try:
        path = [(k * dt, params.B0 + flow * (k * dt)) for k in range(n + 1)]
    except OverflowError:  # an amount too large for a float
        path = None
    # |B - B0| and t grow with k: the last sample is the largest
    if path is None or not all(map(math.isfinite, path[-1])):
        raise InvalidConfig(f"B(t) leaves the finite range by t = {n * dt!r}")
    return path

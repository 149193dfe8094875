"""Closed-form macro model: average profit rate, its dynamic equilibrium,
logistic time evolution, required productivity growth, and compound
growth.

All rates are dimensionless fractions per year (never percent); pure
functions throughout. A parameter or a result that is not finite is an
InvalidConfig naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateSample, InvalidConfig


@dataclass(frozen=True)
class RateSeries:
    t: tuple  # years, strictly increasing
    value: tuple  # rate or level at each t

    def __post_init__(self):
        if len(self.t) != len(self.value):
            raise ValueError("t and value must have equal length")
        if any(b <= a for a, b in zip(self.t, self.t[1:])):
            raise ValueError("t must be strictly increasing")


def _require_finite(names: str, *values: float) -> None:
    """InvalidConfig naming the first non-finite value; ``names`` lists
    the parameter names, space-separated, in the order of ``values``."""
    for name, v in zip(names.split(), values):
        if not math.isfinite(v):
            raise InvalidConfig(f"{name} must be finite, got {v}")


def average_profit_rate(rho: float, L: float, K: float) -> float:
    """R = rho * L / K: surplus fraction rho, labour flow L (person-hours
    per year), and the labour time K (person-hours) that reproduces the
    capital stock."""
    if not K > 0:
        raise InvalidConfig(f"K must be > 0, got {K}")
    _require_finite("rho L K", rho, L, K)
    return rho * L / K


def equilibrium_rate(g_L: float, g_P: float, d: float, lambda_: float) -> float:
    """R* = (g_L + g_P + d) / lambda; the fixed point of the profit-rate
    growth dynamics."""
    if not lambda_ > 0:
        raise InvalidConfig(f"lambda must be > 0, got {lambda_}")
    _require_finite("g_L g_P d lambda", g_L, g_P, d, lambda_)
    r_star = (g_L + g_P + d) / lambda_
    _require_finite("R*", r_star)
    return r_star


def required_productivity(
    R_target: float, lambda_: float, g_L: float, d: float
) -> float:
    """g_P needed to sustain R_target: lambda * R_target - (g_L + d).

    Exact algebraic inverse of :func:`equilibrium_rate`; may be negative.
    """
    g_P = lambda_ * R_target - (g_L + d)
    _require_finite("g_P_required", g_P)
    return g_P


def profit_rate_trajectory(
    R0: float,
    g_L: float,
    g_P: float,
    d: float,
    lambda_: float,
    dt: float,
    n: int,
) -> RateSeries:
    """Integrate dR/dt = R * (g_L + g_P + d - lambda * R) with classic
    4th-order Runge-Kutta at fixed step dt, holding rho constant.

    The dynamics are logistic with fixed point R* = (g_L+g_P+d)/lambda, so
    the closed-form solution is available as an independent test oracle.
    """
    if not R0 > 0:
        raise InvalidConfig(f"R0 must be > 0, got {R0}")
    if not dt > 0:
        raise InvalidConfig(f"dt must be > 0, got {dt}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not lambda_ > 0:
        raise InvalidConfig(f"lambda must be > 0, got {lambda_}")
    _require_finite("R0 g_L g_P d lambda dt", R0, g_L, g_P, d, lambda_, dt)
    a = g_L + g_P + d

    def f(r: float) -> float:
        return r * (a - lambda_ * r)

    ts = [0.0]
    values = [R0]
    r = R0
    for k in range(n):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r = r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(r):
            raise InvalidConfig(f"R leaves the finite range at step {k + 1}, got {r}")
        ts.append((k + 1) * dt)
        values.append(r)
    return RateSeries(tuple(ts), tuple(values))


def cagr(t: Sequence[float], levels: Sequence[float]) -> float:
    """Compound annual growth rate between the first and last points:
    (v_end / v_start) ** (1 / (t_end - t_start)) - 1."""
    if len(t) < 2 or len(levels) < 2:
        raise DegenerateSample("cagr needs at least 2 points")
    if len(t) != len(levels):
        raise ValueError("t and levels must have equal length")
    if any(not b > a for a, b in zip(t, t[1:])):
        raise ValueError("t must be strictly increasing")
    if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
        raise ValueError("t must be finite")
    for v in levels:
        if not v > 0:
            raise InvalidConfig(f"levels must be > 0, got {v}")
        _require_finite("levels", v)
    span = t[-1] - t[0]
    ratio = levels[-1] / levels[0]
    # where the ratio underflows to 0, the difference of the logs
    log_ratio = math.log(ratio) if ratio > 0 else math.log(levels[-1]) - math.log(levels[0])
    try:
        growth = math.exp(log_ratio / span) - 1.0
    except OverflowError:
        growth = math.inf
    _require_finite("cagr", growth)
    return growth

"""Phase-plane density estimation and Boltzmann entropy.

Each agent is a point (x, y) = (debt ratio, normalized debt change). The
probability density is estimated by per-pixel binning on a rectangular
grid; entropy is the discrete plug-in value H = -sum(p log p) in nats over
in-range counts. Out-of-range points are counted separately and excluded
from the normalization, never silently dropped.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DegenerateSample, InvalidConfig


# Default window: covers the bankruptcy wall at x = 1 plus a long
# negative-x (net creditor) tail.
DEFAULT_GRID_BOUNDS = (-10.0, 1.5, -1.0, 1.0)
DEFAULT_GRID_BINS = (100, 100)
# The most bins a grid may have, checked before anything is allocated:
# 2048 x 2048, so one int64 count grid takes at most 32 MiB.
MAX_BINS = 2**22


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        # a finite, positive width also takes finite ends in order, and bin_phase divides by it
        if not (0 < self.x_max - self.x_min < math.inf and 0 < self.y_max - self.y_min < math.inf):
            raise ValueError("grid extent must be finite and non-empty")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("bin counts must be >= 1")
        if self.nx * self.ny > MAX_BINS:
            raise ValueError(f"grid of {self.nx} x {self.ny} bins exceeds the limit of {MAX_BINS}")

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(*DEFAULT_GRID_BOUNDS, *DEFAULT_GRID_BINS)


@dataclass(frozen=True)
class PhaseHistogram:
    grid: GridSpec
    counts: np.ndarray  # shape (nx, ny), non-negative int64
    total: int
    out_of_range: int

    @property
    def in_range(self) -> int:
        return self.total - self.out_of_range


@dataclass(frozen=True)
class TailMetrics:
    rentier_fraction: float  # share of points with x < 0
    mean_x: float
    std_x: float
    skew_x: float


def bin_phase(points: ArrayLike, grid: GridSpec) -> PhaseHistogram:
    """Bin (n, 2) (x, y) points on the grid; bins are half-open [lo, hi)
    except the top edge of the last bin in each axis, which is inclusive."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    total = len(pts)
    if total == 0:
        counts = np.zeros((grid.nx, grid.ny), dtype=np.int64)
        return PhaseHistogram(grid, counts, 0, 0)
    x = pts[:, 0]
    y = pts[:, 1]
    in_range = (
        (x >= grid.x_min) & (x <= grid.x_max) & (y >= grid.y_min) & (y <= grid.y_max)
    )
    xi = x[in_range]
    yi = y[in_range]
    ix = np.floor(
        (xi - grid.x_min) / (grid.x_max - grid.x_min) * grid.nx
    ).astype(np.int64)
    iy = np.floor(
        (yi - grid.y_min) / (grid.y_max - grid.y_min) * grid.ny
    ).astype(np.int64)
    # Points exactly on the top edge fall in the last bin.
    np.clip(ix, 0, grid.nx - 1, out=ix)
    np.clip(iy, 0, grid.ny - 1, out=iy)
    flat = np.bincount(ix * grid.ny + iy, minlength=grid.nx * grid.ny)
    counts = flat.reshape(grid.nx, grid.ny).astype(np.int64)
    return PhaseHistogram(grid, counts, total, total - int(in_range.sum()))


def entropy(hist: PhaseHistogram) -> float:
    """H = -sum(p ln p) in nats over in-range bins, with 0 ln 0 := 0.

    Always in [0, ln(nx*ny)]; permutation-invariant in the bins and
    unchanged by adding empty bins.
    """
    n = hist.in_range
    if n < 1:
        raise DegenerateSample("entropy needs at least one in-range point")
    c = hist.counts[hist.counts > 0].astype(float)
    p = c / n
    return float(-(p * np.log(p)).sum()) + 0.0


def tail_metrics(points: ArrayLike) -> TailMetrics:
    """Sample statistics of the debt-ratio marginal {x} of (n, 2) points;
    a moment that leaves the finite float range is an InvalidConfig
    naming the first metric it makes non-finite."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise DegenerateSample(f"need >= 2 points, got {len(pts)}")
    x = pts[:, 0]
    with np.errstate(all="ignore"):  # an overflow is reported below, by name
        mean = x.mean()
        centered = x - mean
        m2 = (centered**2).mean()
        scale = m2**1.5
        if 0.0 < m2 and scale < np.finfo(float).tiny:  # underflows: standardise first
            centered, scale = centered / math.sqrt(m2), 1.0
        skew = (centered**3).mean() / scale if m2 > 0.0 else 0.0
    metrics = TailMetrics(
        rentier_fraction=float((x < 0).sum()) / len(x),
        mean_x=float(mean),
        std_x=math.sqrt(m2),
        skew_x=float(skew),
    )
    for name in ("mean_x", "std_x", "skew_x"):
        if not math.isfinite(value := getattr(metrics, name)):
            raise InvalidConfig(f"{name} must be finite, got {value}")
    return metrics


def histogram_csv(hist: PhaseHistogram) -> str:
    """The count grid as CSV text with a ``#key,value`` metadata header."""
    g = hist.grid
    rows = [",".join(str(int(c)) for c in row) + "\n" for row in hist.counts]
    return (
        f"#x_min,{g.x_min!r}\n#x_max,{g.x_max!r}\n"
        f"#y_min,{g.y_min!r}\n#y_max,{g.y_max!r}\n"
        f"#nx,{g.nx}\n#ny,{g.ny}\n"
        f"#total,{hist.total}\n#out_of_range,{hist.out_of_range}\n"
        + "".join(rows)
    )


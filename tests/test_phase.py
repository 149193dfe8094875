"""Phase-plane binning, entropy, and tail metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finphase import rng
from finphase.errors import DegenerateSample, InvalidConfig
from finphase.phase import (
    MAX_BINS,
    GridSpec,
    PhaseHistogram,
    bin_phase,
    entropy,
    histogram_csv,
    tail_metrics,
)

from conftest import normal_block

UNIT_GRID = GridSpec(0.0, 1.0, 0.0, 1.0, 10, 10)


class TestGridSpec:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 0.0, 1.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 2.0, 1.0, 10, 10)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_extent(self, bound):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(-1.0, bound, 0.0, 1.0, 10, 10)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(bound, 1.0, 0.0, 1.0, 10, 10)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(0.0, 1.0, 0.0, bound, 10, 10)

    def test_rejects_a_width_beyond_the_float_range(self):
        # finite ends whose difference is inf would put every point in bin 0
        with pytest.raises(ValueError, match="^grid extent must be finite and non-empty$"):
            GridSpec(-1e308, 1e308, -1.0, 1.0, 10, 10)
        with pytest.raises(ValueError, match="^grid extent must be finite and non-empty$"):
            GridSpec(0.0, 1.0, -1e308, 1e308, 10, 10)
        # a width that fits is binned as usual: x = 0 and 0.5 land in bin 5
        wide = GridSpec(-1e307, 1e307, -1.0, 1.0, 10, 10)
        points = [[-1e307, 0.0], [0.0, 0.0], [0.5, 0.0], [1e307, 0.0]]
        assert bin_phase(points, wide).counts.sum(axis=1).tolist() == [1, 0, 0, 0, 0, 2, 0, 0, 0, 1]

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0, 10)

    def test_rejects_more_than_max_bins(self):
        # only the specification is built, never a count grid
        assert GridSpec(0.0, 1.0, 0.0, 1.0, 2048, 2048).nx * 2048 == MAX_BINS
        assert GridSpec(0.0, 1.0, 0.0, 1.0, MAX_BINS, 1).nx == MAX_BINS
        for nx, ny in [(2048, 2049), (MAX_BINS + 1, 1), (100000, 100000)]:
            with pytest.raises(ValueError, match=f"grid of {nx} x {ny} bins exceeds the limit"):
                GridSpec(0.0, 1.0, 0.0, 1.0, nx, ny)

    def test_default(self):
        g = GridSpec.default()
        assert (g.x_min, g.x_max, g.y_min, g.y_max) == (-10.0, 1.5, -1.0, 1.0)
        assert (g.nx, g.ny) == (100, 100)


class TestBinPhase:
    def test_single_point_at_center(self):
        hist = bin_phase([(0.55, 0.55)], UNIT_GRID)
        assert hist.counts.sum() == 1
        assert hist.counts[5, 5] == 1
        assert hist.total == 1 and hist.out_of_range == 0

    def test_top_edge_lands_in_last_bin(self):
        hist = bin_phase([(1.0, 1.0)], UNIT_GRID)
        assert hist.counts[9, 9] == 1
        assert hist.out_of_range == 0

    def test_half_open_interior_edges(self):
        hist = bin_phase([(0.5, 0.0)], UNIT_GRID)
        assert hist.counts[5, 0] == 1

    def test_out_of_range_counted_not_dropped(self):
        pts = [(2.0, 0.5), (0.5, 0.5), (-0.1, 0.0)]
        hist = bin_phase(pts, UNIT_GRID)
        assert hist.total == 3
        assert hist.out_of_range == 2
        assert hist.counts.sum() == 1
        assert hist.in_range == 1

    def test_empty_input_allowed(self):
        hist = bin_phase([], UNIT_GRID)
        assert hist.total == 0
        assert hist.out_of_range == 0
        assert hist.counts.sum() == 0
        assert hist.counts.dtype == np.int64
        assert hist.counts.shape == (UNIT_GRID.nx, UNIT_GRID.ny)

    def test_uniform_points_within_binomial_band(self):
        # 1e5 uniform points on a 20x20 grid: all bins within 5 sigma
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 20, 20)
        n = 100_000
        xs = rng.uniform_block(rng.derive(1000, 1), 0, n)
        ys = rng.uniform_block(rng.derive(1000, 2), 0, n)
        pts = np.column_stack([xs, ys])
        hist = bin_phase(pts, grid)
        assert hist.out_of_range == 0
        p = 1 / 400
        expected = n * p
        sigma = math.sqrt(n * p * (1 - p))
        assert np.abs(hist.counts - expected).max() < 5 * sigma


def _axis(lo, hi):
    """Coordinates on [lo, hi], on and just past its edges, and outside."""
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    return st.one_of(st.sampled_from(edges + [lo - 1.0, hi + 1.0]), st.floats(lo, hi))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_axis(-10.0, 1.5), _axis(-1.0, 1.0)), max_size=80),
    st.lists(st.integers(0, 80), max_size=6),
)
def test_histograms_of_chunks_sum_to_the_whole(points, cuts):
    # analyze's combined histogram is the sum of its per-file ones
    grid = GridSpec.default()
    pts = np.array(points, dtype=float).reshape(-1, 2)
    whole = bin_phase(pts, grid)
    parts = [bin_phase(chunk, grid) for chunk in np.split(pts, sorted(cuts))]
    assert np.array_equal(sum(p.counts for p in parts), whole.counts)
    assert sum(p.total for p in parts) == whole.total == len(pts)
    assert sum(p.out_of_range for p in parts) == whole.out_of_range


class TestEntropy:
    def test_all_mass_one_bin_is_zero(self):
        hist = bin_phase([(0.5, 0.5)] * 1000, UNIT_GRID)
        assert entropy(hist) == 0.0

    def test_equal_mass_gives_log_n(self):
        pts = []
        for i in range(10):
            for j in range(10):
                pts.append((0.05 + 0.1 * i, 0.05 + 0.1 * j))
        hist = bin_phase(pts * 3, UNIT_GRID)
        assert entropy(hist) == pytest.approx(math.log(100), rel=1e-12)

    def test_bounds(self):
        xs = rng.uniform_block(17, 0, 5000)
        ys = rng.uniform_block(18, 0, 5000)
        hist = bin_phase(np.column_stack([xs, ys]), UNIT_GRID)
        assert 0.0 <= entropy(hist) <= math.log(100)

    def test_permutation_and_padding_invariance(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0], counts[1, 2], counts[3, 3] = 5, 3, 2
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)
        h1 = entropy(PhaseHistogram(grid, counts, 10, 0))
        shuffled = counts.flatten()
        shuffled = shuffled[np.argsort(rng.u64_block(3, 0, len(shuffled)))]
        h2 = entropy(PhaseHistogram(grid, shuffled.reshape(4, 4), 10, 0))
        assert h1 == pytest.approx(h2, abs=1e-12)
        padded = np.zeros((8, 8), dtype=np.int64)
        padded[:4, :4] = counts
        grid8 = GridSpec(0.0, 1.0, 0.0, 1.0, 8, 8)
        h3 = entropy(PhaseHistogram(grid8, padded, 10, 0))
        assert h1 == pytest.approx(h3, abs=1e-12)

    def test_empty_histogram_raises(self):
        with pytest.raises(DegenerateSample, match="^entropy needs"):
            entropy(bin_phase([], UNIT_GRID))
        # all points out of range also has no in-range mass
        with pytest.raises(DegenerateSample, match="^entropy needs"):
            entropy(bin_phase([(5.0, 5.0)], UNIT_GRID))

    def test_refinement_never_decreases_entropy(self):
        # doubling nx, ny splits each bin: grouping can only add entropy
        xs = normal_block(21, 0, 20_000) * 0.15 + 0.5
        ys = normal_block(22, 0, 20_000) * 0.15 + 0.5
        pts = np.column_stack([xs, ys])
        for nx, ny in [(5, 5), (10, 10), (20, 20), (25, 50)]:
            coarse = GridSpec(0.0, 1.0, 0.0, 1.0, nx, ny)
            fine = GridSpec(0.0, 1.0, 0.0, 1.0, 2 * nx, 2 * ny)
            h_coarse = entropy(bin_phase(pts, coarse))
            h_fine = entropy(bin_phase(pts, fine))
            assert h_fine >= h_coarse - 1e-12

    def test_degenerate_1d_grid_matches_1d_histogram_entropy(self):
        # ny = 1 reduces to the wealth-histogram entropy used for exchange
        money = (rng.uniform_block(30, 0, 10_000) * 4000).tolist()
        grid = GridSpec(0.0, 4000.0, -1.0, 1.0, 50, 1)
        pts = [(m, 0.0) for m in money]
        h2d = entropy(bin_phase(pts, grid))
        counts, _ = np.histogram(money, bins=50, range=(0.0, 4000.0))
        p = counts[counts > 0] / counts.sum()
        h1d = float(-(p * np.log(p)).sum())
        assert h2d == pytest.approx(h1d, abs=1e-12)


class TestTailMetrics:
    def test_all_zero(self):
        m = tail_metrics([(0.0, 0.0)] * 10)
        assert m.rentier_fraction == 0.0
        assert m.std_x == 0.0
        assert m.skew_x == 0.0

    def test_symmetric_pair(self):
        m = tail_metrics([(-1.0, 0.0), (1.0, 0.0)])
        assert m.rentier_fraction == 0.5
        assert m.mean_x == 0.0

    def test_negative_skew_for_long_left_tail(self):
        xs = [-10.0, -5.0] + [0.1] * 50
        m = tail_metrics([(x, 0.0) for x in xs])
        assert m.skew_x < 0

    def test_matches_numpy_moments(self):
        xs = normal_block(77, 0, 5000)
        m = tail_metrics([(float(x), 0.0) for x in xs])
        assert m.mean_x == pytest.approx(float(xs.mean()), abs=1e-12)
        assert m.std_x == pytest.approx(float(xs.std()), abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateSample, match="^need >= 2 points"):
            tail_metrics([(0.0, 0.0)])

    @pytest.mark.parametrize(
        "xs, message",
        [
            ([1e308, 1e308], "mean_x must be finite, got inf"),
            ([1e200, -1e200, 0.3], "std_x must be finite, got inf"),
            # m2 is finite but m2**1.5 overflows
            ([1e150, -1e150, 0.3], "skew_x must be finite, got nan"),
            # m2 > 0 but m2**1.5 underflows to 0: the skew is taken from
            # standardised values, and is finite
            ([0.0, 1e-110], None),
        ],
        ids=["mean", "std", "skew_overflow", "skew_underflow"],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_moment_names_the_metric(self, xs, message):
        if message is None:
            assert tail_metrics([(x, 0.0) for x in xs]).skew_x == 0.0
            return
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            tail_metrics([(x, 0.0) for x in xs])

    @pytest.mark.parametrize("scale", [1e-100, 1e-110, 1e-150])
    @pytest.mark.filterwarnings("error")
    def test_skew_of_a_tiny_sample_is_the_skew_of_its_shape(self, scale):
        # m2**1.5 underflows from a scale of about 1e-103, m2 itself only
        # past 1e-154; in between the skew still does not depend on scale
        xs = [0.0, 1.0, 1.0, 4.0]
        want = tail_metrics([(x, 0.0) for x in xs]).skew_x
        got = tail_metrics([(x * scale, 0.0) for x in xs]).skew_x
        assert got == pytest.approx(want, rel=1e-9)


class TestHistogramCsv:
    def test_roundtrip(self, tmp_path):
        xs = rng.uniform_block(5, 0, 1000)
        ys = rng.uniform_block(6, 0, 1000)
        hist = bin_phase(np.column_stack([xs, ys]), UNIT_GRID)
        path = tmp_path / "hist.csv"
        path.write_text(histogram_csv(hist))
        # read back as the README's plotting recipe does
        counts = np.loadtxt(path, comments="#", delimiter=",", dtype=np.int64, ndmin=2)
        lines = path.read_text().splitlines()
        meta = dict(line[1:].split(",") for line in lines if line.startswith("#"))
        grid = GridSpec(
            *(float(meta[k]) for k in ("x_min", "x_max", "y_min", "y_max")),
            int(meta["nx"]), int(meta["ny"]),
        )
        assert grid == hist.grid
        assert (counts == hist.counts).all()
        assert int(meta["total"]) == hist.total
        assert int(meta["out_of_range"]) == hist.out_of_range

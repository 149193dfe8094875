"""The benchmark's workloads: inputs made from the seed, the ``finphase``
arguments, the unit of work, and an independent check of every output.

Each check recomputes what it can from the raw files with numpy and
raises ``OutputError`` on the first disagreement; the program's own
summaries (``fit.json``, the residual it prints) are not trusted.
"""

import json
import math

import numpy as np

# finphase's default phase grid, restated here so the check does not use
# the code under test: x in [-10, 1.5], y in [-1, 1], 100 x 100 bins.
GRID = (-10.0, 1.5, -1.0, 1.0)
GRID_BINS = (100, 100)


class OutputError(Exception):
    """An output file is missing, malformed or wrong."""


def strict_json(path):
    """Parse JSON that must not contain NaN or Infinity."""

    def reject(token):
        raise OutputError(f"{path.name}: non-finite number {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def _expect(condition, message):
    if not condition:
        raise OutputError(message)


def _rows(path, columns, dtype=float):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=dtype)
    _expect(table.shape[1] == columns, f"{path.name}: expected {columns} columns")
    return table


class FirmsLong:
    """``finphase firms`` with its normal output: one phase CSV per step
    boundary, ``series.csv`` and ``run.json``. Work unit: one step."""

    name = "firms_long"

    def __init__(self, firms=1000, workers=10000, steps=100):
        self.firms, self.workers, self.steps = firms, workers, steps
        self.seed = 0

    def prepare(self, seed, indir):
        self.seed = seed

    def argv(self, outdir):
        return [
            "firms",
            "--firms", str(self.firms),
            "--workers", str(self.workers),
            "--steps", str(self.steps),
            "--seed", str(self.seed),
            "--outdir", str(outdir),
        ]

    @property
    def work(self):
        return self.steps

    bytes_read = 0

    def check(self, outdir):
        names = {f"phase_t{t}.csv" for t in range(self.steps + 1)}
        names |= {"series.csv", "run.json"}
        found = {p.name for p in outdir.iterdir()}
        _expect(found == names, f"outputs {sorted(found ^ names)[:3]} unexpected or missing")
        run = strict_json(outdir / "run.json")
        residual = run["final_conservation_residual"]
        _expect(residual == 0, f"final conservation residual {residual}")
        ids = np.arange(self.firms)
        for t in range(self.steps + 1):
            path = outdir / f"phase_t{t}.csv"
            table = _rows(path, 3)
            _expect(table.shape[0] == self.firms, f"{path.name}: {table.shape[0]} rows")
            _expect(np.array_equal(table[:, 0], ids), f"{path.name}: firm ids")
            _expect(np.isfinite(table).all(), f"{path.name}: non-finite point")
        series = _rows(outdir / "series.csv", 8)
        _expect(series.shape[0] == self.steps + 1, "series.csv: row count")
        _expect(np.array_equal(series[:, 0], np.arange(self.steps + 1)), "series.csv: t")
        _expect(np.isfinite(series).all(), "series.csv: non-finite value")
        classified = series[1:, 5:8].sum(axis=1)
        _expect((classified == self.firms).all(), "series.csv: class counts")


class ExchangeGibbs:
    """``finphase exchange`` with the uniform pair-split rule, which relaxes
    to the exponential (Gibbs-Boltzmann) law. Work unit: one event."""

    name = "exchange_gibbs"

    def __init__(self, agents=10000, initial_money=1000, events=10_000_000, ks_max=0.02):
        self.agents, self.initial_money, self.events = agents, initial_money, events
        self.ks_max = ks_max
        self.seed = 0

    def prepare(self, seed, indir):
        self.seed = seed

    def argv(self, outdir):
        return [
            "exchange",
            "--agents", str(self.agents),
            "--initial-money", str(self.initial_money),
            "--events", str(self.events),
            "--seed", str(self.seed),
            "--outdir", str(outdir),
        ]

    @property
    def work(self):
        return self.events

    bytes_read = 0

    def check(self, outdir):
        total = self.agents * self.initial_money
        table = _rows(outdir / "wealth.csv", 2, dtype=np.int64)
        _expect(table.shape[0] == self.agents, "wealth.csv: row count")
        _expect(np.array_equal(table[:, 0], np.arange(self.agents)), "wealth.csv: agent ids")
        money = table[:, 1]
        _expect((money >= 0).all(), "wealth.csv: negative balance")
        _expect(int(money.sum()) == total, f"wealth.csv: total {int(money.sum())} != {total}")
        ks = ks_exponential(money)
        _expect(ks <= self.ks_max, f"wealth.csv: KS {ks:.4f} > {self.ks_max}")
        fit = strict_json(outdir / "fit.json")
        _expect(fit["total_money"] == total, "fit.json: total_money")


def ks_exponential(sample):
    """sup |ECDF - CDF| against the exponential with the sample's mean."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    cdf = 1.0 - np.exp(-x / x.mean())
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


class AnalyzePhase:
    """``finphase analyze`` over phase CSVs written from the seed before
    timing starts, shaped like a firm run. Work unit: one point."""

    name = "analyze_phase"

    def __init__(self, files=101, points=5000):
        self.files, self.points = files, points
        self.paths, self.expected = [], {}
        self.bytes_read = 0

    @property
    def work(self):
        return self.files * self.points

    def prepare(self, seed, indir):
        indir.mkdir(parents=True, exist_ok=True)
        gen = np.random.default_rng(seed)
        self.paths, self.expected = [], {}
        for k in range(self.files):
            x, y = phase_points(gen, self.points)
            path = indir / f"phase_t{k}.csv"
            lines = [f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(x.tolist(), y.tolist()))]
            path.write_text("firm_id,x,y\n" + "".join(lines))
            self.paths.append(path)
            self.expected[path.name] = {
                "points": self.points,
                "out_of_range": int((~in_grid(x, y)).sum()),
                "rentier_fraction": float((x < 0).sum()) / len(x),
                "mean_x": float(x.mean()),
            }
        self.bytes_read = sum(p.stat().st_size for p in self.paths)

    def argv(self, outdir):
        return [
            "analyze",
            *map(str, self.paths),
            "--out", str(outdir / "report.json"),
            "--hist-out", str(outdir / "hist.csv"),
        ]

    def check(self, outdir):
        report = strict_json(outdir / "report.json")
        _expect(set(report) == set(self.expected), "report.json: file names")
        for name, want in self.expected.items():
            got = report[name]
            for key in ("points", "out_of_range", "rentier_fraction"):
                _expect(got[key] == want[key], f"report.json: {name} {key} {got[key]} != {want[key]}")
            _expect(math.isclose(got["mean_x"], want["mean_x"], rel_tol=1e-12), f"report.json: {name} mean_x")
            h = got["entropy"]
            _expect(0.0 <= h <= math.log(GRID_BINS[0] * GRID_BINS[1]), f"report.json: {name} entropy {h}")
        meta, rows = {}, []
        for line in (outdir / "hist.csv").read_text().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition(",")
                meta[key] = value
            elif line:
                rows.append([int(c) for c in line.split(",")])
        counts = np.array(rows, dtype=np.int64)
        total = sum(e["points"] for e in self.expected.values())
        outside = sum(e["out_of_range"] for e in self.expected.values())
        _expect(counts.shape == GRID_BINS, f"hist.csv: shape {counts.shape}")
        _expect(int(meta["total"]) == total, "hist.csv: total")
        _expect(int(meta["out_of_range"]) == outside, "hist.csv: out_of_range")
        _expect(int(counts.sum()) == total - outside, "hist.csv: in-range count")


def in_grid(x, y):
    x0, x1, y0, y1 = GRID
    return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def phase_points(gen, n):
    """Points shaped like a polarised firm population: a leveraged head
    below the bankruptcy wall at x = 1, an exponential rentier tail at
    x < 0 (about 1% of it beyond the grid's x = -10), firms re-entered at
    the origin, and a few points past the wall or outside y in [-1, 1]."""
    kind = gen.random(n)
    x = np.zeros(n)
    y = np.zeros(n)
    head = kind < 0.55
    tail = (kind >= 0.55) & (kind < 0.9)
    outside = kind >= 0.95
    x[head] = 1.0 - gen.exponential(0.3, head.sum())
    y[head] = gen.normal(0.0, 0.15, head.sum())
    x[tail] = -gen.exponential(2.2, tail.sum())
    y[tail] = gen.normal(0.0, 0.05, tail.sum())
    x[outside] = gen.uniform(-2.0, 3.0, outside.sum())
    y[outside] = gen.choice([-1.0, 1.0], outside.sum()) * (1.0 + gen.exponential(0.5, outside.sum()))
    return x, y


def make(name, tiny=False):
    """The workload called ``name``, at full size or at a seconds-long
    smoke-test size."""
    if name == "firms_long":
        return FirmsLong(firms=20, workers=200, steps=5) if tiny else FirmsLong()
    if name == "exchange_gibbs":
        return ExchangeGibbs(agents=2000, events=100_000, ks_max=0.05) if tiny else ExchangeGibbs()
    if name == "analyze_phase":
        return AnalyzePhase(files=3, points=200) if tiny else AnalyzePhase()
    raise KeyError(name)


NAMES = ("firms_long", "exchange_gibbs", "analyze_phase")

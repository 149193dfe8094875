"""Command-line entry point.

One binary, subcommand style: exchange | firms | analyze | macro |
interest | reserves | sectors. Every run is deterministic given its
config and seed (seeds default to 0, never to the clock), and all data
outputs are written with full-precision repr formatting so identical runs
are byte-identical. ``firms`` formats its phase CSVs and ``analyze``
parses them with the help of a process forked from this one, which meets
it in the middle (``_phasecsv``). Every output file is declared to
``_Outputs``, which refuses one that is an input or another output before
any is written, and removes what it wrote if the run fails. Exit codes: 0
success, 1 domain error (message on stderr, never a stack trace), 2 usage
error. Each subcommand imports its own modules, so no run pays for the others'.

Config files are plain ``key = value`` lines with ``#`` comments; CLI
flags override file values, and unknown keys are hard errors. The default
output directory is taken from $FINPHASE_OUTDIR, falling back to the
current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import platform
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

# finphase makes no BLAS call, so OpenBLAS's thread pool, started when
# numpy is imported, would only cost CPU time; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, phase
from .errors import DegenerateSample, FinphaseError, InvalidConfig, ParseError

# What is imported by now lives until exit; frozen, it is left out of every
# collection, and the interpreter's exit takes ~6 ms instead of ~26 ms.
gc.freeze()

ENV_OUTDIR = "FINPHASE_OUTDIR"


# --- helpers ----------------------------------------------------------------


def _outdir(args) -> Path:
    return Path(args.outdir or os.environ.get(ENV_OUTDIR) or ".")


class _DecodeError(UnicodeDecodeError):
    """A UnicodeDecodeError whose message starts with its file, ``path``."""

    def __str__(self) -> str:
        return f"{self.path}: {super().__str__()}"


@contextlib.contextmanager
def _decoding(path):
    """A block that reads the text file ``path``: a UnicodeDecodeError
    raised in it is raised again as a _DecodeError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        error = _DecodeError(*exc.args)
        error.path = path
        raise error from None


def _json(payload) -> str:
    """Strict JSON text: a NaN or infinity raises ValueError instead of
    being written as a token JSON does not have."""
    return json.dumps(payload, indent=2, allow_nan=False)


class _Outputs(contextlib.AbstractContextManager):
    """The output files of one run, declared up front: the ``(flag, path)``
    of each file a flag names (path None: no file) and the ``names`` of
    files in ``outdir``. An output that is one of ``inputs`` or an output
    before it (the same file, or the same resolved path) raises
    InvalidConfig. In a ``with`` block, ``emit`` writes a file by the flag
    or name it was declared by, making ``outdir`` before the first; if the
    block fails, the files emitted are removed again, then the directories
    made for them that are left empty, and nothing else."""

    def __init__(self, inputs, flags=(), outdir=None, names=()) -> None:
        def key(path):
            try:
                st = os.stat(path)
            except OSError:
                return Path(path).resolve()
            return st.st_dev, st.st_ino

        declared = [(flag, flag, path) for flag, path in flags if path is not None]
        declared += [(name, str(outdir / name), outdir / name) for name in names]
        taken = {key(path): "an input" for path in inputs if path is not None}
        for _, label, path in declared:
            if (other := taken.setdefault(key(path), label)) != label:
                raise InvalidConfig(f"{label} and {other} name the same file")
        self.paths = {name: path for name, _, path in declared}  # in declared order
        self.outdir = outdir if names else None  # None once it is made
        self.written: list[Path] = []
        self.made: list[Path] = []  # the directories that did not exist, deepest first

    def emit(self, name, data: bytes) -> None:
        path = self.paths[name]  # a file that was not declared is never written
        if self.outdir is not None:
            self.made = [d for d in (self.outdir, *self.outdir.parents) if not d.exists()]
            self.outdir.mkdir(parents=True, exist_ok=True)
            self.outdir = None
        with open(path, "wb") as fh:
            self.written.append(Path(path))  # from here on the file is this run's
            fh.write(data)

    def report(self, text: str) -> None:
        """``text`` as the ``--out`` file if one was declared, else on stdout."""
        if "--out" in self.paths:
            self.emit("--out", f"{text}\n".encode())
        else:
            print(text)

    def manifest(self, subcommand: str, config: dict, started: str, **extra) -> None:
        """``manifest.json``, if declared: the run's config and seed, times,
        the other outputs in declared order, any ``extra`` fields, the
        Python and numpy versions, and peak RSS: the larger of this
        process's and that of its largest reaped child (``firms``'s writer)."""
        if "manifest.json" not in self.paths:
            return
        import resource  # Unix only; needed only when a manifest is asked for

        # ru_maxrss is in KiB on Linux and in bytes on macOS
        who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        rss = max(resource.getrusage(w).ru_maxrss for w in who)
        payload = {
            "tool": "finphase",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "seed": config["seed"],
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "conservation_residuals": None,
            "outputs": [name for name in self.paths if name != "manifest.json"],
            **extra,  # a key above keeps its place
            "python": platform.python_version(),
            "numpy": np.__version__,
            "peak_rss_mb": rss / (2**20 if sys.platform == "darwin" else 2**10),
        }
        self.emit("manifest.json", f"{_json(payload)}\n".encode())

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            for path in self.written:
                path.unlink(missing_ok=True)
            for directory in self.made:  # deepest first: one left non-empty keeps its parents
                with contextlib.suppress(OSError):
                    directory.rmdir()


_GRID_FIELDS = ("XMIN", "XMAX", "YMIN", "YMAX", "NX", "NY")


def _grid_from_args(args) -> phase.GridSpec:
    """The ``--grid`` extents and bin counts; a field that does not parse
    is an InvalidConfig naming it, and GridSpec checks the values."""
    if args.grid is None:
        return phase.GridSpec.default()
    values = []
    for name, text in zip(_GRID_FIELDS, args.grid):
        kind, what = (int, "an integer") if name in ("NX", "NY") else (float, "a number")
        try:
            values.append(kind(text))
        except ValueError:
            raise InvalidConfig(f"--grid {name} must be {what}, got {text!r}") from None
    return phase.GridSpec(*values)


def _csv_rows(path, width: int) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row of a CSV with ``#``
    comments; a row with another number of fields is a ParseError."""
    rows = []
    with _decoding(path), open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != width:
                raise ParseError(lineno, f"{path}: expected {width} fields, got {len(fields)}")
            rows.append((lineno, fields))
    return rows


def _finite_floats(path, lineno: int, names, fields) -> list[float]:
    """``fields`` as finite floats; anything else is a ParseError naming
    the line and the column."""
    values = []
    for name, text in zip(names, fields):
        try:
            values.append(float(text))
        except ValueError:
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise ParseError(lineno, f"{path}: {name} must be a finite number, got {text!r}")
    return values


def _steps(args) -> int:
    """``--steps``, which the integrators of ``macro`` and ``reserves`` take as ``n``."""
    if args.steps < 0:
        raise InvalidConfig("steps must be >= 0")
    return args.steps


def parse_config_file(path, config_cls):
    """Read ``key = value`` lines into a dict typed per the dataclass."""
    hints = typing.get_type_hints(config_cls)
    valid = {f.name: hints[f.name] for f in dataclasses.fields(config_cls)}
    values = {}
    with _decoding(path), open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in valid:
                raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise InvalidConfig(f"{path}:{lineno}: key {key!r} given twice")
            caster = valid[key]
            try:
                values[key] = caster(value) if caster is not str else value
            except ValueError:
                raise InvalidConfig(
                    f"{path}:{lineno}: cannot parse {value!r} as {caster.__name__}"
                )
    return values


def _config_from_args(config_cls, args, path=None):
    """``config_cls`` built from the config file at ``path``, if any, with
    each flag given (not None) over the field its ``dest`` names. The
    config checks its fields as it is built."""
    values = parse_config_file(path, config_cls) if path else {}
    for field in dataclasses.fields(config_cls):
        if (value := getattr(args, field.name)) is not None:
            values[field.name] = value
    return config_cls(**values)


# --- subcommands --------------------------------------------------------------


def _cmd_exchange(args) -> int:
    from . import exchange

    rules = {"pairsplit": exchange.RULE_UNIFORM_PAIR_SPLIT, "fixed": exchange.RULE_FIXED_AMOUNT}
    args.rule = rules[args.rule]
    config = _config_from_args(exchange.ExchangeConfig, args)
    names = ["wealth.csv", "fit.json"] + ["manifest.json"] * args.manifest
    outputs = _Outputs([], outdir=_outdir(args), names=names)
    started = datetime.now(timezone.utc).isoformat()
    wealth = exchange.run_exchange(config)
    fit = exchange.fit_exponential(wealth)

    fit_json = {
        "temperature": fit.temperature,
        "ks_statistic": fit.ks_statistic,
        "total_money": wealth.total(),
    }
    with outputs:
        rows = "".join([f"{i},{m}\n" for i, m in enumerate(wealth.money)])
        outputs.emit("wealth.csv", f"agent_id,money\n{rows}".encode())
        outputs.emit("fit.json", f"{_json(fit_json)}\n".encode())
        outputs.manifest("exchange", dataclasses.asdict(config), started)
    print(
        f"exchange: {config.n_agents} agents, {config.n_events} events, "
        f"temperature {fit.temperature:.6g}, KS {fit.ks_statistic:.6g}"
    )
    return 0


def _cmd_firms(args) -> int:
    from . import _phasecsv, firms

    config = _config_from_args(firms.EconomyConfig, args, args.config)
    grid = _grid_from_args(args)
    names = [f"phase_t{t}.csv" for t in range(config.n_steps + 1)]
    names += ["series.csv", "run.json"] + ["manifest.json"] * args.manifest
    outputs = _Outputs([args.config], outdir=_outdir(args), names=names)
    series = ["t,entropy,rentier_fraction,std_x,bankruptcies,class_A,class_B,class_C\n"]
    residuals = []
    timings = dict.fromkeys(firms.PHASES, 0.0) if args.manifest else None
    started = datetime.now(timezone.utc).isoformat()
    with _phasecsv.PhaseWriter() as writer:
        # a degenerate sample or a step error fails in this loop, before any output
        for rec in firms.records(config, timings):
            writer.send(rec.points)  # formatted by the writer while the next step runs
            h = phase.entropy(phase.bin_phase(rec.points, grid))
            metrics = phase.tail_metrics(rec.points)
            a, b, c = rec.class_counts
            series.append(
                f"{rec.t},{h!r},{metrics.rentier_fraction!r},"
                f"{metrics.std_x!r},{rec.bankruptcies},{a},{b},{c}\n"
            )
            residuals.append(rec.conservation_residual)
        with outputs:
            # each file as soon as its text is done; the writer's exit status
            # is checked after the last
            for k, text in writer.texts():
                outputs.emit(names[k], text)
            # written after the phase files, so a writer that fails at once leaves no output
            outputs.emit("series.csv", "".join(series).encode())
            run = {
                "config": dataclasses.asdict(config),
                "seed": config.seed,
                "final_conservation_residual": residuals[-1],
            }
            outputs.emit("run.json", f"{_json(run)}\n".encode())
            outputs.manifest(
                "firms", dataclasses.asdict(config), started,
                conservation_residuals=residuals, phase_seconds=timings,
            )
    print(
        f"firms: {config.n_firms} firms x {config.n_steps} steps, "
        f"final residual {residuals[-1]}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from . import _phasecsv

    grid = _grid_from_args(args)
    files = args.files
    outputs = _Outputs(files, [("--hist-out", args.hist_out), ("--out", args.out)])
    # The report is keyed by base name, so two inputs sharing one would
    # leave one entry for both.
    names = [Path(name).name for name in files]
    seen = set()
    for base in names:
        if base in seen:
            raise InvalidConfig(f"two inputs have the base name {base!r}; the report is keyed by it")
        seen.add(base)
    # Binning is per point, so the histogram of all files is the sum of
    # the per-file ones; a file's points are dropped once it is summarised.
    counts = np.zeros((grid.nx, grid.ny), dtype=np.int64)
    entries = [None] * len(files)  # the report's, in argument order
    errors = {}  # by file index: the first bad file's is raised
    # one file is not worth a phase reader: this process parses it
    with _phasecsv.PhaseReader(files) if len(files) > 1 else contextlib.nullcontext() as reader:
        for k, values in _phasecsv.meet(reader, len(files)):
            try:
                if values is None:  # this process's file, or one the reader rejected
                    with _decoding(files[k]):
                        values = _phasecsv.parse_file(files[k])  # raises the error of a bad file
                points = np.frombuffer(values).reshape(-1, 2)  # either process's pairs
                hist = phase.bin_phase(points, grid)
                counts += hist.counts
                metrics = phase.tail_metrics(points)
                entries[k] = {
                    "entropy": phase.entropy(hist),
                    "rentier_fraction": metrics.rentier_fraction,
                    "mean_x": metrics.mean_x,
                    "std_x": metrics.std_x,
                    "skew_x": metrics.skew_x,
                    "points": hist.total,
                    "out_of_range": hist.out_of_range,
                }
            except (DegenerateSample, InvalidConfig) as exc:  # these do not name the file
                errors[k] = type(exc)(f"{files[k]}: {exc}")
            except (FinphaseError, OSError, ValueError, MemoryError) as exc:
                errors[k] = exc  # raised unless a file before this one fails too
    if errors:
        raise errors[min(errors)]
    text = _json(dict(zip(names, entries)))  # a non-finite metric fails here, before any output
    with outputs:
        if args.hist_out:
            total, out_of_range = (sum(e[key] for e in entries) for key in ("points", "out_of_range"))
            combined = phase.PhaseHistogram(grid, counts, total, out_of_range)
            outputs.emit("--hist-out", phase.histogram_csv(combined).encode())
        outputs.report(text)
    return 0


def _cmd_macro(args) -> int:
    from . import macro

    scale = 100.0 if args.percent else 1.0
    unit = "%" if args.percent else ""
    if args.cagr:
        ts, levels = [], []
        for k, (lineno, fields) in enumerate(_csv_rows(args.cagr, 2)):
            try:
                float(fields[0])
            except ValueError:
                if k == 0:
                    continue  # header row; a later one fails below
            t, level = _finite_floats(args.cagr, lineno, ("t", "level"), fields)
            ts.append(t)
            levels.append(level)
        growth = macro.cagr(ts, levels)
        print(f"cagr = {growth * scale:.12g}{unit}")
        return 0
    if args.table:
        if args.out is None:
            raise InvalidConfig("--table needs --out for the result CSV")
        outputs = _Outputs([args.table], [("--out", args.out)])
        expected = ["year", "g_L", "g_P", "d", "lambda"]
        table = _csv_rows(args.table, len(expected))
        if table and table[0][1] != expected:
            raise InvalidConfig(f"table header must be {','.join(expected)}")
        rows = [
            (year, *_finite_floats(args.table, lineno, expected[1:], values))
            for lineno, (year, *values) in table[1:]
        ]
        if not rows:
            raise InvalidConfig("table has no data rows")
        reference = args.reference
        if reference is None:  # the first year's equilibrium rate
            reference = macro.equilibrium_rate(*rows[0][1:])
        lines = ["year,R_star,g_P_required_vs_reference\n"]
        for year, g_L, g_P, d, lam in rows:  # every row is checked before the file opens
            r_star = macro.equilibrium_rate(g_L, g_P, d, lam)
            g_req = macro.required_productivity(reference, lam, g_L, d)
            lines.append(f"{year},{r_star!r},{g_req!r}\n")
        with outputs:
            outputs.emit("--out", "".join(lines).encode())
        print(f"macro: wrote {len(rows)} rows to {args.out}")
        return 0
    if None in (args.gL, args.gP, args.d, args.lambda_):
        raise InvalidConfig("macro needs --gL --gP --d --lambda (or --table/--cagr)")
    r_star = macro.equilibrium_rate(args.gL, args.gP, args.d, args.lambda_)
    report = [f"R* = {r_star * scale:.12g}{unit}"]  # printed once nothing can fail
    if args.r0 is not None:
        series = macro.profit_rate_trajectory(
            args.r0, args.gL, args.gP, args.d, args.lambda_, args.dt, _steps(args)
        )
        if args.out:
            rows = "".join([f"{t!r},{v!r}\n" for t, v in zip(series.t, series.value)])
            with _Outputs([], [("--out", args.out)]) as outputs:
                outputs.emit("--out", f"t,R\n{rows}".encode())
        report.append(f"R({series.t[-1]:.12g}) = {series.value[-1] * scale:.12g}{unit}")
    print("\n".join(report))
    return 0


def _cmd_interest(args) -> int:
    from . import interest

    model = interest.ReserveRiskModel(args.capital, args.reserves, args.sigma, args.mean)
    p_e = interest.excursion_exceedance(model, args.loan)
    cost = interest.expected_loan_cost(model, args.loan)
    rate = interest.min_interest_rate(model, args.loan)
    payload = {"p_e": p_e, "expected_cost": cost, "min_rate": rate}
    with _Outputs([], [("--out", args.out)]) as outputs:
        outputs.report(_json(payload))
    return 0


def _cmd_reserves(args) -> int:
    from . import interest

    flows = args.b0, args.g, args.tax, args.sales
    path_points = interest.reserve_path(*flows, args.dt, _steps(args))
    outputs = _Outputs([], [("--out", args.out)], _outdir(args), [] if args.out else ["reserves.csv"])
    [(name, out)] = outputs.paths.items()
    rows = "".join([f"{t!r},{b!r}\n" for t, b in path_points])
    with outputs:
        outputs.emit(name, f"t,B\n{rows}".encode())
    print(f"reserves: wrote {len(path_points)} samples to {Path(out)}")
    return 0


def _cmd_sectors(args) -> int:
    from . import sectors

    outputs = _Outputs([args.file], [("--out", args.out)])
    if args.file:
        with _decoding(args.file):
            table = sectors.load_sectors(args.file)
    else:
        table = sectors.bundled_eurozone_2012q1()
    if args.action == "check":
        report = sectors.check_zero_sum(table, args.tolerance)
        payload = {
            "period": table.period,
            "scale": table.scale,
            "residual": report.residual,
            "is_balanced": report.is_balanced,
            "largest_surplus": report.largest_surplus,
            "largest_deficit": report.largest_deficit,
        }
    else:  # what-if
        if args.sector is None or args.value is None:
            raise InvalidConfig("what-if needs --sector and --value")
        result = sectors.counterfactual(table, args.sector, args.value)
        payload = {
            "period": table.period,
            "scale": table.scale,
            "sector": args.sector,
            "new_value": args.value,
            "required_offset": result.required_offset,
            "balances": dict(result.table.entries),
        }
    with outputs:
        outputs.report(_json(payload))
    return 0


# --- parser -------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The finphase parser. Every subcommand is listed, but only
    ``command``'s parser is given its arguments, or every one's when it is
    None: a run parses with the one parser its subcommand names."""
    parser = argparse.ArgumentParser(
        prog="finphase",
        description="Deterministic econophysics simulations and analytics.",
    )
    parser.add_argument("--version", action="version", version=f"finphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help):
        p = sub.add_parser(name, help=help)
        return p if command in (None, name) else None

    def add_common(p):
        p.add_argument("--outdir", default=None, help="output directory")
        # None: the config's seed, 0 unless a config file sets it
        p.add_argument("--seed", type=int, default=None, help="PRNG seed (default 0)")
        p.add_argument(
            "--manifest", action="store_true", help="also write manifest.json"
        )

    def add_grid(p):
        p.add_argument(
            "--grid",
            nargs=6,
            metavar=_GRID_FIELDS,
            default=None,
            help="phase-plane extent and bin counts",
        )

    if p := subparser("exchange", "conservative random pairwise exchange"):
        add_common(p)
        # each flag sets the ExchangeConfig field its dest names
        p.add_argument("--agents", dest="n_agents", type=int, default=10000)
        p.add_argument("--initial-money", dest="initial_money", type=int, default=1000)
        p.add_argument("--events", dest="n_events", type=int, default=10**7)
        p.add_argument("--rule", dest="rule", choices=("pairsplit", "fixed"), default="pairsplit")
        p.add_argument("--amount", dest="fixed_amount", type=int, default=1, help="amount for the fixed rule")
        p.set_defaults(func=_cmd_exchange)

    if p := subparser("firms", "firm/worker/bank phase-plane economy"):
        add_common(p)
        p.add_argument("--config", default=None, help="key = value config file")
        # each flag sets the EconomyConfig field its dest names; None: not given
        p.add_argument("--firms", dest="n_firms", type=int)
        p.add_argument("--workers", dest="n_workers", type=int)
        p.add_argument("--base-money", dest="base_money", type=int)
        p.add_argument("--wage", dest="wage", type=int)
        p.add_argument("--interest-rate", dest="interest_rate", type=float)
        p.add_argument("--margin", dest="investment_margin", type=float)
        p.add_argument("--depreciation", dest="depreciation", type=float)
        p.add_argument("--consumption", dest="capitalist_consumption_fraction", type=float)
        p.add_argument("--steps", dest="n_steps", type=int)
        p.add_argument("--initial-capital", dest="initial_capital", type=int)
        p.add_argument("--churn", dest="customer_churn", type=float)
        add_grid(p)
        p.set_defaults(func=_cmd_firms)

    if p := subparser("analyze", "entropy and tail metrics of phase CSVs"):
        p.add_argument("files", nargs="+")
        add_grid(p)
        p.add_argument("--out", default=None, help="write metrics JSON here")
        p.add_argument("--hist-out", default=None, help="write combined histogram CSV")
        p.set_defaults(func=_cmd_analyze)

    if p := subparser("macro", "profit-rate equilibrium and growth rates"):
        p.add_argument("--gL", type=float, default=None)
        p.add_argument("--gP", type=float, default=None)
        p.add_argument("--d", type=float, default=None)
        p.add_argument("--lambda", dest="lambda_", type=float, default=None)
        p.add_argument("--r0", type=float, default=None, help="also integrate from R0")
        p.add_argument("--dt", type=float, default=0.01)
        p.add_argument("--steps", type=int, default=10000)
        p.add_argument("--table", default=None, help="CSV of year,g_L,g_P,d,lambda")
        p.add_argument("--reference", type=float, default=None)
        p.add_argument("--cagr", default=None, help="CSV of t,level")
        p.add_argument("--percent", action="store_true", help="display rates as percent")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_macro)

    if p := subparser("interest", "interest floor from reserve-excursion risk"):
        p.add_argument("--capital", type=int, required=True)
        p.add_argument("--reserves", type=int, required=True)
        p.add_argument("--loan", type=int, required=True)
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--mean", type=float, default=0.0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_interest)

    if p := subparser("reserves", "linear reserve path dB/dt = G - T - S"):
        p.add_argument("--b0", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--tax", type=int, required=True)
        p.add_argument("--sales", type=int, required=True)
        p.add_argument("--dt", type=float, default=1.0)
        p.add_argument("--steps", type=int, default=10)
        p.add_argument("--out", default=None)
        p.add_argument("--outdir", default=None)
        p.set_defaults(func=_cmd_reserves)

    if p := subparser("sectors", "sectoral balance zero-sum checks"):
        p.add_argument("action", choices=["check", "what-if"])
        p.add_argument("file", nargs="?", default=None, help="CSV (default: bundled Eurozone 2012 Q1)")
        p.add_argument("--tolerance", type=int, default=0)
        p.add_argument("--sector", default=None)
        p.add_argument("--value", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_sectors)

    return parser


def dispatch(argv) -> int:
    """Route argv to a subcommand; never lets an exception escape."""
    # the first argument that is not an option names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/usage errors
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():  # --lambda is stored as lambda_
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{name.rstrip('_')} must be finite, got {value}")
        return args.func(args)
    except (FinphaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""CLI: routing, exit codes, output formats, and reproducibility."""

import dataclasses
import io
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
import types
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finphase import _phasecsv, cli, exchange, firms, phase
from finphase.cli import _json, _Outputs, build_parser, dispatch, parse_config_file
from finphase.errors import DegenerateSample, InvalidConfig, MoneyOverflow
from finphase.exchange import ExchangeConfig
from finphase.firms import EconomyConfig


def run_cli(*argv):
    return dispatch(list(argv))


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert "finphase" in capsys.readouterr().out

    def test_domain_error_exits_one_with_message(self, capsys):
        code = run_cli("exchange", "--agents", "1", "--events", "10")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_json_output_rejects_non_finite_numbers(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError), _Outputs([], [("--out", path)]) as outputs:
            outputs.emit("--out", _json({"mean_x": float("nan")}).encode())
        assert outputs.written == []  # raised before the file was opened
        assert not path.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    @pytest.mark.parametrize(
        "argv",
        [
            ["exchange", "--agents", "1000000000", "--initial-money", "1", "--events", "10"],
            ["firms", "--firms", "10", "--workers", "1000000000", "--steps", "1"],
        ],
        ids=["exchange", "firms"],
    )
    def test_out_of_memory_exits_one_with_message(self, tmp_path, argv):
        import resource

        def cap_address_space():  # sizes this large must never run uncapped
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        src = str(Path(phase.__file__).resolve().parent.parent)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "finphase.cli", *argv, "--outdir", str(out)],
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_address_space,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(r"error: \S.*\n", proc.stderr), proc.stderr
        assert not out.exists()

    def test_empty_memory_error_names_the_cause(self, tmp_path, monkeypatch, capsys):
        def fail(config):
            raise MemoryError

        monkeypatch.setattr(exchange, "run_exchange", fail)
        assert run_cli("exchange", "--events", "10", "--outdir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_one(self, capsys):
        assert run_cli("sectors", "check", "/no/such/file.csv") == 1
        assert "error:" in capsys.readouterr().err


class TestMacroCommand:
    def test_headline_equilibrium_printed(self, capsys):
        code = run_cli(
            "macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.10",
            "--lambda", "0.60",
        )
        assert code == 0
        assert "R* = 0.25" in capsys.readouterr().out

    def test_percent_display(self, capsys):
        run_cli(
            "macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.10",
            "--lambda", "0.60", "--percent",
        )
        assert "R* = 25%" in capsys.readouterr().out

    def test_cagr_of_bundled_gold_stock(self, capsys):
        from importlib import resources

        ref = resources.files("finphase.data").joinpath("gold_stock.csv")
        with resources.as_file(ref) as path:
            code = run_cli("macro", "--cagr", str(path))
        assert code == 0
        out = capsys.readouterr().out
        rate = float(out.split("=")[1])
        assert 0.012 < rate < 0.015  # 617.9 -> 4569.9 Moz over 150 years

    def test_table_decomposition(self, tmp_path, capsys):
        table = tmp_path / "params.csv"
        table.write_text(
            "year,g_L,g_P,d,lambda\n"
            "1964,0.02,0.03,0.10,0.60\n"
            "2000,0.00,0.01,0.10,0.40\n"
        )
        out = tmp_path / "decomp.csv"
        assert run_cli("macro", "--table", str(table), "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "year,R_star,g_P_required_vs_reference"
        year, r_star, g_req = lines[1].split(",")
        assert float(r_star) == pytest.approx(0.25)
        assert float(g_req) == pytest.approx(0.03)
        # second row: required g_P to hold the 1964 R* with year-2000 inputs
        _, r2, g2 = lines[2].split(",")
        assert float(r2) == pytest.approx(0.275)
        assert float(g2) == pytest.approx(0.40 * 0.25 - 0.10)

    def test_trajectory_output(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli(
            "macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.10",
            "--lambda", "0.60", "--r0", "0.05", "--dt", "0.01",
            "--steps", "2000", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,R"
        assert len(lines) == 2002

    @pytest.mark.parametrize("row", ["abc,7", "2,4.0,1"])
    def test_cagr_bad_row_names_the_line(self, tmp_path, capsys, row):
        levels = tmp_path / "levels.csv"
        levels.write_text(f"t,level\n0,1.0\n{row}\n3,4.0\n")
        assert run_cli("macro", "--cagr", str(levels)) == 1
        assert capsys.readouterr().err.startswith("error: line 3:")

    def test_table_row_shape_names_the_line(self, tmp_path, capsys):
        table = tmp_path / "params.csv"
        table.write_text("year,g_L,g_P,d,lambda\n1964,0.02,0.03,0.10,0.60\n2000,0.0\n")
        out = tmp_path / "decomp.csv"
        assert run_cli("macro", "--table", str(table), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: line 3:")
        assert not out.exists()

    def test_table_bad_later_row_writes_no_output(self, tmp_path, capsys):
        table = tmp_path / "params.csv"
        table.write_text("year,g_L,g_P,d,lambda\n1964,0.02,0.03,0.10,0.60\n2000,0,0,0.1,0\n")
        out = tmp_path / "decomp.csv"
        assert run_cli("macro", "--table", str(table), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: lambda must be > 0, got 0.0\n"
        assert not out.exists()

    def test_parameter_error_message(self, capsys):
        code = run_cli(
            "macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.10", "--lambda", "0",
        )
        assert code == 1
        assert capsys.readouterr().err == "error: lambda must be > 0, got 0.0\n"


FIRMS = ["firms", "--firms", "5", "--workers", "20", "--steps", "2", "--outdir", "{out}"]
ANALYZE = ["analyze", "{phase}", "--out", "{out}/r.json", "--hist-out", "{out}/h.csv"]
MACRO = ["macro", "--gP", "0.03", "--d", "0.1", "--r0", "0.1", "--out", "{out}/r.csv"]
# A bad --grid field, and a grid too large to allocate (checked, never built).
BAD_GRIDS = [
    (["0", "1", "0", "1", "1.5", "2"], "--grid NX must be an integer, got '1.5'"),
    (["0", "one", "0", "1", "2", "2"], "--grid XMAX must be a number, got 'one'"),
    (["0", "1", "0", "1", "100000", "100000"], "grid of 100000 x 100000 bins exceeds the limit"),
    # finite ends whose width is inf; plain decimals, as argparse reads -1e308 as an option
    ([f"{-1e308:f}", f"{1e308:f}", "-1", "1", "10", "10"],
     "grid extent must be finite and non-empty"),
]


@pytest.mark.parametrize(
    "argv,message",
    [
        (FIRMS + ["--margin", "nan"], "investment_margin must be finite, got nan\n\\Z"),
        (FIRMS + ["--interest-rate", "nan"], "interest_rate must be finite"),
        (FIRMS + ["--grid", "-10", "inf", "-1", "1", "10", "10"], "grid extent"),
        (MACRO + ["--gL", "nan", "--lambda", "0.6"], "gL must be finite"),
        (MACRO + ["--gL", "0.02", "--lambda", "inf"], "lambda must be finite"),
        (["macro", "--cagr", "{levels}"], "line 3: .*level must be a finite number"),
        (["macro", "--table", "{table}", "--out", "{out}/t.csv"],
         "line 2: .*d must be a finite number"),
        (["reserves", "--b0", "1", "--g", "1", "--tax", "1", "--sales", "1",
          "--dt", "nan", "--outdir", "{out}"], "dt must be finite"),
        (["interest", "--capital", "5", "--reserves", "3", "--loan", "1",
          "--sigma", "inf", "--out", "{out}/i.json"], "sigma must be finite"),
        (["firms", "--firms", "1", "--workers", "2", "--steps", "1", "--outdir", "{out}"],
         "need >= 2 points"),
        (["exchange", "--agents", "2", "--initial-money", str(2**62), "--events", "10",
          "--outdir", "{out}"], "total money n_agents \\* initial_money must be <= "),
        # finite inputs whose results overflow
        (["macro", "--gL", "1", "--gP", "1", "--d", "1", "--lambda", "1e-320"],
         "R\\* must be finite, got inf"),
        (["macro", "--table", "{overflow_table}", "--out", "{out}/t.csv"],
         "R\\* must be finite, got inf"),
        (["macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.1", "--lambda", "0.6", "--r0",
          "1e200", "--dt", "1", "--steps", "2", "--out", "{out}/r.csv"],
         "R leaves the finite range at step 1, got -inf"),
        (["reserves", "--b0", str(2**63 - 1), "--g", str(2**63 - 1), "--tax", "0", "--sales", "0",
          "--dt", "1e300", "--steps", "2", "--out", "{out}/r.csv"],
         "B\\(t\\) leaves the finite range by t = 2e\\+300"),
        (["macro", "--cagr", "{steep}"], "cagr must be finite, got inf"),
        # money too wide for int64, which a float conversion would overflow
        (["interest", "--capital", str(10**400), "--reserves", "3", "--loan", "1",
          "--sigma", "1", "--out", "{out}/i.json"],
         "banker_capital must be in the money range \\[-9223372036854775808, "
         "9223372036854775807\\], got 1(0){400}\n\\Z"),
        (["interest", "--capital", "5", "--reserves", str(10**400), "--loan", "1",
          "--sigma", "1", "--out", "{out}/i.json"],
         "reserves must be in the money range \\[.*\\], got 1(0){400}\n\\Z"),
        (["interest", "--capital", "-5", "--reserves", "3", "--loan", "1", "--sigma", "1"],
         "banker_capital must be >= 0\n\\Z"),
        (["sectors", "what-if", "--sector", "Households", "--value", str(10**23)],
         f"new_value must be in the money range \\[.*\\], got {10**23}\n\\Z"),
        (["sectors", "check", "{wide_sectors}", "--out", "{out}/s.json"],
         f"line 2: balance must be in the money range \\[.*\\], got {10**23 - 1}\n\\Z"),
        (["macro", "--gL", "0.02", "--gP", "0.03", "--d", "0.1", "--lambda", "0.6",
          "--r0", "0.1", "--steps", "-1"], "steps must be >= 0\n\\Z"),
        (["reserves", "--b0", "1", "--g", "1", "--tax", "1", "--sales", "1", "--steps", "-1",
          "--outdir", "{out}"], "steps must be >= 0\n\\Z"),
        # balances in the money range whose sum is not
        (["sectors", "check", "{sum_sectors}", "--out", "{out}/s.json"],
         f"residual must be in the money range \\[.*\\], got {2 * (2**63 - 1)}\n\\Z"),
        (["sectors", "what-if", "{sum_sectors}", "--sector", "B", "--value", str(2**63 - 1)],
         f"required_offset must be in the money range \\[.*\\], got {-2 * (2**63 - 1)}\n\\Z"),
        (FIRMS + ["--base-money", str(2**63)], "base_money must be in \\[0, 2\\*\\*63 - 1\\]\n\\Z"),
        # one file for both outputs: the report would overwrite the histogram
        (ANALYZE[:-1] + ["{out}/../out/r.json"], "--out and --hist-out name the same file\n\\Z"),
        # an output that names an input would overwrite it
        (["analyze", "{phase}", "--out", "{out}/../phase_t1.csv"],
         "--out and an input name the same file\n\\Z"),
        (["analyze", "{phase}", "--hist-out", "{phase}"],
         "--hist-out and an input name the same file\n\\Z"),
        # seeds outside splitmix64's [0, 2**64 - 1], which would wrap onto another seed
        (FIRMS + ["--seed", str(2**64)], "seed must be in \\[0, 2\\*\\*64 - 1\\]\n\\Z"),
        (FIRMS + ["--seed", "-1"], "seed must be in \\[0, 2\\*\\*64 - 1\\]\n\\Z"),
        (["exchange", "--seed", str(2**64), "--outdir", "{out}"],
         "seed must be in \\[0, 2\\*\\*64 - 1\\]\n\\Z"),
        (["exchange", "--seed", "-1", "--outdir", "{out}"],
         "seed must be in \\[0, 2\\*\\*64 - 1\\]\n\\Z"),
        (["exchange", "--rule", "fixed", "--amount", str(2**63), "--outdir", "{out}"],
         "fixed_amount must be in \\[0, 2\\*\\*63 - 1\\]\n\\Z"),
        # outputs naming an input, refused before it is read (it is no sectors
        # file or parameter table): same path, and a hard link to it
        (["sectors", "check", "{phase}", "--out", "{phase}"],
         "--out and an input name the same file\n\\Z"),
        (["macro", "--table", "{phase}", "--out", "{phase}"],
         "--out and an input name the same file\n\\Z"),
        (["analyze", "{phase}", "{steep}", "--out", "{link}"],
         "--out and an input name the same file\n\\Z"),
        (["firms", "--config", "{twice}", "--outdir", "{out}"],
         ".*twice\\.cfg:3: key 'n_firms' given twice\n\\Z"),
        # phase 3's float product debt * rate overflows to inf, without a numpy warning
        (["firms", "--firms", "3", "--workers", "5", "--steps", "2", "--interest-rate", "1e308",
          "--outdir", "{out}"], "interest due out of 64-bit range\n\\Z"),
    ]
    + [(cmd + ["--grid", *grid], message) for cmd in (FIRMS, ANALYZE) for grid, message in BAD_GRIDS],
    ids=["margin", "interest_rate", "grid", "gL", "lambda", "cagr", "table", "dt", "sigma",
         "one_firm", "exchange_total_money", "r_star_overflow", "table_r_star_overflow",
         "trajectory_overflow", "reserves_overflow", "cagr_overflow", "capital_too_wide",
         "reserves_too_wide", "capital_negative", "sectors_value_too_wide",
         "sectors_balance_too_wide", "trajectory_steps_negative", "reserves_steps_negative",
         "sectors_residual_too_wide", "sectors_offset_too_wide", "base_money_too_wide",
         "analyze_same_out", "analyze_out_is_input", "analyze_hist_out_is_input",
         "firms_seed_too_wide", "firms_seed_negative", "exchange_seed_too_wide",
         "exchange_seed_negative", "fixed_amount_too_wide", "sectors_out_is_input",
         "macro_table_out_is_input", "analyze_out_is_linked_input", "config_key_twice",
         "interest_overflow"]
    + [f"{cmd}_grid_{case}" for cmd in ("firms", "analyze")
       for case in ("nx", "extent", "bins", "width")],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejected_input_exits_one_without_output(tmp_path, capsys, argv, message):
    levels = tmp_path / "levels.csv"
    levels.write_text("t,level\n0,1.0\n1,nan\n")
    table = tmp_path / "params.csv"
    table.write_text("year,g_L,g_P,d,lambda\n1964,0.02,0.03,inf,0.60\n")
    overflow_table = tmp_path / "overflow.csv"
    overflow_table.write_text("year,g_L,g_P,d,lambda\n2000,1,1,1,1e-320\n")
    steep = tmp_path / "steep.csv"
    steep.write_text("t,level\n0,1\n1e-10,1e10\n")
    wide_sectors = tmp_path / "wide.csv"
    wide_sectors.write_text(f"sector,balance\nA,{10**23 - 1}\nB,{-(10**23 - 1)}\n")
    sum_sectors = tmp_path / "sum.csv"
    sum_sectors.write_text(f"sector,balance\nA,{2**63 - 1}\nB,{2**63 - 1}\n")
    phase_csv = tmp_path / "phase_t1.csv"
    phase_csv.write_text("firm_id,x,y\n0,0.5,0.0\n1,-0.5,0.1\n")
    link = tmp_path / "link.json"
    os.link(phase_csv, link)
    twice = tmp_path / "twice.cfg"
    twice.write_text("n_firms = 2\nn_workers = 10\nn_firms = 3\n")
    out = tmp_path / "out"
    out.mkdir()
    files = {
        "levels": levels, "table": table, "overflow_table": overflow_table, "steep": steep,
        "wide_sectors": wide_sectors, "sum_sectors": sum_sectors, "link": link, "twice": twice,
    }
    argv = [a.format(out=out, phase=phase_csv, **files) for a in argv]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert re.match(f"error: {message}", captured.err), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []
    assert phase_csv.read_text() == "firm_id,x,y\n0,0.5,0.0\n1,-0.5,0.1\n"


@pytest.mark.parametrize(
    "argv,body",
    [
        (["analyze", "{path}", "--out", "{out}/r.json"], b"firm_id,x,y\n0\xff,0.5,0.1\n1,-2,0.25\n"),
        (["macro", "--table", "{path}", "--out", "{out}/t.csv"],
         b"year,g_L,g_P,d,lambda\n# \xff\n1964,0.02,0.03,0.1,0.6\n"),
        (["macro", "--cagr", "{path}"], b"t,level\n# \xff\n0,1\n1,2\n"),
        (["sectors", "check", "{path}", "--out", "{out}/s.json"], b"sector,balance\n# \xff\nA,1\n"),
        (["firms", "--config", "{path}", "--outdir", "{out}"], b"# \xff\nn_firms = 5\n"),
    ],
    ids=["analyze", "macro_table", "macro_cagr", "sectors", "firms_config"],
)
def test_undecodable_input_is_named(tmp_path, capsys, argv, body):
    # a byte that is not UTF-8, in a data row or in a comment, names its file
    path = tmp_path / "input.txt"
    path.write_bytes(body)
    with pytest.raises(UnicodeDecodeError) as info:
        path.read_text()  # decoded as the command decodes it
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(*[a.format(path=path, out=out) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {info.value}\n")
    assert list(out.iterdir()) == []


class TestExchangeCommand:
    def test_outputs_and_fit(self, tmp_path):
        code = run_cli(
            "exchange", "--agents", "200", "--initial-money", "50",
            "--events", "20000", "--outdir", str(tmp_path),
        )
        assert code == 0
        wealth = (tmp_path / "wealth.csv").read_text().splitlines()
        assert wealth[0] == "agent_id,money"
        assert len(wealth) == 201
        total = sum(int(line.split(",")[1]) for line in wealth[1:])
        assert total == 200 * 50
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["total_money"] == 10000
        assert set(fit) == {"temperature", "ks_statistic", "total_money"}

    def test_manifest_lists_the_outputs_in_declared_order(self, tmp_path):
        argv = ["--agents", "20", "--events", "100", "--outdir", str(tmp_path), "--manifest"]
        assert run_cli("exchange", *argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["wealth.csv", "fit.json"]

    def test_fraction_rule_is_an_unknown_choice(self, tmp_path, capsys):
        code = run_cli("exchange", "--rule", "fraction", "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "invalid choice: 'fraction'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_fit_removes_the_wealth_file(self, tmp_path, capsys):
        out = tmp_path / "ex"
        (out / "fit.json").mkdir(parents=True)
        argv = ["--agents", "10", "--initial-money", "5", "--events", "10", "--outdir", str(out)]
        assert run_cli("exchange", *argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \[Errno 21\] Is a directory: '.*fit\.json'\n", err), err
        assert os.listdir(out) == ["fit.json"]
        assert os.listdir(out / "fit.json") == []


class TestFirmsCommand:
    def test_outputs(self, tmp_path):
        code = run_cli(
            "firms", "--firms", "20", "--workers", "100", "--steps", "3",
            "--outdir", str(tmp_path), "--manifest",
        )
        assert code == 0
        series = (tmp_path / "series.csv").read_text().splitlines()
        assert series[0] == (
            "t,entropy,rentier_fraction,std_x,bankruptcies,class_A,class_B,class_C"
        )
        assert len(series) == 5  # header + t=0..3
        for t in range(4):
            assert (tmp_path / f"phase_t{t}.csv").exists()
        run_info = json.loads((tmp_path / "run.json").read_text())
        assert run_info["final_conservation_residual"] == 0
        assert run_info["config"]["n_firms"] == 20
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["conservation_residuals"] == [0, 0, 0, 0]
        assert "series.csv" in manifest["outputs"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert 1.0 < manifest["peak_rss_mb"] < 1e5
        seconds = manifest["phase_seconds"]
        assert list(seconds) == [
            "wages", "consumption", "interest", "invest", "depreciation", "bankruptcy", "record",
        ]
        assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
        started = datetime.fromisoformat(manifest["started"])
        finished = datetime.fromisoformat(manifest["finished"])
        assert sum(seconds.values()) <= (finished - started).total_seconds()

    def test_phase_timings_leave_the_outputs_unchanged(self, tmp_path):
        argv = ["firms", "--firms", "20", "--workers", "100", "--steps", "3"]
        assert run_cli(*argv, "--outdir", str(tmp_path / "a")) == 0
        assert run_cli(*argv, "--outdir", str(tmp_path / "b"), "--manifest") == 0
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        assert {p.name for p in (tmp_path / "b").iterdir()} - {
            p.name for p in (tmp_path / "a").iterdir()
        } == {"manifest.json"}

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "economy.cfg"
        cfg.write_text(
            "# demo config\n"
            "n_firms = 10\n"
            "n_workers = 50\n"
            "n_steps = 2\n"
            "seed = 7\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "firms", "--config", str(cfg), "--steps", "4", "--outdir", str(out)
        )
        assert code == 0
        run_info = json.loads((out / "run.json").read_text())
        assert run_info["config"]["n_firms"] == 10
        assert run_info["config"]["n_steps"] == 4  # CLI wins
        assert run_info["seed"] == 7

    def test_unknown_config_key_is_hard_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_firms = 10\nturbo = yes\n")
        with pytest.raises(InvalidConfig):
            parse_config_file(cfg, EconomyConfig)
        assert run_cli("firms", "--config", str(cfg), "--outdir", str(tmp_path)) == 1

    def test_markup_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("n_firms = 10\nmarkup = 1.0\n")
        out = tmp_path / "out"
        assert run_cli("firms", "--config", str(cfg), "--outdir", str(out)) == 1
        assert "unknown key 'markup'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,manifest",
        [("run.json", False), ("phase_t1.csv", False), ("manifest.json", True), ("link", False)],
    )
    def test_config_is_never_an_output(self, tmp_path, capsys, started, name, manifest):
        # a config that an output names, directly or by a hard link, is
        # refused before any step runs, and stays as it was
        text = "n_firms = 5\nn_workers = 20\nn_steps = 2\n"
        out = tmp_path / "out"
        out.mkdir()
        if name == "link":
            cfg = tmp_path / "economy.cfg"
            cfg.write_text(text)
            os.link(cfg, out / "series.csv")
            name = "series.csv"
        else:
            cfg = out / name
            cfg.write_text(text)
        argv = ["firms", "--config", str(cfg), "--outdir", str(out)]
        assert run_cli(*argv, *["--manifest"] * manifest) == 1
        assert capsys.readouterr() == ("", f"error: {out / name} and an input name the same file\n")
        assert cfg.read_text() == text
        assert os.listdir(out) == [name]
        assert started == []

    def test_config_not_among_the_outputs_is_kept(self, tmp_path):
        # without --manifest no manifest.json is written: a config of that name is read only
        cfg = tmp_path / "manifest.json"
        cfg.write_text("n_firms = 5\nn_workers = 20\nn_steps = 2\n")
        assert run_cli("firms", "--config", str(cfg), "--outdir", str(tmp_path)) == 0
        assert cfg.read_text() == "n_firms = 5\nn_workers = 20\nn_steps = 2\n"
        assert json.loads((tmp_path / "run.json").read_text())["config"]["n_steps"] == 2

    def test_non_finite_config_value_writes_no_output(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("n_firms = 5\nn_workers = 20\ninterest_rate = nan\n")
        out = tmp_path / "out"
        assert run_cli("firms", "--config", str(cfg), "--outdir", str(out)) == 1
        assert capsys.readouterr().err == "error: interest_rate must be finite, got nan\n"
        assert not out.exists()


SAME_FILE_FIRMS = ["firms", "--firms", "20", "--workers", "100", "--steps", "3"]


@pytest.mark.parametrize(
    "argv,link,name,target,said",
    [
        # the later output of the two is named first, as in every same-file error
        (SAME_FILE_FIRMS, "hard", "phase_t2.csv", "phase_t1.csv", ("phase_t2.csv", "phase_t1.csv")),
        (SAME_FILE_FIRMS, "symlink", "phase_t2.csv", "phase_t1.csv", ("phase_t2.csv", "phase_t1.csv")),
        (SAME_FILE_FIRMS, "dangling", "phase_t2.csv", "phase_t1.csv", ("phase_t2.csv", "phase_t1.csv")),
        (["exchange", "--agents", "20", "--events", "100"], "hard", "wealth.csv", "fit.json",
         ("fit.json", "wealth.csv")),
    ],
    ids=["firms_hard_link", "firms_symlink", "firms_dangling_symlink", "exchange_hard_link"],
)
def test_two_outputs_that_are_one_file_are_refused(
    tmp_path, capsys, started, argv, link, name, target, said
):
    # ``name`` is the same file as ``target``, another output of the run,
    # which writing both would overwrite: refused before any work, with
    # every file in --outdir as it was
    out = tmp_path / "out"
    out.mkdir()
    if link != "dangling":
        (out / target).write_text("an older run's\n")
    if link == "hard":
        os.link(out / target, out / name)
    else:
        (out / name).symlink_to(target)

    def state():
        return {p.name: (p.is_symlink(), p.exists() and p.read_bytes()) for p in out.iterdir()}

    before = state()
    assert run_cli(*argv, "--outdir", str(out), "--manifest") == 1
    later, earlier = (out / n for n in said)
    assert capsys.readouterr() == ("", f"error: {later} and {earlier} name the same file\n")
    assert state() == before
    assert started == []


@pytest.mark.parametrize(
    "argv,seed,extra",
    [
        (["firms", "--firms", "5", "--workers", "20", "--steps", "2"], 0, ["phase_seconds"]),
        (["exchange", "--agents", "20", "--events", "100"], 0, []),
        (["exchange", "--agents", "20", "--events", "100", "--seed", "3"], 3, []),
    ],
)
def test_manifest_fields_in_order(tmp_path, argv, seed, extra):
    assert run_cli(*argv, "--outdir", str(tmp_path), "--manifest") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest) == [
        "tool", "version", "subcommand", "config", "seed", "started", "finished",
        "conservation_residuals", "outputs", *extra, "python", "numpy", "peak_rss_mb",
    ]
    assert manifest["subcommand"] == argv[0]
    assert manifest["seed"] == manifest["config"]["seed"] == seed


@pytest.mark.parametrize(
    "command, config_cls", [("firms", EconomyConfig), ("exchange", ExchangeConfig)]
)
def test_every_config_field_has_a_flag(command, config_cls):
    # the config is built from the flags by field name: a field without one
    # would be an AttributeError at run time
    args = build_parser().parse_args([command])
    assert [f.name for f in dataclasses.fields(config_cls) if not hasattr(args, f.name)] == []


@pytest.mark.parametrize(
    "module, work, argv",
    [
        (exchange, "run_exchange", ["exchange", "--agents", "20", "--events", "100"]),
        (firms, "records", ["firms", "--firms", "5", "--workers", "20", "--steps", "2"]),
    ],
    ids=["exchange", "firms"],
)
def test_manifest_started_is_stamped_before_the_work(tmp_path, monkeypatch, module, work, argv):
    entered = []
    real = getattr(module, work)

    def timed(*args):
        entered.append(datetime.now(timezone.utc))
        return real(*args)

    monkeypatch.setattr(module, work, timed)
    assert run_cli(*argv, "--outdir", str(tmp_path), "--manifest") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    [entry] = entered
    assert datetime.fromisoformat(manifest["started"]) <= entry


def phase_csv_oracle(points) -> bytes:
    """A phase CSV as ``finphase firms`` formatted it in-process before the
    writer process took over: the reference for the writer's texts."""
    rows = enumerate(points.tolist())
    return ("firm_id,x,y\n" + "".join([f"{i},{x!r},{y!r}\n" for i, (x, y) in rows])).encode()


EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 1e-05, 1e16, float(2**53 + 1),
    1.7976931348623157e308, -1.7976931348623157e308,
]
phase_points = st.one_of(st.sampled_from([0, 1, 1000]), st.integers(2, 40)).flatmap(
    lambda n: arrays(np.float64, (n, 2), elements=st.floats() | st.sampled_from(EDGE_FLOATS))
)


@settings(max_examples=40, deadline=None)
@given(st.lists(phase_points, max_size=4))
@example([])
# files of several chunks: their chunks from the second on have no header
@example([np.arange(5000.0).reshape(2500, 2) / 7, np.arange(2002.0).reshape(1001, 2) - 500])
@example([np.array(EDGE_FLOATS).reshape(4, 2), np.empty((0, 2)), np.array([[1e-05, -0.0]])])
@example([np.arange(2000.0).reshape(1000, 2) / 7 - 100, np.array(EDGE_FLOATS[::-1]).reshape(4, 2)])
def test_writer_texts_equal_the_oracle(files):
    with _phasecsv.PhaseWriter() as writer:  # a real writer process
        for points in files:
            writer.send(points)
        texts = dict(writer.texts())  # by file index, in the order they were done
    assert [texts[k] for k in range(len(texts))] == [phase_csv_oracle(points) for points in files]


@pytest.fixture
def started(monkeypatch):
    """Every process started through ``subprocess.Popen`` during the test."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs


def assert_reaped(proc):
    assert proc.returncode is not None
    with pytest.raises(ChildProcessError):  # not a child any more: waited for
        os.waitpid(proc.pid, os.WNOHANG)


SMALL_FIRMS = ["firms", "--firms", "5", "--workers", "20", "--steps", "4"]


class TestPhaseWriter:
    @pytest.mark.parametrize(
        "script,size,message,outputs",
        [
            ("import sys\nsys.exit(3)\n", SMALL_FIRMS,
             r"phase writer (stopped reading|output ended early) \(exit status 3\)", []),
            # 101 steps of 16 kB: more than a pipe holds, so a send meets the exited writer
            ("import sys\nsys.exit(3)\n",
             ["firms", "--firms", "1000", "--workers", "2000", "--steps", "100"],
             r"phase writer stopped reading \(exit status 3\)", []),
            ("import sys\nsys.stdin.buffer.read()\n"
             "sys.stdout.buffer.write((100).to_bytes(8, sys.byteorder) + b'abc')\n", SMALL_FIRMS,
             r"phase writer output ended early \(exit status 0\)", []),
            # every text intact, then a failure: the phase files written are deleted
            ("import runpy, sys\nrunpy.run_path({real!r}, run_name='__main__')\nsys.exit(5)\n",
             SMALL_FIRMS, r"phase writer failed \(exit status 5\)", []),
        ],
        ids=["exits_3", "exits_3_mid_run", "short_text", "exits_5_after_its_output"],
    )
    def test_failed_writer_exits_one(
        self, tmp_path, capsys, monkeypatch, started, script, size, message, outputs
    ):
        path = tmp_path / "writer.py"
        path.write_text(script.format(real=_phasecsv.SCRIPT))
        monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        out = tmp_path / "out"
        assert run_cli(*size, "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.glob("*")) == sorted(outputs)
        [proc] = started
        assert_reaped(proc)

    def test_unwritable_phase_file_removes_the_ones_written(self, tmp_path, capsys, started):
        # phase_t3.csv is a link to a directory: the run writes t0-t2, fails
        # on t3, and deletes its own files but nothing that was there before
        out = tmp_path / "out"
        (out / "kept").mkdir(parents=True)
        (out / "kept" / "notes.txt").write_text("kept\n")
        (out / "phase_t3.csv").symlink_to("kept", target_is_directory=True)
        (out / "phase_t5.csv").write_text("an older run's\n")
        assert run_cli(*SMALL_FIRMS, "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \[Errno 21\] Is a directory: '.*phase_t3\.csv'\n", err), err
        assert sorted(os.listdir(out)) == ["kept", "phase_t3.csv", "phase_t5.csv"]
        assert (out / "phase_t3.csv").is_symlink()
        assert os.listdir(out / "kept") == ["notes.txt"]
        assert (out / "phase_t5.csv").read_text() == "an older run's\n"
        [proc] = started
        assert_reaped(proc)

    @pytest.mark.parametrize("name", ["series.csv", "run.json", "manifest.json"])
    def test_unwritable_later_file_removes_every_file_written(self, tmp_path, capsys, name):
        # every phase file is written before the directory in the way of a
        # later output fails the run; none of them is left behind
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run_cli(*SMALL_FIRMS, "--outdir", str(out), "--manifest") == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: \[Errno 21\] Is a directory: '.*{re.escape(name)}'\n", err), err
        assert os.listdir(out) == [name]
        assert os.listdir(out / name) == []

    @pytest.mark.parametrize("error", [MoneyOverflow("deposit overflow"), KeyboardInterrupt()])
    def test_run_failing_mid_simulation_writes_nothing_and_reaps_the_writer(
        self, tmp_path, capsys, monkeypatch, started, error
    ):
        step = firms.step

        def failing_step(state, timings=None):
            if state.t == 2:
                raise error
            return step(state, timings)

        monkeypatch.setattr(firms, "step", failing_step)
        out = tmp_path / "out"
        argv = [*SMALL_FIRMS, "--outdir", str(out)]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == "error: deposit overflow\n"
        assert not out.exists()
        [proc] = started
        assert_reaped(proc)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--firms", "x"],
            ["--margin", "nan"],
            ["--firms", "0"],
            ["--grid", "0", "1", "0", "1", "1.5", "2"],
            ["--config", "/no/such/economy.cfg"],
            ["--base-money", str(2**63)],
        ],
        ids=["usage", "non_finite", "config_value", "grid", "config_file", "base_money"],
    )
    def test_usage_errors_start_no_writer(self, tmp_path, started, argv):
        assert run_cli("firms", *argv, "--outdir", str(tmp_path / "out")) in (1, 2)
        assert started == []

    @pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="no memfd here")
    def test_writer_does_not_import_tempfile(self, tmp_path, monkeypatch, started):
        # the writer spools into a memfd; tempfile would add ~19 ms to its
        # start, and array, which only parse_file needs, ~5 ms
        path = tmp_path / "writer.py"
        path.write_text(
            f"import runpy, sys\nrunpy.run_path({_phasecsv.SCRIPT!r}, run_name='__main__')\n"
            "sys.exit(7 if {'tempfile', 'array'} & sys.modules.keys() else 0)\n"
        )
        monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        points = np.arange(6.0).reshape(3, 2)
        with _phasecsv.PhaseWriter() as writer:
            writer.send(points)
            assert list(writer.texts()) == [(0, phase_csv_oracle(points))]  # exit status 0
        [proc] = started
        assert_reaped(proc)

    @pytest.mark.parametrize("memfd", ["as_is", "refused", "missing"])
    def test_every_spool_gives_the_same_texts(self, monkeypatch, memfd):
        if memfd == "refused":
            def refused(name):
                raise OSError(38, "Function not implemented")

            monkeypatch.setattr(os, "memfd_create", refused, raising=False)
        elif memfd == "missing":
            monkeypatch.delattr(os, "memfd_create", raising=False)
        files = [np.arange(6.0).reshape(3, 2) / 7, np.empty((0, 2))]
        read, write = os.pipe()  # the writer's input is a pipe
        os.write(write, b"".join(p.nbytes.to_bytes(8, sys.byteorder) + p.tobytes() for p in files))
        os.close(write)
        stdout = io.BytesIO()
        with open(read, "rb") as stdin:
            _phasecsv.main(stdin, stdout)
        texts = [phase_csv_oracle(p) for p in files]
        assert stdout.getvalue() == b"".join(len(t).to_bytes(8, sys.byteorder) + t for t in texts)

    @pytest.mark.parametrize("own,child", [(4096, 2048), (2048, 4096)])
    def test_manifest_peak_rss_covers_the_writer(self, tmp_path, monkeypatch, own, child):
        import resource

        maxrss = {resource.RUSAGE_SELF: own, resource.RUSAGE_CHILDREN: child}
        monkeypatch.setattr(
            resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=maxrss[who])
        )
        assert run_cli(*SMALL_FIRMS, "--outdir", str(tmp_path), "--manifest") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] == 4.0


@pytest.mark.parametrize("source", ["pipe"])  # the helpers' input is always one
@pytest.mark.parametrize(
    "tail,message",
    [
        (b"\x10\x00\x00", "input ended inside a frame's length"),
        ((16).to_bytes(8, sys.byteorder) + b"abc", "input ended inside a frame of 16 bytes"),
    ],
    ids=["in_length", "in_body"],
)
@pytest.mark.parametrize("helper", ["format", "parse"])
def test_input_ending_inside_a_frame_is_an_error(tmp_path, helper, tail, message, source):
    # one whole frame, which the helper does, and then the end of the input
    # inside the next one: the error, and no output
    if helper == "format":
        whole, encoding = np.arange(4.0).tobytes(), None
    else:
        path = tmp_path / "phase_t0.csv"
        path.write_text(GOOD_PHASE_CSV)
        whole, encoding = os.fsencode(path), "utf-8"
    read, write = os.pipe()
    os.write(write, len(whole).to_bytes(8, sys.byteorder) + whole + tail)
    os.close(write)
    stdin = open(read, "rb")
    stdout = io.BytesIO()
    with stdin, pytest.raises(ValueError) as info:
        _phasecsv.main(stdin, stdout, encoding)
    assert str(info.value) == message
    assert stdout.getvalue() == b""


def firms_oracle(**fields) -> dict:
    """The phase CSVs of a ``firms`` run, by file name, as
    ``phase_csv_oracle`` formats them from the records in this process."""
    config = EconomyConfig(**fields)
    return {f"phase_t{rec.t}.csv": phase_csv_oracle(rec.points) for rec in firms.records(config)}


def written_phase_files(out) -> dict:
    return {p.name: p.read_bytes() for p in out.glob("phase_t*.csv")}


MULTI_CHUNK = dict(n_firms=2500, n_workers=5000)  # three chunks a file
MULTI_CHUNK_ARGV = ["firms", "--firms", "2500", "--workers", "5000"]


@pytest.fixture
def front_takes(monkeypatch):
    """``front_takes(m)`` makes the command wait for each of the writer's
    first m chunks, then take none: it formats every later chunk itself,
    so the two meet at chunk m. ``m`` must cover the files whose points
    the command does not keep."""

    def limit(m):
        ready, take = _phasecsv.PhaseWriter.ready, _phasecsv.PhaseWriter.take
        taken = []

        def waiting(self):
            if len(taken) == m:
                return False
            while not ready(self):
                time.sleep(0.001)
            return True

        def counted(self):
            taken.append(True)
            return take(self)

        monkeypatch.setattr(_phasecsv.PhaseWriter, "ready", waiting)
        monkeypatch.setattr(_phasecsv.PhaseWriter, "take", counted)
        return taken

    return limit


class TestTwoEnds:
    """The writer formats the chunks from the front, the command from the
    back; wherever they meet, the files are the oracle's."""

    @pytest.mark.parametrize("steps", [0, 1, 6])
    def test_real_writer_gives_the_oracle_texts(self, tmp_path, started, steps):
        assert run_cli(*MULTI_CHUNK_ARGV, "--steps", str(steps), "--outdir", str(tmp_path)) == 0
        assert written_phase_files(tmp_path) == firms_oracle(**MULTI_CHUNK, n_steps=steps)
        [proc] = started
        assert proc.returncode == 0
        assert_reaped(proc)

    def test_writer_sending_one_chunk_leaves_the_rest_to_the_command(
        self, tmp_path, monkeypatch, started
    ):
        # a stand-in writer: the first chunk's text, then nothing until the
        # command closes its end, which a poll of the output reports
        path = tmp_path / "writer.py"
        path.write_text(
            "import runpy, select, sys\n"
            f"real = runpy.run_path({_phasecsv.SCRIPT!r})\n"
            "data = sys.stdin.buffer.read()\n"
            "size = int.from_bytes(data[:8], sys.byteorder)\n"
            "text = real['format_rows'](data[8 : 8 + size], 0)\n"
            "sys.stdout.buffer.write(len(text).to_bytes(8, sys.byteorder) + text)\n"
            "sys.stdout.buffer.flush()\n"
            "poll = select.poll()\n"
            "poll.register(sys.stdout, 0)\n"
            "poll.poll()\n"
        )
        monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        # three files: the command keeps the points of the last two, so it
        # formats all three chunks of the second and the empty third
        rng = np.random.default_rng(3)
        files = [rng.normal(size=(1000, 2)), rng.normal(size=(2500, 2)), np.empty((0, 2))]
        with _phasecsv.PhaseWriter() as writer:
            for points in files:
                writer.send(points)
            texts = list(writer.texts())
        assert [k for k, _ in texts] == [0, 2, 1]  # in the order they were done
        assert dict(texts) == {k: phase_csv_oracle(points) for k, points in enumerate(files)}
        [proc] = started
        assert proc.returncode == 0
        assert_reaped(proc)

    def test_meet_inside_a_file_stops_the_writer_quietly(
        self, tmp_path, capfd, monkeypatch, started, front_takes
    ):
        # 40 files of 3 chunks; the command keeps the points of files 20-39
        # and takes chunks 0-60, so file 20's first chunk is the writer's and
        # its other two the command's. The ~2 MB of later text does not fit
        # in the pipe: the writer is still sending when the command closes
        # its end, and the wrapper exits 0 only if the writer took that as
        # its stop and sent the rest of its output to the null device.
        path = tmp_path / "writer.py"
        path.write_text(
            "import os, runpy, sys\n"
            f"runpy.run_path({_phasecsv.SCRIPT!r}, run_name='__main__')\n"
            "sys.exit(0 if os.path.samestat(os.fstat(1), os.stat(os.devnull)) else 9)\n"
        )
        monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        taken = front_takes(61)
        assert run_cli(*MULTI_CHUNK_ARGV, "--steps", "39", "--outdir", str(tmp_path)) == 0
        assert len(taken) == 61
        assert written_phase_files(tmp_path) == firms_oracle(**MULTI_CHUNK, n_steps=39)
        err = capfd.readouterr().err
        assert err == "", err  # no BrokenPipeError, no "Exception ignored"
        [proc] = started
        assert proc.returncode == 0
        assert_reaped(proc)

    def test_manifest_lists_the_outputs_in_t_order(self, tmp_path, front_takes):
        # the writer gives t0 and t1 and the command formats t4, t3, t2, in
        # that order; the manifest lists them by t all the same
        front_takes(2)
        assert run_cli(*SMALL_FIRMS, "--outdir", str(tmp_path), "--manifest") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [
            *(f"phase_t{t}.csv" for t in range(5)), "series.csv", "run.json",
        ]
        assert written_phase_files(tmp_path) == firms_oracle(n_firms=5, n_workers=20, n_steps=4)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_one_cpu_gives_the_same_bytes(self, tmp_path):
        cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, PYTHONPATH=str(Path(phase.__file__).resolve().parent.parent))
        outputs = []
        for pin in ("", f"os.sched_setaffinity(0, {{{cpu}}}); "):
            out = tmp_path / f"out{len(outputs)}"
            code = f"import os; {pin}from finphase.cli import main; main()"
            argv = [*MULTI_CHUNK_ARGV, "--steps", "10", "--outdir", str(out)]
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, timeout=120)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 13  # 11 phase files, series.csv and run.json


class TestAnalyzeCommand:
    def test_metrics_from_phase_csv(self, tmp_path):
        rundir = tmp_path / "run"
        run_cli(
            "firms", "--firms", "30", "--workers", "150", "--steps", "4",
            "--outdir", str(rundir),
        )
        out = tmp_path / "metrics.json"
        hist = tmp_path / "hist.csv"
        code = run_cli(
            "analyze", str(rundir / "phase_t4.csv"),
            "--out", str(out), "--hist-out", str(hist),
        )
        assert code == 0
        metrics = json.loads(out.read_text())["phase_t4.csv"]
        assert metrics["points"] == 30
        assert 0.0 <= metrics["rentier_fraction"] <= 1.0
        assert hist.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_point_is_a_parse_error(self, tmp_path, capsys, bad):
        csv_path = tmp_path / "phase_t1.csv"
        csv_path.write_text(f"firm_id,x,y\n0,0.5,0.1\n1,{bad},0.0\n2,-0.3,0.2\n")
        out = tmp_path / "metrics.json"
        hist = tmp_path / "hist.csv"
        code = run_cli(
            "analyze", str(csv_path), "--out", str(out), "--hist-out", str(hist)
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 3:")
        assert "phase_t1.csv" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists() and not hist.exists()
        assert run_cli("analyze", str(csv_path)) == 1
        assert "NaN" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("0,0.3\n", 4, "expected 3 fields, got 2"),
            ("1,0.2,0.3,0.4\n", 4, "expected 3 fields, got 4"),
            # four fields then two: as many fields as two good rows
            ("1,0.2,0.3,\n2,0.1\n", 4, "expected 3 fields, got 4"),
            ("1,0.2\n2,0.1,0.3,0.4\n", 4, "expected 3 fields, got 2"),
            ("1,abc,0.2\n", 4, "x and y must be numbers, got '1,abc,0.2'"),
            ("1,0.2,\n", 4, "x and y must be numbers"),
            ("1,0.2,0.1\n2,-inf,0.3\n", 5, "non-finite phase point"),
        ],
        ids=["too_few", "too_many", "shifted", "shifted_back", "non_numeric", "empty",
             "later_inf"],
    )
    def test_malformed_row_is_a_parse_error(self, tmp_path, capsys, rows, line, message):
        good = tmp_path / "phase_t0.csv"
        good.write_text("firm_id,x,y\n0,0.5,0.1\n1,-0.3,0.2\n")
        csv_path = tmp_path / "phase_t1.csv"
        # a blank line before the bad row: line numbers count it
        csv_path.write_text(f"firm_id,x,y\n0,0.5,0.1\n\n{rows}3,-0.3,0.2\n")
        out = tmp_path / "metrics.json"
        hist = tmp_path / "hist.csv"
        code = run_cli(
            "analyze", str(good), str(csv_path), "--out", str(out), "--hist-out", str(hist)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: {csv_path}: {message}")
        assert "Traceback" not in err
        assert not out.exists() and not hist.exists()

    @pytest.mark.parametrize("first", ["0,0.5,0.1", "firm_id;x;y", "", "x,y"])
    def test_missing_header_is_a_parse_error(self, tmp_path, capsys, first):
        csv_path = tmp_path / "phase_t1.csv"
        csv_path.write_text(f"{first}\n0,0.5,0.1\n1,-0.3,0.2\n")
        out = tmp_path / "metrics.json"
        assert run_cli("analyze", str(csv_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 1: {csv_path}: expected the header 'firm_id,x,y'")
        assert not out.exists()

    def test_blank_lines_and_spaces_are_skipped(self, tmp_path):
        plain = tmp_path / "a" / "phase_t1.csv"
        spaced = tmp_path / "b" / "phase_t1.csv"
        plain.parent.mkdir()
        spaced.parent.mkdir()
        plain.write_text("firm_id,x,y\n0,0.5,0.1\n1,-0.3,0.2\n2,1e-3,-0.25\n")
        spaced.write_bytes(
            b"firm_id,x,y \r\n\r\n 0, 0.5 ,0.1\n  \n\t\n1,-0.3,0.2\r\n2 ,1e-3, -0.25\n\n\n"
        )
        reports = []
        for path in (plain, spaced):
            out = path.parent / "metrics.json"
            hist = path.parent / "hist.csv"
            assert run_cli("analyze", str(path), "--out", str(out), "--hist-out", str(hist)) == 0
            reports.append((out.read_bytes(), hist.read_bytes()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0][0])["phase_t1.csv"]["points"] == 3

    @pytest.mark.parametrize("same_path", [False, True], ids=["two_dirs", "one_path_twice"])
    def test_shared_base_name_is_rejected(self, tmp_path, capsys, started, same_path):
        # the report is keyed by base name: one entry would stand for both files
        dirs = [tmp_path / "r1", tmp_path / "r1" if same_path else tmp_path / "r2"]
        for d in dirs:
            d.mkdir(exist_ok=True)
            (d / "phase_t3.csv").write_text(GOOD_PHASE_CSV)
        out, hist = tmp_path / "metrics.json", tmp_path / "hist.csv"
        argv = [str(d / "phase_t3.csv") for d in dirs]
        assert run_cli("analyze", *argv, "--out", str(out), "--hist-out", str(hist)) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: two inputs have the base name 'phase_t3.csv'; the report is keyed by it\n"
        )
        assert captured.out == ""
        assert started == []  # rejected before the phase reader starts
        assert not out.exists() and not hist.exists()

    def test_header_only_file_is_a_degenerate_sample(self, tmp_path, capsys):
        csv_path = tmp_path / "phase_t1.csv"
        csv_path.write_text("firm_id,x,y\n\n")
        assert run_cli("analyze", str(csv_path)) == 1
        assert capsys.readouterr().err == f"error: {csv_path}: need >= 2 points, got 0\n"

    def test_non_finite_metric_writes_no_output(self, tmp_path, capsys):
        # finite points whose spread overflows float64: std_x is inf
        csv_path = tmp_path / "phase_t1.csv"
        csv_path.write_text("firm_id,x,y\n0,1e200,0.1\n1,-1e200,0.0\n2,0.3,0.2\n")
        out = tmp_path / "metrics.json"
        hist = tmp_path / "hist.csv"
        with np.errstate(all="ignore"):
            code = run_cli(
                "analyze", str(csv_path), "--out", str(out), "--hist-out", str(hist)
            )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert not out.exists() and not hist.exists()


GOOD_PHASE_CSV = "firm_id,x,y\n0,0.5,0.1\n1,-0.3,0.2\n"
TWO_POINTS = [[0.5, 0.1], [-2.0, 0.25]]
# A phase CSV and what ``analyze`` makes of it: its points, or the line
# and message of the error ``error: line N: <file>: <message>``.
ANALYZE_INPUTS = {
    "underscore": (b"0,1_0,0.1\n1,-2,0.25\n", [[10.0, 0.1], [-2.0, 0.25]]),
    "spaces_and_plus": (b"0, +1.5 ,0.1\n1,-2,0.25\n", [[1.5, 0.1], [-2.0, 0.25]]),
    "leading_point": (b"0,.5,0.1\n1,-2,.25\n", TWO_POINTS),
    "exponent": (b"0,1e-3,0.1\n1,-2E0,0.25\n", [[0.001, 0.1], [-2.0, 0.25]]),
    "full_width_digit": ("0,\uff11,0.1\n1,-2,0.25\n".encode(), [[1.0, 0.1], [-2.0, 0.25]]),
    "hex_float": (b"0,0.5,0.1\n1,0x1p3,0.25\n", (3, "x and y must be numbers, got '1,0x1p3,0.25'")),
    "nan": (b"0,0.5,0.1\n1,nan,0.25\n", (3, "non-finite phase point")),
    "id_abc": (b"abc,0.5,0.1\n1,-2,0.25\n", TWO_POINTS),
    "crlf": (b"0,0.5,0.1\r\n1,-2,0.25\r\n", TWO_POINTS),
    "blank_lines_and_tabs": (b"\n\t0,\t0.5,0.1\t\n \n\n1,-2,0.25\n\n", TWO_POINTS),
    "trailing_comma": (b"0,0.5,0.1\n1,-2,0.25,\n", (3, "expected 3 fields, got 4")),
    "non_utf8_byte": (b"0\xff,0.5,0.1\n1,-2,0.25\n", None),  # as this process decodes it
    # finite values whose sum overflows: walked line by line, then accepted
    "sum_overflow": (b"0,0.5,1e308\n1,-2,1e308\n2,0.1,0.1\n",
                     [[0.5, 1e308], [-2.0, 1e308], [0.1, 0.1]]),
}


def reference_parse(path):
    """What ``parse_file`` makes of the rows of ``path``, from a plain walk
    over its lines: the x, y values, or the message of the error."""
    values = []
    lines = path.read_text().split("\n")  # newlines translated, as parse_file reads
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            return f"line {lineno}: {path}: expected 3 fields, got {len(fields)}"
        try:
            x, y = float(fields[1]), float(fields[2])
        except ValueError:
            return f"line {lineno}: {path}: x and y must be numbers, got {line.strip()!r}"
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"line {lineno}: {path}: non-finite phase point"
        values += [x, y]
    return values


phase_fields = st.sampled_from(
    ["0.5", "-2", "1_0", " 0.25 ", "1e-3", "1e308", "nan", "inf", "-inf", "", "abc", "0x1p3"]
) | st.floats().map(repr)
phase_lines = st.one_of(
    st.tuples(st.just("7"), phase_fields, phase_fields).map(",".join),
    st.tuples(st.just("7"), phase_fields).map(",".join),
    st.tuples(st.just("7"), phase_fields, phase_fields, phase_fields).map(",".join),
    st.sampled_from(["", " ", "\t", "  \t "]),
)
phase_bodies = st.tuples(
    st.lists(st.tuples(phase_lines, st.sampled_from(["\n", "\r\n"])), max_size=8),
    st.sampled_from(["", "\n", "\n\n", "\r\n", " \n"]),
).map(lambda parts: "".join(line + end for line, end in parts[0]) + parts[1])


@settings(max_examples=300, deadline=None)
@given(phase_bodies)
@example("0,1_0,0.1\r\n\n \n1,-2,0.25\n\n")
@example("0,0.5,1e308\n1,-2,1e308\n")
@example("0,0.5\n1,-2,0.25,1\n")
def test_parse_file_matches_a_line_by_line_reference(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("body") / "phase_t0.csv"
    path.write_bytes(f"firm_id,x,y\n{body}".encode())
    try:
        got = _phasecsv.parse_file(path).tolist()
    except ValueError as exc:
        got = str(exc)
    assert repr(got) == repr(reference_parse(path))  # repr: -0.0 and 0.0 differ


def phase_files(tmp_path, n):
    """``n`` good phase CSVs in ``tmp_path``, as argument strings."""
    paths = [tmp_path / f"phase_t{t}.csv" for t in range(n)]
    for path in paths:
        path.write_text(GOOD_PHASE_CSV)
    return list(map(str, paths))


def reader_frames(paths):
    """What a real phase reader makes of ``paths``, waiting for each
    frame: the file's x, y pairs as a list, or None for a file it did not
    parse."""
    frames = []
    with _phasecsv.PhaseReader() as reader:
        reader.send(paths)
        for _ in paths:
            while not reader.ready():
                time.sleep(0.001)
            frame = reader.take()
            frames.append(None if frame is None else np.frombuffer(frame).reshape(-1, 2).tolist())
    return frames


def distinct_phase_files(tmp_path, steps=6):
    """The phase CSVs of a small firms run, all different, in step order."""
    run = tmp_path / "run"
    assert run_cli("firms", "--firms", "30", "--workers", "150", "--steps", str(steps),
                   "--outdir", str(run)) == 0
    return [str(run / f"phase_t{t}.csv") for t in range(steps + 1)]


class TestAnalyzeInputs:
    @pytest.mark.parametrize("index", [0, 1], ids=["main_process", "phase_reader"])
    @pytest.mark.parametrize("name", list(ANALYZE_INPUTS))
    def test_accepted_inputs_are_pinned(self, tmp_path, capsys, monkeypatch, name, index):
        # each input is parsed by the command's own parse_file (index 0) and
        # by a phase reader (index 1), and then by analyze, whichever
        # process it reaches there
        rows, want = ANALYZE_INPUTS[name]
        path = tmp_path / "input" / "phase_t1.csv"
        path.parent.mkdir()
        path.write_bytes(b"firm_id,x,y\n" + rows)
        if want is None:
            try:
                path.read_text()  # decoded as open(path) decodes it
            except UnicodeDecodeError as exc:
                want = str(exc)
            else:
                want = TWO_POINTS
        message = want if isinstance(want, str) else f"line {want[0]}: {path}: {want[1]}"
        # a decode error does not name its file: analyze puts the path first
        reported = f"{path}: {message}" if isinstance(want, str) else message
        if index:
            # the reader passes a file it rejects back, to be parsed again for the error
            assert reader_frames([str(path)]) == [want if isinstance(want, list) else None]
        elif isinstance(want, list):
            assert np.frombuffer(_phasecsv.parse_file(path)).reshape(-1, 2).tolist() == want
        else:
            with pytest.raises((OSError, ValueError)) as info:
                _phasecsv.parse_file(path)
            assert str(info.value) == message
        files = phase_files(tmp_path, 1)
        files.insert(index, str(path))
        binned = []
        bin_phase = phase.bin_phase
        monkeypatch.setattr(
            phase, "bin_phase", lambda points, grid: binned.append(points.tolist()) or bin_phase(points, grid)
        )
        out, hist = tmp_path / "r.json", tmp_path / "h.csv"
        code = run_cli("analyze", *files, "--out", str(out), "--hist-out", str(hist))
        err = capsys.readouterr().err
        if isinstance(want, list):
            assert (code, err) == (0, "")
            assert want in binned
        else:
            assert (code, err) == (1, f"error: {reported}\n")
            assert not out.exists() and not hist.exists()

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        # the middle one of three files holds a byte that is not UTF-8
        files = phase_files(tmp_path, 3)
        Path(files[1]).write_bytes(b"firm_id,x,y\n0\xff,0.5,0.1\n1,-2,0.25\n")
        with pytest.raises(UnicodeDecodeError) as info:
            Path(files[1]).read_text()  # decoded as analyze decodes it
        assert run_cli("analyze", *files) == 1
        assert capsys.readouterr() == ("", f"error: {files[1]}: {info.value}\n")
        with pytest.raises(UnicodeDecodeError, match=f"^{re.escape(files[1])}: "):
            cli._cmd_analyze(build_parser().parse_args(["analyze", *files]))

    def test_first_bad_file_in_argument_order_is_reported(self, tmp_path, capsys):
        # a missing file at index 1 and a malformed one at index 2
        good, missing, bad = (tmp_path / f"phase_t{t}.csv" for t in range(3))
        good.write_text(GOOD_PHASE_CSV)
        bad.write_text("firm_id,x,y\n0,0.3\n1,0.2,0.1\n")
        out = tmp_path / "r.json"
        assert run_cli("analyze", str(good), str(missing), str(bad), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not out.exists()

    def test_an_earlier_files_error_wins_whatever_its_kind(self, tmp_path, capsys):
        # file 2, parsed first from the back, is malformed; file 0 parses
        # but has one point, which is an error too, and comes first
        files = phase_files(tmp_path, 3)
        Path(files[0]).write_text("firm_id,x,y\n0,0.5,0.1\n")
        Path(files[2]).write_text("firm_id,x,y\n0,0.3\n")
        assert run_cli("analyze", *files) == 1
        assert capsys.readouterr() == ("", f"error: {files[0]}: need >= 2 points, got 1\n")

    def test_unwritable_report_removes_the_histogram(self, tmp_path, capsys):
        out = tmp_path / "d"
        (out / "r.json").mkdir(parents=True)
        files = phase_files(tmp_path, 2)
        argv = ["--out", str(out / "r.json"), "--hist-out", str(out / "h.csv")]
        assert run_cli("analyze", *files, *argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \[Errno 21\] Is a directory: '.*r\.json'\n", err), err
        assert os.listdir(out) == ["r.json"]
        assert os.listdir(out / "r.json") == []


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1e200,0.1\n1,-1e200,0.0\n2,0.3,0.2\n", "std_x must be finite, got inf"),
        ("0,1e150,0.1\n1,-1e150,0.0\n2,0.3,0.2\n", "skew_x must be finite, got nan"),
        # m2**1.5 underflows, but the skew of standardised values is 0: no error
        ("0,0,0.1\n1,1e-110,0.0\n", None),
    ],
    ids=["std_overflow", "skew_overflow", "skew_underflow"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_moment_is_named_without_warnings(tmp_path, capsys, rows, message):
    # finite points whose moments leave the float range
    csv_path = tmp_path / "phase_t1.csv"
    csv_path.write_text(f"firm_id,x,y\n{rows}")
    out = tmp_path / "r.json"
    if message is None:
        assert run_cli("analyze", str(csv_path), "--out", str(out)) == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads(out.read_text())["phase_t1.csv"]["skew_x"] == 0.0
        return
    assert run_cli("analyze", str(csv_path), "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {csv_path}: {message}\n")
    assert os.listdir(tmp_path) == ["phase_t1.csv"]


class TestPhaseReader:
    @pytest.mark.parametrize(
        "script,message",
        [
            ("import sys\nsys.exit(3)\n",
             r"phase reader (stopped reading|output ended early) \(exit status 3\)"),
            ("import sys\nsys.stdin.buffer.read()\n"
             "sys.stdout.buffer.write((100).to_bytes(8, sys.byteorder) + b'abc')\n",
             r"phase reader output ended early \(exit status 0\)"),
            # every frame intact, then a failure: no output is written
            ("import runpy, sys\nrunpy.run_path({real!r}, run_name='__main__')\nsys.exit(5)\n",
             r"phase reader failed \(exit status 5\)"),
        ],
        ids=["exits_3", "short_frame", "exits_5_after_its_output"],
    )
    def test_failed_reader_exits_one(self, tmp_path, capsys, monkeypatch, started, script, message):
        path = tmp_path / "reader.py"
        path.write_text(script.format(real=_phasecsv.SCRIPT))
        monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        parse_file = _phasecsv.parse_file

        def after_the_reader(path, encoding=None):
            # the command parses its own files only once the reader has
            # exited, so the reader fails before the two meet
            started[0].wait(timeout=60)
            return parse_file(path, encoding)

        monkeypatch.setattr(_phasecsv, "parse_file", after_the_reader)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--out", str(out / "r.json"), "--hist-out", str(out / "h.csv")]
        assert run_cli("analyze", *phase_files(tmp_path, 4), *argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err
        assert os.listdir(out) == []
        [proc] = started
        assert_reaped(proc)

    @pytest.mark.parametrize("error", [DegenerateSample("binning failed"), KeyboardInterrupt()])
    def test_run_failing_mid_analysis_writes_nothing_and_reaps_the_reader(
        self, tmp_path, capsys, monkeypatch, started, error
    ):
        bin_phase = phase.bin_phase
        calls = []

        def failing_bin_phase(points, grid):
            calls.append(1)
            if len(calls) == 2:  # a file before the meet, whichever process parsed it
                raise error
            return bin_phase(points, grid)

        monkeypatch.setattr(phase, "bin_phase", failing_bin_phase)
        out = tmp_path / "out"
        out.mkdir()
        files = phase_files(tmp_path, 4)
        argv = ["analyze", *files, "--out", str(out / "r.json"), "--hist-out", str(out / "h.csv")]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == 1
            # the degenerate sample is named by its file, whichever was binned second
            named = "|".join(map(re.escape, files))
            assert re.fullmatch(f"error: ({named}): binning failed\n", capsys.readouterr().err)
        assert os.listdir(out) == []
        [proc] = started
        assert_reaped(proc)

    def test_one_file_starts_no_reader(self, tmp_path, started):
        assert run_cli("analyze", *phase_files(tmp_path, 1), "--out", str(tmp_path / "r.json")) == 0
        assert started == []

    def test_reader_decodes_as_this_process(self, tmp_path, started):
        assert run_cli("analyze", *phase_files(tmp_path, 2), "--out", str(tmp_path / "r.json")) == 0
        [proc] = started
        assert proc.args[-2:] == ["parse", io.text_encoding(None)]

    @pytest.mark.parametrize("reader", ["answers_at_once", "never_answers"])
    def test_output_is_the_same_whoever_parses_each_file(
        self, tmp_path, monkeypatch, started, reader
    ):
        files = distinct_phase_files(tmp_path)

        def analyze(name):
            out = tmp_path / name
            out.mkdir()
            argv = ["--out", str(out / "r.json"), "--hist-out", str(out / "h.csv")]
            assert run_cli("analyze", *files, *argv) == 0
            return (out / "r.json").read_bytes(), (out / "h.csv").read_bytes()

        expected = analyze("expected")
        own = []
        parse_file = _phasecsv.parse_file
        monkeypatch.setattr(
            _phasecsv, "parse_file", lambda path, encoding=None: own.append(path) or parse_file(path, encoding)
        )
        if reader == "answers_at_once":  # each frame is waited for: the reader parses every file
            ready = _phasecsv.PhaseReader.ready

            def waiting(self):
                while not ready(self):
                    time.sleep(0.001)
                return True

            monkeypatch.setattr(_phasecsv.PhaseReader, "ready", waiting)
        else:  # no frame ever comes: this process parses every file
            path = tmp_path / "reader.py"
            path.write_text("import time\ntime.sleep(600)\n")
            monkeypatch.setattr(_phasecsv, "SCRIPT", str(path))
        assert analyze(reader) == expected
        assert own == ([] if reader == "answers_at_once" else files[::-1])
        proc = started[-1]
        assert_reaped(proc)
        if reader == "never_answers":
            assert proc.returncode == -signal.SIGKILL  # killed where the two met

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_one_cpu_gives_the_same_bytes(self, tmp_path):
        files = distinct_phase_files(tmp_path)
        cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, PYTHONPATH=str(Path(phase.__file__).resolve().parent.parent))
        outputs = []
        for pin in ("", f"os.sched_setaffinity(0, {{{cpu}}}); "):
            out = tmp_path / f"out{len(outputs)}"
            out.mkdir()
            code = f"import os; {pin}from finphase.cli import main; main()"
            argv = ["analyze", *files, "--out", str(out / "r.json"), "--hist-out", str(out / "h.csv")]
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, timeout=120)
            outputs.append(((out / "r.json").read_bytes(), (out / "h.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestInterestAndReserves:
    def test_interest_json(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = run_cli(
            "interest", "--capital", "5000000", "--reserves", "3000000",
            "--loan", "1000000", "--sigma", "1000000", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["p_e"] == pytest.approx(0.0214002339, abs=1e-9)
        assert payload["expected_cost"] == pytest.approx(107001.17, abs=0.01)
        assert payload["min_rate"] == pytest.approx(0.107001, abs=1e-5)

    def test_reserves_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        code = run_cli(
            "reserves", "--b0", "100", "--g", "15", "--tax", "3",
            "--sales", "2", "--dt", "1", "--steps", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,B"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [100.0, 110.0, 120.0, 130.0, 140.0, 150.0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestOpenBlasThreads:
    """``import finphase.cli`` asks OpenBLAS for no thread pool unless the
    caller chose a size."""

    CODE = (
        "import os, finphase.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )

    def threads_and_setting(self, given):
        src = str(Path(phase.__file__).resolve().parent.parent)
        # OpenBLAS also reads these two when its own variable is unset
        unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in unset}
        env["PYTHONPATH"] = src
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        out = subprocess.run(
            [sys.executable, "-c", self.CODE], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        threads, setting = out.stdout.split()
        return int(threads), setting

    def test_unset_leaves_one_thread(self):
        assert self.threads_and_setting(None) == (1, "1")

    def test_a_callers_value_is_kept(self):
        assert self.threads_and_setting("2")[1] == "2"


def test_import_freezes_the_heap_and_cycles_are_still_collected():
    code = (
        "import gc, weakref, finphase.cli\n"
        "assert gc.get_freeze_count() > 0, 'nothing frozen'\n"
        "class Node: pass\n"
        "node = Node(); node.self = node; ref = weakref.ref(node); del node\n"
        "gc.collect()\n"
        "assert ref() is None, 'a cycle made after the import was not collected'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(phase.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestSectorsCommand:
    def test_check_bundled(self, capsys):
        assert run_cli("sectors", "check") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] == 0
        assert payload["is_balanced"] is True

    def test_what_if_bundled(self, capsys):
        code = run_cli("sectors", "what-if", "--sector", "Govt", "--value", "0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["required_offset"] == -122


class TestReproducibility:
    def _tree_bytes(self, root: Path):
        return {
            p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["exchange", "--agents", "300", "--events", "30000", "--seed", "5"],
            ["firms", "--firms", "25", "--workers", "100", "--steps", "4",
             "--seed", "5"],
            ["reserves", "--b0", "10", "--g", "3", "--tax", "1", "--sales", "1"],
        ],
    )
    def test_identical_runs_are_byte_identical(self, tmp_path, argv):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli(*argv, "--outdir", str(dir_a)) == 0
        assert run_cli(*argv, "--outdir", str(dir_b)) == 0
        assert self._tree_bytes(dir_a) == self._tree_bytes(dir_b)

    def test_firms_config_file_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_firms = 40\nn_workers = 200\nn_steps = 4\n")
        dirs = []
        for label in ("a", "b"):
            outdir = tmp_path / label
            code = run_cli(
                "firms", "--config", str(cfg), "--seed", "7",
                "--outdir", str(outdir),
            )
            assert code == 0
            dirs.append(outdir)
        assert self._tree_bytes(dirs[0]) == self._tree_bytes(dirs[1])

    def test_different_seed_changes_outputs(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_cli("exchange", "--agents", "300", "--events", "30000",
                "--seed", "1", "--outdir", str(dir_a))
        run_cli("exchange", "--agents", "300", "--events", "30000",
                "--seed", "2", "--outdir", str(dir_b))
        assert (dir_a / "wealth.csv").read_bytes() != (dir_b / "wealth.csv").read_bytes()

    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FINPHASE_OUTDIR", str(tmp_path / "env_out"))
        assert run_cli("exchange", "--agents", "100", "--events", "1000") == 0
        assert (tmp_path / "env_out" / "wealth.csv").exists()

"""The benchmark's own tests, at a size that takes seconds.

Each workload runs once untraced and once traced, and one tampered output
per workload must count as a failed repetition.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke(name, trace, tmp_path):
    report, result = bench.run(name, seed=3, seconds=0, trace=trace, workdir=tmp_path / "w", tiny=True)
    assert result is not None, report["errors"]
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert result["attempted"] == (2 if trace else 1)
    assert not (tmp_path / "w").exists()
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "firms_long":
        assert values["ledger.calls"] > 0 and values["firms.step.calls"] == 5
        assert values["exchange.events"] == 0
    else:
        assert values["ledger.calls"] == 0 and values["firms.step.calls"] == 0


def _bump_last_balance(out):
    path = out / "wealth.csv"
    lines = path.read_text().splitlines()
    agent, money = lines[-1].split(",")
    lines[-1] = f"{agent},{int(money) + 1}"
    path.write_text("\n".join(lines) + "\n")


def _break_residual(out):
    path = out / "run.json"
    path.write_text(path.read_text().replace('"final_conservation_residual": 0', '"final_conservation_residual": 1'))


def _nan_mean(out):
    path = out / "report.json"
    path.write_text(re.sub(r'"mean_x": [^,]+', '"mean_x": NaN', path.read_text(), count=1))


@pytest.mark.parametrize(
    "name, tamper, message",
    [
        ("exchange_gibbs", _bump_last_balance, "wealth.csv: total"),
        ("firms_long", _break_residual, "final conservation residual 1"),
        ("analyze_phase", _nan_mean, "non-finite number NaN"),
    ],
)
def test_tampered_output_counts_as_failure(name, tamper, message, tmp_path, monkeypatch):
    real_spawn = bench.spawn

    def spawn_then_tamper(argv, rep_dir, trace_path=None):
        outcome = real_spawn(argv, rep_dir, trace_path)
        if argv[0] != "--version":
            tamper(rep_dir / "out")
        return outcome

    monkeypatch.setattr(bench, "spawn", spawn_then_tamper)
    report, result = bench.run(name, seed=3, seconds=0, trace=False, workdir=tmp_path / "w", tiny=True)
    assert result is None
    assert report["error_rate"] == 1.0
    assert any(message in e for e in report["errors"]), report["errors"]

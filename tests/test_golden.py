"""Byte-level goldens for ``finphase firms``, ``exchange`` and ``analyze``.

Each firms digest is the SHA-256 over ``series.csv`` and ``phase_t0.csv``
.. ``phase_t30.csv`` (file name, a NUL byte, then the file bytes, in that
order) from a 50 firms x 500 workers x 30 steps run. The digests pin the
step in which every firm acts on its deposit at the start of owner
consumption and of phase 4, its receipts landing after, so a rewrite of
the ledger or of ``firms.step`` that keeps them has kept the simulation's
integers and the writer's formatting exactly.

Each exchange digest is the SHA-256 of ``wealth.csv`` from a 30000-event
run. The ``fixed`` rule's digests were captured from the per-event loop
that predates the matching-round pair-split chain and must never change;
the ``pairsplit`` digests pin the pair-split chain of reflection
matchings on one random placement of the agents (299 agents: an odd
count and a final partial round).

Each analyze digest is the SHA-256 over ``report.json`` and ``hist.csv``
(name, NUL, bytes, as above) from ``analyze`` of every phase CSV of the
``seed0`` firms case, in step order, with the default grid and with a
custom one. They pin the reports of the line-by-line CSV reader that
binned the concatenated points of all files a second time, so a reader or
histogram rewrite that keeps them has kept the reports exactly. They
depend on the firms step only through the ``seed0`` phase files.

Regenerate (only for a deliberate, documented semantic change) with
``PYTHONPATH=src python tests/test_golden.py``, which prints the tables.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from finphase.cli import dispatch

STEPS = 30
BASE_ARGS = ("--firms", "50", "--workers", "500", "--steps", str(STEPS))

CASES = {
    "seed0": ("--seed", "0"),
    "seed1": ("--seed", "1"),
    "seed2": ("--seed", "2"),
    "churn_seed0": ("--seed", "0", "--churn", "0.1"),
    "churn_seed1": ("--seed", "1", "--churn", "0.1"),
    "churn_seed2": ("--seed", "2", "--churn", "0.1"),
    "bankruptcies": ("--seed", "0", "--initial-capital", "300"),
    "no_workers": ("--seed", "0", "--workers", "0"),
    "zero_wage": ("--seed", "0", "--wage", "0"),
}

GOLDEN = {
    "bankruptcies": "2e70ef82bc6dc1a59602dc6e2eeaeb27576caa7487075357d157c82a8545fceb",
    "churn_seed0": "fd71ff0cfe02fbd6c9371dea6171d58615b551cf0115bbda50087eb1eeab9270",
    "churn_seed1": "793290d56e3a5034e820723f697368c0615f0ec380a9a46f438566393340529d",
    "churn_seed2": "a1365ec7948ffd6fd8a9bf397a000eaf4d50b305db8d71d9d15d549e7199a137",
    "no_workers": "2e42a961d8e90fb2ed4d7f5ca313cb7793952e1cf06c064be07843861b249915",
    "seed0": "fb5a84d384633832db3870e67c4d4bcf54346c43ba1586f1aed4498d991e3cd5",
    "seed1": "f3fea6ed8514aab980be2efd7cc1c0a7edce23a71575b68c6c3674430b1cd344",
    "seed2": "068a0dc06d419a4a60c5ef474b6ed29ee8d221c796c1a701e96d93039b476ebb",
    "zero_wage": "2e42a961d8e90fb2ed4d7f5ca313cb7793952e1cf06c064be07843861b249915",
}


EXCHANGE_EVENTS = 30_000

EXCHANGE_CASES = {
    "fixed_seed0": ("--rule", "fixed", "--amount", "37", "--agents", "300", "--seed", "0"),
    "fixed_seed1": ("--rule", "fixed", "--amount", "37", "--agents", "300", "--seed", "1"),
    "fixed_seed2": ("--rule", "fixed", "--amount", "37", "--agents", "300", "--seed", "2"),
    "fixed_odd_agents": ("--rule", "fixed", "--amount", "37", "--agents", "301", "--seed", "0"),
    "fixed_broke_payers": (
        "--rule", "fixed", "--amount", "10", "--agents", "300", "--initial-money", "5",
        "--seed", "0",
    ),
    "pairsplit_seed0": ("--agents", "300", "--seed", "0"),
    "pairsplit_seed1": ("--agents", "300", "--seed", "1"),
    "pairsplit_seed2": ("--agents", "300", "--seed", "2"),
    "pairsplit_odd_agents": ("--agents", "299", "--seed", "0"),
}

EXCHANGE_GOLDEN = {
    "fixed_broke_payers": "d2924fd2a6398360e06b8fdf61057a93e67985577978ee09ed44bff2fa85629c",
    "fixed_odd_agents": "c6ec018ccaa78a49507620c531a3b7c9039f2d1d1fdf4beab9e45e76b638b506",
    "fixed_seed0": "4467bf947fc4a7840bc8ee7f6a7730b1d9daa2d33dd8e8ba59422a139119c31a",
    "fixed_seed1": "d823b84c47c6d40737f218c837281e28fe471d38cb736fb737a702b5ce2a9672",
    "fixed_seed2": "d3649f107e934ee9bb570fff7b0efadf12931fd0cbe791caca457cca8dc2b166",
    "pairsplit_odd_agents": "0be12438860cccb6d53626e951daee545bdae3823fc78e6f00a3cbc4b5517aec",
    "pairsplit_seed0": "0260ac40375b47d5ba31b55a8b83f66eed68856e9dadafa4a1a7b15eadaa4f8f",
    "pairsplit_seed1": "bace94e2207fd7e920e90a6fef2ec68bfb1d7edb67858fa1606ca90fe1ab2b22",
    "pairsplit_seed2": "05cfd35f14d13f2f1c3884f00832205100696310f35b3b1478cd905c32c6d7d8",
}


ANALYZE_CASES = {
    "default_grid": (),
    "custom_grid": ("--grid", "-2.5", "1.25", "-0.4", "0.3", "17", "9"),
}

ANALYZE_GOLDEN = {
    "custom_grid": "6e5b9f93d86e26702a61643e2dd66e3588388ebc836c7ed48af4c9a57bf3eed5",
    "default_grid": "6716c4d3d6c73499c62dfdd407aed2c85df9aa35a04dcbab870b741856a764ff",
}


def output_digest(outdir: Path, names=None) -> str:
    h = hashlib.sha256()
    if names is None:
        names = ["series.csv"] + [f"phase_t{t}.csv" for t in range(STEPS + 1)]
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def run_case(name: str, outdir: Path) -> str:
    # later flags win, so a case's --workers overrides the base value
    argv = ["firms", *BASE_ARGS, *CASES[name], "--outdir", str(outdir)]
    assert dispatch(argv) == 0
    return output_digest(outdir)


def run_exchange_case(name: str, outdir: Path) -> str:
    argv = [
        "exchange", "--events", str(EXCHANGE_EVENTS), *EXCHANGE_CASES[name],
        "--outdir", str(outdir),
    ]
    assert dispatch(argv) == 0
    return hashlib.sha256((outdir / "wealth.csv").read_bytes()).hexdigest()


def run_analyze_case(name: str, outdir: Path) -> str:
    rundir = outdir / "run"
    run_case("seed0", rundir)
    phases = [str(rundir / f"phase_t{t}.csv") for t in range(STEPS + 1)]
    argv = [
        "analyze", *phases, *ANALYZE_CASES[name],
        "--out", str(outdir / "report.json"), "--hist-out", str(outdir / "hist.csv"),
    ]
    assert dispatch(argv) == 0
    return output_digest(outdir, ["report.json", "hist.csv"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_firms_outputs_match_golden(tmp_path, name):
    assert run_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(EXCHANGE_CASES))
def test_exchange_outputs_match_golden(tmp_path, name):
    assert run_exchange_case(name, tmp_path) == EXCHANGE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_analyze_outputs_match_golden(tmp_path, name):
    assert run_analyze_case(name, tmp_path) == ANALYZE_GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for cases, run in (
            (CASES, run_case),
            (EXCHANGE_CASES, run_exchange_case),
            (ANALYZE_CASES, run_analyze_case),
        ):
            digests = {name: run(name, Path(tmp) / name) for name in sorted(cases)}
            for name, digest in digests.items():
                sys.stdout.write(f'    "{name}": "{digest}",\n')
            sys.stdout.write("\n")

"""Byte-level goldens for ``finphase firms``, ``exchange`` and ``analyze``.

Each firms digest is the SHA-256 over ``series.csv`` and ``phase_t0.csv``
.. ``phase_t30.csv`` (file name, a NUL byte, then the file bytes, in that
order) from a 50 firms x 500 workers x 30 steps run. The digests were
captured from the list-backed ledger with its one-posting-at-a-time step,
so any later rewrite of the ledger or of ``firms.step`` that keeps them
has kept the simulation's integers and the writer's formatting exactly.

Each exchange digest is the SHA-256 of ``wealth.csv`` from a 30000-event
run. The ``fixed`` rule's digests were captured from the per-event loop
that predates the matching-round pair-split chain and must never change;
the ``pairsplit`` digests pin that chain (299 agents: an odd count and a
final partial round).

Each analyze digest is the SHA-256 over ``report.json`` and ``hist.csv``
(name, NUL, bytes, as above) from ``analyze`` of every phase CSV of the
``seed0`` firms case, in step order, with the default grid and with a
custom one. They were captured from the line-by-line CSV reader that
binned the concatenated points of all files a second time, so a reader
or histogram rewrite that keeps them has kept the reports exactly.

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
    "bankruptcies": "7f551c9a24b1e9f97340a419564c28f844bf06f7ff79cf780ecd3804f62ce30a",
    "churn_seed0": "7ffc1274e05dfb79cabe364f10a85b957d7f03e334d1f40c2bb52f606abb9439",
    "churn_seed1": "3ec39658ca90aa6c38d843fb3d6d15d0541dd0b079c92e1d895cd55ed5bc2b37",
    "churn_seed2": "8f965fc89285e7c973332d5a497fea77cea997dd891f87aad10349052c511aa5",
    "no_workers": "2e42a961d8e90fb2ed4d7f5ca313cb7793952e1cf06c064be07843861b249915",
    "seed0": "f598083902fd1ed550fa6e5b88a9e14ecc227f55d5c751b1b71b414cd67edb61",
    "seed1": "8c8ace5dd0c8d920c90f9a4805b7e47e1e168a7391c9828065d5b61568d6fff6",
    "seed2": "94a094e6fab138060f96a0f6f7614495472b19ea4108bb3c29e451f3e0843b34",
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
    "pairsplit_odd_agents": "0f7a2ee7e2a391d0ad3cff62f3b03089146b42ee9fb5f49faf44755698a3051f",
    "pairsplit_seed0": "9a35357d0860b42ab8033a8afa541d8e5cb65d60209b0ad67736b1f7c4571529",
    "pairsplit_seed1": "8c1b42fffbb4a4eb1b166a15f7f04970f44052ed56fe970186a9198b2f0d85c7",
    "pairsplit_seed2": "eb8a265d4a52342d09726fa7af6a1c29118423983725109b7dde0e8c227b24e5",
}


ANALYZE_CASES = {
    "default_grid": (),
    "custom_grid": ("--grid", "-2.5", "1.25", "-0.4", "0.3", "17", "9"),
}

ANALYZE_GOLDEN = {
    "custom_grid": "1c5424c8aaa886d9c03b790f2d7bf1527e1ff369b547ad94ab104693837514f4",
    "default_grid": "4a4e9e87dc8c748a007cae51ee919e6dfb129c65baf9c549b3d73c167e3bd528",
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

"""Byte-level goldens for ``finphase firms`` outputs.

Each digest is the SHA-256 over ``series.csv`` and ``phase_t0.csv`` ..
``phase_t30.csv`` (file name, a NUL byte, then the file bytes, in that
order) from a 50 firms x 500 workers x 30 steps run. The digests were
captured from the list-backed ledger with its one-posting-at-a-time step,
so any later rewrite of the ledger or of ``firms.step`` that keeps them
has kept the simulation's integers and the writer's formatting exactly.

Regenerate (only for a deliberate, documented semantic change) with
``PYTHONPATH=src python tests/test_golden.py``, which prints the table.
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


def output_digest(outdir: Path) -> str:
    h = hashlib.sha256()
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_firms_outputs_match_golden(tmp_path, name):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(name, Path(tmp) / name) for name in sorted(CASES)}
    for name, digest in digests.items():
        sys.stdout.write(f'    "{name}": "{digest}",\n')

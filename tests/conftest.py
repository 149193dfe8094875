"""Shared test helpers."""

import os

import numpy as np
import pytest

from finphase import rng
from finphase.ledger import Ledger


def conservation_oracle(ledger: Ledger) -> int:
    """Independent full-summation check of the conservation identity.

    Deliberately avoids Ledger.conservation_residual so the two routes
    can disagree if either is wrong: the columns are summed as Python ints.
    """
    deposits, debts = ledger.deposits.tolist(), ledger.debts.tolist()
    assert all(d >= 0 for d in deposits)
    assert all(b >= 0 for b in debts)
    return sum(deposits) - sum(debts) + ledger.bank_equity - ledger.base_money


def normal_block(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller on stream uniforms.

    Consumes outputs ``2*start .. 2*(start+count)-1`` of the underlying
    stream, so blocks indexed by ``start`` never overlap.
    """
    u1 = rng.uniform_block(seed, 2 * start, count)
    u2 = rng.uniform_block(seed, 2 * start + count, count)
    # Guard log(0): the stream never emits exactly 1.0, but may emit 0.0.
    u1 = np.where(u1 > 0.0, u1, 2.0 ** -53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    reaped: the phase helpers fork the test's own process, so a leaked
    one would otherwise go unseen."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")

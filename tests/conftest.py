"""Shared test helpers."""

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

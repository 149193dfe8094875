"""Sector tables: parsing, the zero-sum identity, counterfactuals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finphase.errors import InvalidConfig, MoneyOverflow, ParseError
from finphase.ledger import MONEY_MAX, MONEY_MIN
from finphase.sectors import (
    SectorTable,
    bundled_eurozone_2012q1,
    check_zero_sum,
    counterfactual,
    load_sectors,
)

EUROZONE = {
    "Households": 48,
    "Nonfinancial": 22,
    "Financial": 39,
    "Govt": -122,
    "RestOfWorld": 13,
}


def table_of(entries, period="p", scale="s"):
    return SectorTable(period, scale, tuple(entries))


def sectors_csv(table):
    """The table as the CSV text ``load_sectors`` reads."""
    meta = f"#period,{table.period}\n" if table.period else ""
    meta += f"#scale,{table.scale}\n" if table.scale else ""
    rows = "".join(f"{name},{value}\n" for name, value in table.entries)
    return f"{meta}sector,balance\n{rows}"


class TestLoadSectors:
    def test_bundled_eurozone_values(self):
        table = bundled_eurozone_2012q1()
        assert dict(table.entries) == EUROZONE
        assert [name for name, _ in table.entries] == list(EUROZONE)
        assert table.period == "2012Q1"
        assert table.scale == "billion EUR"

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_sectors(path)

    def test_duplicate_sector(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("sector,balance\nA,1\nA,2\n")
        with pytest.raises(ParseError, match="^line 3: sector 'A' listed twice$"):
            load_sectors(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sector,balance\nA,1\nB,not-a-number\n")
        with pytest.raises(ParseError) as err:
            load_sectors(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("wide", [MONEY_MAX + 1, MONEY_MIN - 1, 99999999999999999999999])
    def test_balance_outside_int64_reports_line(self, tmp_path, wide):
        path = tmp_path / "wide.csv"
        path.write_text(f"sector,balance\nA,{MONEY_MAX}\nB,{MONEY_MIN}\nC,{wide}\n")
        message = f"^line 4: balance must be in the money range .*, got {wide}$"
        with pytest.raises(ParseError, match=message):
            load_sectors(path)
        path.write_text(f"sector,balance\nA,{MONEY_MAX}\nB,{MONEY_MIN}\n")
        assert load_sectors(path).entries == (("A", MONEY_MAX), ("B", MONEY_MIN))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_sectors("/nonexistent/sectors.csv")

    def test_roundtrip_bit_exact(self, tmp_path):
        table = bundled_eurozone_2012q1()
        out = tmp_path / "dump.csv"
        out.write_text(sectors_csv(table))
        assert load_sectors(out) == table
        # and the byte content round-trips through a second dump
        out2 = tmp_path / "dump2.csv"
        out2.write_text(sectors_csv(load_sectors(out)))
        assert out.read_bytes() == out2.read_bytes()


class TestCheckZeroSum:
    def test_eurozone_sums_to_zero_exactly(self):
        report = check_zero_sum(bundled_eurozone_2012q1(), 0)
        assert report.residual == 0
        assert report.is_balanced
        assert report.largest_surplus == "Households"
        assert report.largest_deficit == "Govt"

    def test_all_zero_table(self):
        report = check_zero_sum(table_of([("A", 0), ("B", 0)]))
        assert report.residual == 0 and report.is_balanced

    def test_residual_and_tolerance(self):
        report = check_zero_sum(table_of([("A", 5), ("B", -3)]), tolerance=1)
        assert report.residual == 2
        assert not report.is_balanced
        assert check_zero_sum(table_of([("A", 5), ("B", -3)]), tolerance=2).is_balanced

    def test_constructed_balancing_tables(self):
        # N-1 random values plus a balancing entry always sum to zero
        import random

        gen = random.Random(5)
        for _ in range(50):
            values = [gen.randint(-10**9, 10**9) for _ in range(gen.randint(1, 9))]
            entries = [(f"s{i}", v) for i, v in enumerate(values)]
            entries.append(("balancer", -sum(values)))
            assert check_zero_sum(table_of(entries)).residual == 0

    @pytest.mark.parametrize("edge", [MONEY_MAX, MONEY_MIN])
    def test_residual_outside_int64(self, edge):
        # every balance is in the money range, their sum is not
        message = f"^residual must be in the money range .*, got {2 * edge}$"
        with pytest.raises(MoneyOverflow, match=message):
            check_zero_sum(table_of([("A", edge), ("B", edge)]))

    def test_residual_at_the_range_edges(self):
        for edge in (MONEY_MAX, MONEY_MIN):
            assert check_zero_sum(table_of([("A", edge), ("B", 0)])).residual == edge

    def test_permutation_invariance_and_merge_additivity(self):
        entries = [("A", 10), ("B", -4), ("C", 7), ("D", -13)]
        base = check_zero_sum(table_of(entries)).residual
        permuted = check_zero_sum(table_of(entries[::-1])).residual
        merged = check_zero_sum(table_of([("AB", 6), ("C", 7), ("D", -13)])).residual
        assert base == permuted == merged


class TestCounterfactual:
    def test_eurozone_government_to_zero(self):
        result = counterfactual(bundled_eurozone_2012q1(), "Govt", 0)
        assert result.required_offset == -122
        assert result.table.balance("Govt") == 0

    def test_no_change_no_offset(self):
        table = bundled_eurozone_2012q1()
        assert counterfactual(table, "Financial", 39).required_offset == 0

    def test_unknown_sector(self):
        with pytest.raises(InvalidConfig, match="^no sector named 'Mars'$"):
            counterfactual(bundled_eurozone_2012q1(), "Mars", 0)

    @pytest.mark.parametrize("wide", [MONEY_MAX + 1, MONEY_MIN - 1, 10**23])
    def test_new_value_outside_int64(self, wide):
        table = bundled_eurozone_2012q1()
        message = f"^new_value must be in the money range .*, got {wide}$"
        with pytest.raises(InvalidConfig, match=message):
            counterfactual(table, "Households", wide)
        # the others sum to -48 and 122: each edge leaves the offset in range
        for sector, edge in (("Households", MONEY_MAX), ("Govt", MONEY_MIN)):
            assert counterfactual(table, sector, edge).table.balance(sector) == edge

    @pytest.mark.parametrize(
        "other, new_value, offset",
        [(MONEY_MAX, MONEY_MAX, -2 * MONEY_MAX), (MONEY_MIN, 0, MONEY_MAX + 1),
         (MONEY_MIN, MONEY_MIN, -2 * MONEY_MIN)],
        ids=["minus_twice_max", "minus_min", "minus_twice_min"],
    )
    def test_required_offset_outside_int64(self, other, new_value, offset):
        table = table_of([("A", other), ("B", 0)])
        message = f"^required_offset must be in the money range .*, got {offset}$"
        with pytest.raises(MoneyOverflow, match=message):
            counterfactual(table, "B", new_value)

    def test_required_offset_at_the_range_edges(self):
        table = table_of([("A", MONEY_MIN + 1), ("B", 0)])
        assert counterfactual(table, "B", 0).required_offset == MONEY_MAX
        table = table_of([("A", MONEY_MAX), ("B", 0)])
        assert counterfactual(table, "B", 1).required_offset == MONEY_MIN

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=8),
        st.integers(0, 7),
        st.integers(-10**9, 10**9),
    )
    def test_algebraic_oracle(self, values, idx, new_value):
        idx = idx % len(values)
        entries = [(f"s{i}", v) for i, v in enumerate(values)]
        table = table_of(entries)
        old_residual = sum(values)
        old_value = values[idx]
        result = counterfactual(table, f"s{idx}", new_value)
        # definition: required_offset = -(new residual)
        assert result.required_offset == old_value - new_value - old_residual

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=6),
        st.integers(-10**6, 10**6),
    )
    def test_offset_applied_elsewhere_rebalances(self, values, new_value):
        # balanced table; change sector 0, absorb the offset in the last
        values = values + [-sum(values)]
        entries = [(f"s{i}", v) for i, v in enumerate(values)]
        result = counterfactual(table_of(entries), "s0", new_value)
        absorber = f"s{len(values) - 1}"
        patched = counterfactual(
            result.table,
            absorber,
            result.table.balance(absorber) + result.required_offset,
        )
        assert check_zero_sum(patched.table).residual == 0


class TestSectorTable:
    def test_needs_two_sectors(self):
        with pytest.raises(ValueError):
            table_of([("only", 1)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidConfig, match="^sector names must be unique$"):
            table_of([("A", 1), ("A", 2)])

    def test_unknown_lookup(self):
        with pytest.raises(InvalidConfig, match="^no sector named 'C'$"):
            table_of([("A", 1), ("B", 2)]).balance("C")

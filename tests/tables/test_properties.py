"""Property-based tests for the table engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tables import Table, concat_tables, read_csv, write_csv
from repro.tables.schema import Schema

settings.register_profile("tables", deadline=None, max_examples=60)
settings.load_profile("tables")

ids = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=40)
names = st.lists(
    st.text(alphabet="abcxyz ,\"'", min_size=0, max_size=8),
    min_size=0,
    max_size=40,
)


def make_table(ints, strs):
    n = min(len(ints), len(strs))
    return Table.from_columns(
        {"a": ints[:n], "b": strs[:n]},
        schema=Schema([("a", "int"), ("b", "str")]),
    )


@given(ids, names)
def test_filter_then_concat_is_permutation(ints, strs):
    """Splitting by a predicate and re-concatenating loses no rows."""
    table = make_table(ints, strs)
    mask = table["a"] >= 0
    kept = table.filter(mask)
    dropped = table.filter(~mask)
    assert kept.num_rows + dropped.num_rows == table.num_rows
    recombined = concat_tables([kept, dropped])
    assert sorted(recombined["a"].tolist()) == sorted(table["a"].tolist())


@given(ids, names)
def test_sort_is_ordered_permutation(ints, strs):
    table = make_table(ints, strs)
    ordered = table.sort("a")
    values = ordered["a"].tolist()
    assert values == sorted(table["a"].tolist())
    assert ordered.num_rows == table.num_rows


@given(ids, names)
def test_sort_descending_reverses(ints, strs):
    table = make_table(ints, strs)
    down = table.sort("a", descending=True)["a"].tolist()
    assert down == sorted(table["a"].tolist(), reverse=True)


@given(ids, names)
def test_take_identity(ints, strs):
    table = make_table(ints, strs)
    assert table.take(np.arange(table.num_rows)) == table


@given(ids, names)
def test_csv_roundtrip(tmp_path_factory, ints, strs):
    table = make_table(ints, strs)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(table, path)
    assert read_csv(path) == table


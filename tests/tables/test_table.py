"""Tests for repro.tables.table core operations."""

import numpy as np
import pytest

from repro.errors import ColumnNotFoundError, SchemaError
from repro.tables import Table, concat_tables
from repro.tables.schema import Schema


@pytest.fixture
def books():
    return Table.from_columns(
        {
            "book_id": [3, 1, 2, 4],
            "title": ["c", "a", "b", "d"],
            "loans": [10, 5, 5, 0],
            "price": [9.5, 1.0, 2.5, 3.0],
        }
    )


class TestConstruction:
    def test_from_columns_infers_schema(self, books):
        assert books.schema["book_id"].dtype == "int"
        assert books.schema["title"].dtype == "str"
        assert books.num_rows == 4

    def test_empty(self):
        schema = Schema([("a", "int")])
        table = Table.empty(schema)
        assert table.num_rows == 0
        assert len(table) == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError, match="differing lengths"):
            Table.from_columns({"a": [1, 2], "b": ["x"]})

    def test_columns_must_match_schema(self):
        schema = Schema([("a", "int")])
        with pytest.raises(SchemaError, match="do not match"):
            Table(schema, {"b": np.asarray([1])})


class TestAccess:
    def test_getitem_returns_column(self, books):
        assert books["loans"].tolist() == [10, 5, 5, 0]

    def test_unknown_column(self, books):
        with pytest.raises(ColumnNotFoundError):
            books["nope"]

    def test_row_unwraps_numpy_scalars(self, books):
        row = books.row(0)
        assert isinstance(row["book_id"], int)
        assert row["title"] == "c"

    def test_row_negative_index(self, books):
        assert books.row(-1)["title"] == "d"

    def test_row_out_of_range(self, books):
        with pytest.raises(IndexError):
            books.row(99)

    def test_repr_mentions_rows(self, books):
        assert "4 rows" in repr(books)


class TestOperations:
    def test_filter_with_mask(self, books):
        filtered = books.filter(books["loans"] > 4)
        assert filtered.num_rows == 3

    def test_filter_with_callable(self, books):
        filtered = books.filter(lambda t: t["price"] < 3.0)
        assert filtered["title"].tolist() == ["a", "b"]

    def test_filter_rejects_wrong_length(self, books):
        with pytest.raises(SchemaError, match="boolean array"):
            books.filter(np.asarray([True]))

    def test_filter_rejects_non_bool(self, books):
        with pytest.raises(SchemaError):
            books.filter(np.asarray([1, 0, 1, 0]))

    def test_take_allows_duplicates(self, books):
        taken = books.take([0, 0, 1])
        assert taken["title"].tolist() == ["c", "c", "a"]

    def test_head(self, books):
        assert books.head(2).num_rows == 2
        assert books.head(100).num_rows == 4

    def test_sort_single_key(self, books):
        assert books.sort("book_id")["book_id"].tolist() == [1, 2, 3, 4]

    def test_sort_descending(self, books):
        assert books.sort("book_id", descending=True)["book_id"].tolist() == [4, 3, 2, 1]

    def test_sort_multi_key_stable(self, books):
        # loans has a tie (5, 5); secondary key breaks it.
        ordered = books.sort(["loans", "title"])
        assert ordered["title"].tolist() == ["d", "a", "b", "c"]

    def test_sort_requires_column(self, books):
        with pytest.raises(SchemaError):
            books.sort([])


class TestEquality:
    def test_equal_tables(self, books):
        assert books == books.take([0, 1, 2, 3])

    def test_different_rows(self, books):
        assert books != books.head(2)

    def test_float_nan_equality(self):
        left = Table.from_columns({"x": [float("nan"), 1.0]})
        right = Table.from_columns({"x": [float("nan"), 1.0]})
        assert left == right


class TestConcat:
    def test_concat_preserves_order(self, books):
        combined = concat_tables([books.head(2), books.take([2, 3])])
        assert combined == books

    def test_concat_schema_mismatch(self, books):
        other = Table.from_columns({"x": [1]})
        with pytest.raises(SchemaError, match="different schemas"):
            concat_tables([books, other])

    def test_concat_empty_list(self):
        with pytest.raises(SchemaError):
            concat_tables([])

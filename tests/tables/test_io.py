"""Tests for CSV table round-trips."""

from datetime import date

import pytest

from repro.errors import TableIOError
from repro.tables import Table, read_csv, write_csv
from repro.tables.schema import Schema


@pytest.fixture
def table():
    schema = Schema(
        [("id", "int"), ("name", "str"), ("score", "float"),
         ("ok", "bool"), ("day", "date")]
    )
    return Table.from_columns(
        {
            "id": [1, 2],
            "name": ["àccénted, with commas", "plain"],
            "score": [1.5, -2.25],
            "ok": [True, False],
            "day": [date(2015, 3, 2), date(2020, 12, 31)],
        },
        schema=schema,
    )


class TestCSV:
    def test_roundtrip(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_header_encodes_dtypes(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert "id:int" in header and "day:date" in header

    def test_empty_table_roundtrip(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table.head(0), path)
        loaded = read_csv(path)
        assert loaded.num_rows == 0
        assert loaded.schema == table.schema

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableIOError):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TableIOError, match="empty"):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("plainheader\n1\n")
        with pytest.raises(TableIOError, match="name:dtype"):
            read_csv(path)

    def test_embedded_newlines_roundtrip(self, tmp_path):
        from repro.tables import Table

        table = Table.from_columns({"text": ["line1\nline2", "plain"]})
        path = tmp_path / "n.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a:int,b:int\n1,2\n3\n")
        with pytest.raises(TableIOError, match="expected 2 cells"):
            read_csv(path)

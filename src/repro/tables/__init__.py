"""A small columnar table engine.

The preprocessing pipeline of the paper is a data-integration task: filter
two catalogues, join them, aggregate crowd-sourced genre votes, and build a
unified readings table. This subpackage provides the relational substrate
those steps run on — a typed, immutable, numpy-backed columnar
:class:`Table` with filter/take/sort operations and CSV and
columnar-npz round-trips.

Example:
    >>> from repro.tables import Table
    >>> t = Table.from_columns({"book_id": [1, 2, 3], "title": ["a", "b", "c"]})
    >>> t.filter(t["book_id"] > 1).num_rows
    2
"""

from repro.tables.schema import Column, Schema
from repro.tables.table import Table, concat_tables
from repro.tables.io import (
    read_csv,
    read_npz_columns,
    write_csv,
    write_npz_columns,
)

__all__ = [
    "Column",
    "Schema",
    "Table",
    "concat_tables",
    "read_csv",
    "read_npz_columns",
    "write_csv",
    "write_npz_columns",
]

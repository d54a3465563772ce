"""The columnar :class:`Table` and its relational operations.

Tables are immutable: every operation returns a new table that shares the
unchanged column arrays with its parent (copy-on-write at column
granularity). Columns are numpy arrays, so predicates are vectorised masks
(``table["loans"] > 10``) and aggregations run at numpy speed.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ColumnNotFoundError, SchemaError
from repro.tables.schema import Schema, infer_schema


class Table:
    """An immutable, typed, columnar table."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]) -> None:
        if set(columns) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema {schema.names}"
            )
        lengths = {name: len(array) for name, array in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"columns have differing lengths: {lengths}")
        self._schema = schema
        self._columns = {name: columns[name] for name in schema.names}
        self._num_rows = next(iter(lengths.values())) if lengths else 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence], schema: Schema | None = None
    ) -> "Table":
        """Build a table from a mapping of column name to values.

        When ``schema`` is omitted it is inferred from the values.
        """
        if schema is None:
            schema = infer_schema(dict(columns))
        coerced = {
            name: schema.coerce_column(name, values) for name, values in columns.items()
        }
        return cls(schema, coerced)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """Return a zero-row table with the given schema."""
        return cls.from_columns({name: [] for name in schema.names}, schema=schema)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._schema.names

    def __len__(self) -> int:
        return self._num_rows

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.column_names) from None

    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a plain dict (scalars unwrapped)."""
        if not -self._num_rows <= index < self._num_rows:
            raise IndexError(f"row {index} out of range for {self._num_rows} rows")
        return {name: _unwrap(self._columns[name][index]) for name in self.column_names}

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate over rows as dicts. Convenient but slow; prefer columns."""
        for i in range(self._num_rows):
            yield self.row(i)

    def __repr__(self) -> str:
        return f"Table({self._num_rows} rows, schema={self._schema!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._num_rows != other._num_rows:
            return False
        for name in self.column_names:
            left, right = self._columns[name], other._columns[name]
            if self._schema[name].dtype == "float":
                if not np.allclose(left, right, equal_nan=True):
                    return False
            elif not np.array_equal(left, right):
                return False
        return True

    # ------------------------------------------------------------------
    # relational operations
    # ------------------------------------------------------------------

    def filter(self, mask: np.ndarray | Callable[["Table"], np.ndarray]) -> "Table":
        """Keep rows where ``mask`` is True.

        ``mask`` is either a boolean array of length ``num_rows`` or a
        callable receiving the table and returning such an array.
        """
        if callable(mask):
            mask = mask(self)
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self._num_rows,):
            raise SchemaError(
                f"filter mask must be a boolean array of length {self._num_rows}, "
                f"got dtype={mask.dtype} shape={mask.shape}"
            )
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray | Sequence[int]) -> "Table":
        """Return the rows at ``indices`` (gather; duplicates allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        columns = {name: array[indices] for name, array in self._columns.items()}
        return Table(self._schema, columns)

    def head(self, n: int = 10) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._num_rows)))

    def sort(self, by: str | Sequence[str], descending: bool = False) -> "Table":
        """Stable sort by one or more columns."""
        names = [by] if isinstance(by, str) else list(by)
        if not names:
            raise SchemaError("sort requires at least one column")
        keys = [self._sortable(name) for name in reversed(names)]
        order = np.lexsort(keys)
        if descending:
            order = order[::-1]
        return self.take(order)

    def _sortable(self, name: str) -> np.ndarray:
        array = self[name]
        if array.dtype == object:
            return np.asarray([value if value is not None else "" for value in array])
        return array


def _unwrap(value: object) -> object:
    """Convert numpy scalar types to plain python for row dicts."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def concat_tables(tables: Sequence[Table]) -> Table:
    """Concatenate tables with identical schemas, preserving row order."""
    if not tables:
        raise SchemaError("concat_tables requires at least one table")
    schema = tables[0].schema
    for table in tables[1:]:
        if table.schema != schema:
            raise SchemaError(
                f"cannot concat tables with different schemas: "
                f"{schema!r} vs {table.schema!r}"
            )
    columns = {
        name: np.concatenate([table[name] for table in tables])
        for name in schema.names
    }
    return Table(schema, columns)

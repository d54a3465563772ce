"""Typed schemas for columnar tables.

A :class:`Schema` is an ordered collection of :class:`Column` definitions.
Each column carries one of five logical dtypes, which map onto numpy storage:

========  =====================  =========================================
logical   numpy storage          notes
========  =====================  =========================================
int       int64                  nullable values are not supported
float     float64                NaN is the missing value
str       object                 python str or None, shared with the input
bool      bool8                  ``True`` / ``False``
date      datetime64[D]          calendar dates (loan dates, rating dates)
========  =====================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ColumnNotFoundError, SchemaError

LOGICAL_DTYPES = ("int", "float", "str", "bool", "date")

_NUMPY_DTYPES = {
    "int": np.dtype(np.int64),
    "float": np.dtype(np.float64),
    "str": np.dtype(object),
    "bool": np.dtype(np.bool_),
    "date": np.dtype("datetime64[D]"),
}


@dataclass(frozen=True)
class Column:
    """A single column definition: a name and a logical dtype."""

    name: str
    dtype: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be a non-empty string")
        if self.dtype not in LOGICAL_DTYPES:
            raise SchemaError(
                f"column {self.name!r} has unknown dtype {self.dtype!r}; "
                f"expected one of {LOGICAL_DTYPES}"
            )

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store this column."""
        return _NUMPY_DTYPES[self.dtype]


class Schema:
    """An ordered, immutable collection of :class:`Column` definitions."""

    def __init__(self, columns: Iterable[Column | tuple[str, str]]) -> None:
        normalized = []
        for column in columns:
            if isinstance(column, tuple):
                column = Column(*column)
            normalized.append(column)
        names = [column.name for column in normalized]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SchemaError(f"duplicate column names: {sorted(duplicates)}")
        self._columns: tuple[Column, ...] = tuple(normalized)
        self._by_name = {column.name: column for column in self._columns}

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.names) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        fields = ", ".join(f"{c.name}:{c.dtype}" for c in self._columns)
        return f"Schema({fields})"

    def coerce_column(self, name: str, values: Sequence) -> np.ndarray:
        """Coerce ``values`` into the numpy array storage for column ``name``.

        Raises :class:`SchemaError` when a value cannot be represented in the
        column's dtype (for example a string in an int column).
        """
        column = self[name]
        try:
            if column.dtype == "str":
                # fromiter keeps the caller's objects and never broadcasts
                # a nested sequence into a second axis; the check runs over
                # the set of element types, not over the rows.
                array = np.fromiter(values, dtype=object, count=len(values))
                bad = sorted(
                    kind.__name__
                    for kind in set(map(type, array))
                    if kind is not type(None) and not issubclass(kind, str)
                )
                if bad:
                    raise TypeError(f"expected str, got {', '.join(bad)}")
                return array
            if column.dtype == "date":
                return _coerce_dates(values)
            return np.asarray(values, dtype=column.numpy_dtype)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot coerce values into column {name!r} ({column.dtype}): {exc}"
            ) from exc


def _coerce_dates(values: Sequence) -> np.ndarray:
    """Convert dates, ISO strings, or datetime64 values into datetime64[D]."""
    if isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.datetime64):
        return values.astype("datetime64[D]")
    converted = []
    for value in values:
        if isinstance(value, date):
            converted.append(np.datetime64(value.isoformat(), "D"))
        elif isinstance(value, (str, np.datetime64)):
            converted.append(np.datetime64(value, "D"))
        else:
            raise TypeError(
                f"expected date/ISO string/datetime64, got {type(value).__name__}"
            )
    return np.asarray(converted, dtype="datetime64[D]")


def infer_schema(columns: dict[str, Sequence]) -> Schema:
    """Infer a :class:`Schema` from a mapping of column name to values.

    Inference looks at the first non-missing value of each column; empty
    columns default to ``str``.
    """
    inferred = []
    for name, values in columns.items():
        inferred.append(Column(name, _infer_dtype(values)))
    return Schema(inferred)


def _infer_dtype(values: Sequence) -> str:
    if isinstance(values, np.ndarray):
        if np.issubdtype(values.dtype, np.datetime64):
            return "date"
        if values.dtype == np.bool_:
            return "bool"
        if np.issubdtype(values.dtype, np.integer):
            return "int"
        if np.issubdtype(values.dtype, np.floating):
            return "float"
        return "str"
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, np.integer)):
            return "int"
        if isinstance(value, (float, np.floating)):
            return "float"
        if isinstance(value, (date, np.datetime64)):
            return "date"
        return "str"
    return "str"

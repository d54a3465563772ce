"""CSV and columnar npz round-trips for :class:`repro.tables.Table`.

CSV stores a typed ``name:dtype`` header so a table reloads with its exact
schema. These files are how synthetic dataset dumps are persisted and how
the example applications exchange data.

Writes are crash-safe: both writers go through
:func:`repro.resilience.artefacts.atomic_write` (temp file + fsync +
rename), so a crash mid-write leaves the previous file — or nothing —
under the destination name, never a half-written table.
"""

from __future__ import annotations

import csv
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import TableIOError
from repro.resilience.artefacts import atomic_write
from repro.tables.schema import Column, Schema
from repro.tables.table import Table

_MISSING = ""


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a typed ``name:dtype`` header."""
    path = Path(path)
    try:
        with atomic_write(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(f"{c.name}:{c.dtype}" for c in table.schema)
            columns = [table[name] for name in table.column_names]
            for i in range(table.num_rows):
                writer.writerow(_to_cell(col[i]) for col in columns)
    except OSError as exc:
        raise TableIOError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str | Path) -> Table:
    """Read a table previously written by :func:`write_csv`."""
    path = Path(path)
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise TableIOError(f"{path} is empty; expected a typed header")
            schema = _parse_header(header, path)
            buffers: list[list[str]] = [[] for _ in schema]
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(schema):
                    raise TableIOError(
                        f"{path}:{line_no}: expected {len(schema)} cells, "
                        f"got {len(row)}"
                    )
                for buffer, cell in zip(buffers, row):
                    buffer.append(cell)
    except OSError as exc:
        raise TableIOError(f"cannot read CSV from {path}: {exc}") from exc
    columns = {
        column.name: _from_cells(values, column)
        for column, values in zip(schema, buffers)
    }
    return Table(schema, columns)


def write_npz_columns(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write named columnar arrays to ``path`` as an uncompressed ``.npz``.

    The shard format used by the out-of-core corpus: numeric, boolean,
    datetime and fixed-width unicode arrays only — ``object`` columns are
    rejected so the files never require ``allow_pickle`` to load. The write
    is crash-safe (temp file + fsync + rename via :func:`atomic_write`).
    """
    path = Path(path)
    for name, array in columns.items():
        if array.dtype == object:
            raise TableIOError(
                f"column {name!r} has dtype=object; npz shards hold only "
                "numeric/unicode arrays (no pickle)"
            )
    try:
        with atomic_write(path, "wb") as handle:
            np.savez(handle, **columns)
    except OSError as exc:
        raise TableIOError(f"cannot write npz to {path}: {exc}") from exc


def read_npz_columns(
    path: str | Path, names: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Read the column arrays previously written by :func:`write_npz_columns`.

    ``names`` selects a subset of columns; the npz container is lazy, so
    unselected columns are never decompressed into memory — the streaming
    merge's second pass reads only the columns it emits.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            keys = data.files if names is None else list(names)
            return {name: data[name] for name in keys}
    except KeyError as exc:
        raise TableIOError(f"{path} has no column {exc}") from exc
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise TableIOError(f"cannot read npz from {path}: {exc}") from exc


def _parse_header(header: list[str], path: Path) -> Schema:
    columns = []
    for cell in header:
        name, sep, dtype = cell.rpartition(":")
        if not sep or not name:
            raise TableIOError(
                f"{path}: header cell {cell!r} is not in 'name:dtype' form"
            )
        columns.append(Column(name, dtype))
    return Schema(columns)


def _to_cell(value: object) -> str:
    if value is None:
        return _MISSING
    if isinstance(value, np.datetime64):
        return str(value)
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _from_cells(values: list[str], column: Column) -> np.ndarray:
    if column.dtype == "int":
        return np.asarray([int(v) for v in values], dtype=np.int64)
    if column.dtype == "float":
        return np.asarray(
            [float(v) if v != _MISSING else np.nan for v in values], dtype=np.float64
        )
    if column.dtype == "bool":
        return np.asarray([v == "true" for v in values], dtype=np.bool_)
    if column.dtype == "date":
        return np.asarray(values, dtype="datetime64[D]")
    array = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        array[i] = value
    return array

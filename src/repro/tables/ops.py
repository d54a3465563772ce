"""Aggregation functions for :meth:`repro.tables.Table.group_by`.

Each function reduces a numpy column slice to a scalar, so they compose with
``GroupedTable.aggregate``:

    >>> from repro.tables import Table, ops
    >>> t = Table.from_columns({"user": ["a", "a", "b"], "n": [1, 2, 10]})
    >>> agg = t.group_by("user").aggregate({"n_rows": ("n", ops.count)})
    >>> sorted(zip(agg["user"], agg["n_rows"].tolist()))
    [('a', 2), ('b', 1)]
"""

from __future__ import annotations

import numpy as np


def count(values: np.ndarray) -> int:
    """Number of values in the group."""
    return int(len(values))

"""Small tables and interaction matrices for tests."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.interactions import Indexer, InteractionMatrix
from repro.tables import Table


def matrix_from_ids(
    user_ids: Sequence[Hashable],
    item_ids: Sequence[Hashable],
    users: Indexer | None = None,
    items: Indexer | None = None,
) -> InteractionMatrix:
    """Build from parallel user-id / item-id columns; repeats accumulate."""
    users = Indexer(user_ids) if users is None else users
    items = Indexer(item_ids) if items is None else items
    counts = sparse.coo_matrix(
        (
            np.ones(len(user_ids), dtype=np.float64),
            (users.indices_of(user_ids), items.indices_of(item_ids)),
        ),
        shape=(len(users), len(items)),
    )
    return InteractionMatrix(users, items, counts.tocsr())


def matrix_from_pairs(
    pairs: Iterable[tuple[Hashable, Hashable]],
    users: Indexer | None = None,
    items: Indexer | None = None,
) -> InteractionMatrix:
    """Build from (user id, item id) events; repeats accumulate counts."""
    pairs = list(pairs)
    return matrix_from_ids(
        [user for user, _ in pairs], [item for _, item in pairs], users, items
    )


def replace_column(table: Table, name: str, values: Sequence) -> Table:
    """``table`` with column ``name`` replaced by ``values`` (same dtype)."""
    columns = {column: table[column] for column in table.column_names}
    columns[name] = table.schema.coerce_column(name, values)
    return Table(table.schema, columns)

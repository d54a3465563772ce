"""User-item interaction matrices for implicit feedback.

The paper's matrix ``I`` (Section 4, BPR): ``i[u, b] = 1`` when user ``u``
read book ``b``. We additionally keep the multiplicity (times read), which
the Most Read Items baseline needs; ``I`` is its nonzero pattern.

Indexers map external ids (user id strings, book id ints) to contiguous
matrix indices, and are shared between the train/validation/test splits so
an index means the same user or book everywhere.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.errors import DatasetError, UnknownUserError


class Indexer:
    """A bidirectional mapping between external ids and contiguous indices.

    Ids are sorted at construction, so the same id set always produces the
    same index assignment regardless of input order.
    """

    def __init__(self, ids: Iterable[Hashable]) -> None:
        self._ids: tuple = tuple(sorted(set(ids)))
        self._index_of = {value: i for i, value in enumerate(self._ids)}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index_of

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Indexer):
            return NotImplemented
        return self._ids == other._ids

    def __hash__(self) -> int:
        return hash(self._ids)

    def index_of(self, value: Hashable) -> int:
        """Index of an external id; raises :class:`KeyError` when unknown."""
        return self._index_of[value]

    def id_of(self, index: int) -> Hashable:
        """External id at a matrix index."""
        return self._ids[index]

    @property
    def ids(self) -> tuple:
        return self._ids

    def indices_of(self, values: Sequence[Hashable] | np.ndarray) -> np.ndarray:
        """Indices of ``values``, a sequence or a 1-D array, as int64.

        One dict probe per value, read straight from the caller's list or
        column; the first unknown value raises :class:`KeyError`, as
        :meth:`index_of` does.
        """
        return np.fromiter(
            map(self._index_of.__getitem__, values), dtype=np.int64, count=len(values)
        )


class InteractionMatrix:
    """A users × items sparse matrix of reading counts."""

    def __init__(
        self, users: Indexer, items: Indexer, matrix: sparse.csr_matrix
    ) -> None:
        if matrix.shape != (len(users), len(items)):
            raise DatasetError(
                f"matrix shape {matrix.shape} does not match indexers "
                f"({len(users)} users, {len(items)} items)"
            )
        self.users = users
        self.items = items
        self.csr = matrix.tocsr()
        self.csr.sum_duplicates()

    # ------------------------------------------------------------------
    # views and accessors
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_interactions(self) -> int:
        """Number of distinct (user, item) pairs."""
        return self.csr.nnz

    def user_items(self, user_index: int) -> np.ndarray:
        """Indices of the items a user interacted with (``N_u``)."""
        if not 0 <= user_index < self.n_users:
            raise UnknownUserError(user_index)
        start, end = self.csr.indptr[user_index], self.csr.indptr[user_index + 1]
        return self.csr.indices[start:end]

    def user_history_sizes(self) -> np.ndarray:
        """Distinct items per user, for the Fig. 4 group analysis."""
        return np.diff(self.csr.indptr)

    def item_counts(self) -> np.ndarray:
        """Total readings per item (with multiplicity) — popularity."""
        return np.asarray(self.csr.sum(axis=0)).ravel()

    def positive_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All distinct (user index, item index) interactions as two arrays."""
        coo = self.csr.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def interaction_keys(self) -> np.ndarray:
        """Sorted ``user * n_items + item`` keys, one per distinct pair.

        BPR packs them into a bitset once per fit
        (:func:`~repro.core.bpr_kernel.seen_bitset`) so its negative
        sampler can reject sampled "negatives" the user has actually read.
        """
        rows, cols = self.positive_pairs()
        return np.sort(rows * np.int64(self.n_items) + cols)


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
        # The ids are sorted, so bulk lookups can binary-search a cached
        # array instead of doing one dict probe per element.
        self._id_array = self._as_flat_array(self._ids)

    @staticmethod
    def _as_flat_array(values: Sequence[Hashable]) -> np.ndarray | None:
        """A sortable 1-D array view of ``values``, or None if numpy would
        mangle them (e.g. tuples becoming a 2-D array, or fixed-width
        strings truncating trailing NULs so distinct ids collide)."""
        if not values:
            return None
        try:
            array = np.asarray(values)
        except (TypeError, ValueError):
            return None
        if array.ndim != 1 or len(array) != len(values):
            return None
        if array.tolist() != list(values):
            return None
        return array

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

    def indices_of(self, values: Sequence[Hashable]) -> np.ndarray:
        """Vectorised :meth:`index_of` over a sequence.

        Uses one ``np.searchsorted`` over the sorted id array instead of a
        per-element dict lookup; unknown values raise :class:`KeyError`
        exactly like :meth:`index_of`.
        """
        values = list(values)
        if not values:
            return np.empty(0, dtype=np.int64)
        values_array = self._as_flat_array(values)
        if self._id_array is None or values_array is None:
            return np.asarray(
                [self._index_of[value] for value in values], dtype=np.int64
            )
        try:
            positions = np.searchsorted(self._id_array, values_array)
        except (TypeError, ValueError):
            return np.asarray(
                [self._index_of[value] for value in values], dtype=np.int64
            )
        positions = np.minimum(positions, len(self._ids) - 1)
        matched = self._id_array[positions] == values_array
        matched = np.asarray(matched, dtype=bool)
        if not matched.all():
            missing = values[int(np.flatnonzero(~matched)[0])]
            raise KeyError(missing)
        return positions.astype(np.int64, copy=False)


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


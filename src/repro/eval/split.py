"""Train / validation / test splitting (paper Section 5).

The paper's protocol is asymmetric across sources:

- *BCT users* (the recommendation targets): 20 % of each user's readings
  form the **test** set; the remaining 80 % splits again 80/20 into train
  and validation.
- *Anobii users*: 80/20 train/validation, no test set — their role is to
  densify the CF training signal.

Splits are *temporal* per user by default (the most recent readings are
held out), matching how the deployed system would be used: recommend the
next books from the past ones. A uniform-random per-user split is available
for robustness checks.

Readings are de-duplicated to distinct books per user (keeping the first
date) before splitting, so a held-out book is never simultaneously in the
user's training history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.interactions import Indexer, InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import EvaluationError
from repro.rng import derive_rng

SPLIT_ORDERS = ("time", "random")


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of the per-user split."""

    test_fraction: float = 0.2
    val_fraction: float = 0.2
    order: str = "time"
    seed: int | None = None
    """Only used when ``order="random"``."""

    def __post_init__(self) -> None:
        if not 0 < self.test_fraction < 1:
            raise EvaluationError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if not 0 <= self.val_fraction < 1:
            raise EvaluationError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}"
            )
        if self.order not in SPLIT_ORDERS:
            raise EvaluationError(
                f"order must be one of {SPLIT_ORDERS}, got {self.order!r}"
            )


@dataclass(frozen=True)
class DatasetSplit:
    """The result of :func:`split_readings`."""

    train: InteractionMatrix
    val_items: dict[int, np.ndarray]
    """user index -> validation item indices (all users)."""
    test_items: dict[int, np.ndarray]
    """user index -> test item indices (BCT users only)."""
    bct_user_indices: np.ndarray = field(repr=False)

    @property
    def users(self) -> Indexer:
        return self.train.users

    @property
    def items(self) -> Indexer:
        return self.train.items

    def train_sizes(self, user_indices: np.ndarray) -> np.ndarray:
        """Distinct training books per user — the Fig. 4 grouping variable."""
        sizes = self.train.user_history_sizes()
        return sizes[np.asarray(user_indices, dtype=np.int64)]


def split_readings(
    merged: MergedDataset, config: SplitConfig | None = None
) -> DatasetSplit:
    """Split a merged dataset per the paper's protocol (module docstring).

    Runs over index arrays: readings collapse to distinct (user, book)
    pairs with their first-read date and event multiplicity (re-borrows),
    each user's pairs are ordered by (date, book index) — or shuffled
    with one ``rng.permutation`` per user for ``order="random"`` — and
    :func:`_cut_sizes` assigns each user's tail to the holdouts. The
    split is decided on distinct books; multiplicity flows into the
    training matrix so popularity reflects loan events, as in the raw
    Loans table. The holdout dicts list users in order of their first
    reading.
    """
    config = config or SplitConfig()
    users = Indexer(merged.user_ids)
    items = Indexer(int(b) for b in merged.books["book_id"])
    readings = merged.readings
    user_of = users.indices_of(readings["user_id"])
    item_of = items.indices_of(readings["book_id"])
    dates = np.asarray(readings["read_date"], dtype="datetime64[D]").view(np.int64)

    # Distinct pairs, each with its earliest date and its reading count.
    pair_keys = user_of * np.int64(len(items)) + item_of
    by_pair = np.lexsort((dates, pair_keys))
    _, starts, multiplicity = np.unique(
        pair_keys[by_pair], return_index=True, return_counts=True
    )
    first = by_pair[starts]
    pair_user, pair_item, pair_date = user_of[first], item_of[first], dates[first]

    # Users in order of their first reading; each one's pairs form a
    # contiguous segment ordered by (date, book index).
    present, first_read = np.unique(user_of, return_index=True)
    appearance = present[np.argsort(first_read)]
    rank = np.empty(len(users), dtype=np.int64)
    rank[appearance] = np.arange(len(appearance))
    order = np.lexsort((pair_item, pair_date, rank[pair_user]))
    sizes = np.bincount(rank[pair_user], minlength=len(appearance))
    segment_start = np.cumsum(sizes) - sizes
    if config.order == "random" and len(order):
        rng = derive_rng(config.seed, "split")
        order = order[np.concatenate([
            start + rng.permutation(int(size))
            for start, size in zip(segment_start, sizes)
        ])]
    segment = np.repeat(np.arange(len(appearance)), sizes)
    position = np.arange(len(order)) - segment_start[segment]

    is_bct = np.zeros(len(users), dtype=bool)
    is_bct[users.indices_of(merged.bct_user_ids)] = True
    test_fraction = np.where(is_bct[appearance], config.test_fraction, 0.0)
    n_train, n_val = _cut_sizes(sizes, test_fraction, config.val_fraction)
    in_train = position < n_train[segment]
    in_val = ~in_train & (position < (n_train + n_val)[segment])

    ordered_item = pair_item[order]
    train_pairs = order[in_train]
    counts = sparse.coo_matrix(
        (
            multiplicity[train_pairs].astype(np.float64),
            (pair_user[train_pairs], pair_item[train_pairs]),
        ),
        shape=(len(users), len(items)),
    )
    return DatasetSplit(
        train=InteractionMatrix(users, items, counts.tocsr()),
        val_items=_holdout(appearance, segment, ordered_item, in_val),
        test_items=_holdout(
            appearance, segment, ordered_item, ~in_train & ~in_val
        ),
        bct_user_indices=np.flatnonzero(is_bct).astype(np.int64),
    )


def _holdout(
    appearance: np.ndarray,
    segment: np.ndarray,
    item: np.ndarray,
    mask: np.ndarray,
) -> dict[int, np.ndarray]:
    """user index -> sorted held-out item indices, for the masked pairs.

    Users come in ``appearance`` order and only those with at least one
    held-out pair get an entry.
    """
    segment, item = segment[mask], item[mask]
    by_user = np.lexsort((item, segment))
    segment, item = segment[by_user], item[by_user]
    owners, starts = np.unique(segment, return_index=True)
    return {
        int(appearance[owner]): part
        for owner, part in zip(owners, np.split(item, starts[1:]))
    }


def _cut_sizes(
    n: np.ndarray, test_fraction: np.ndarray, val_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Train and validation sizes of ordered lists of ``n`` readings.

    The most recent ``test_fraction`` goes to test, then the most recent
    ``val_fraction`` of the remainder to validation; the train part is
    the ``n_train`` oldest readings, validation the next ``n_val`` and
    test the rest. Every split keeps at least one training item;
    holdouts get at least one item only when the list is long enough to
    afford it. Element-wise over arrays (or scalars) of list lengths and
    test fractions.
    """
    n = np.asarray(n, dtype=np.int64)
    test_fraction = np.asarray(test_fraction, dtype=np.float64)
    n_test = (n * test_fraction).astype(np.int64)
    n_test = np.where((test_fraction > 0) & (n_test == 0) & (n >= 3), 1, n_test)
    remaining = n - n_test
    n_val = (remaining * val_fraction).astype(np.int64)
    if val_fraction > 0:
        n_val = np.where((n_val == 0) & (remaining >= 3), 1, n_val)
    short = n - n_test - n_val < 1
    n_train = np.where(short, 1, n - n_test - n_val)
    n_val = np.where(short, np.maximum(0, remaining - 1), n_val)
    return n_train, n_val


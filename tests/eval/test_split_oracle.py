"""``split_readings`` against the per-reading loop it replaced.

``_loop_split`` below is the earlier implementation of
:func:`repro.eval.split.split_readings`, frozen verbatim (with its own
copy of the list cut): a dict entry per (user, book) pair and a Python
``sorted`` per user. The array version must return the same split —
the same training CSR, the same validation and test dicts in the same
insertion order, and the same RNG calls for ``order="random"``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interactions import Indexer
from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    BOOK_GENRES_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.eval.split import DatasetSplit, SplitConfig, _cut_sizes, split_readings
from repro.rng import derive_rng
from repro.tables import Table
from tests.factories import matrix_from_pairs


def _loop_split(merged, config=None):
    """The per-reading loop of the earlier ``split_readings`` (frozen)."""
    config = config or SplitConfig()
    users = Indexer(merged.user_ids)
    items = Indexer(int(b) for b in merged.books["book_id"])
    bct_users = set(merged.bct_user_ids)

    first_date = {}
    event_count = {}
    for user_id, book_id, read_date in zip(
        merged.readings["user_id"],
        merged.readings["book_id"],
        merged.readings["read_date"],
    ):
        key = (users.index_of(str(user_id)), items.index_of(int(book_id)))
        event_count[key] = event_count.get(key, 0) + 1
        if key not in first_date or read_date < first_date[key]:
            first_date[key] = read_date

    per_user = {}
    for (user_index, item_index), date in first_date.items():
        per_user.setdefault(user_index, []).append((date, item_index))

    rng = derive_rng(config.seed, "split") if config.order == "random" else None
    train_pairs = []
    val_items = {}
    test_items = {}
    for user_index, dated in per_user.items():
        ordered = [item for _, item in sorted(dated, key=lambda p: (p[0], p[1]))]
        if rng is not None:
            ordered = [ordered[i] for i in rng.permutation(len(ordered))]
        is_bct = users.id_of(user_index) in bct_users
        train_part, val_part, test_part = _loop_cut(
            ordered, config.test_fraction if is_bct else 0.0, config.val_fraction
        )
        user_id = str(users.id_of(user_index))
        for item_index in train_part:
            multiplicity = event_count[(user_index, item_index)]
            train_pairs.extend(
                [(user_id, items.id_of(item_index))] * multiplicity
            )
        if val_part:
            val_items[user_index] = np.asarray(sorted(val_part), dtype=np.int64)
        if test_part:
            test_items[user_index] = np.asarray(sorted(test_part), dtype=np.int64)

    train = matrix_from_pairs(train_pairs, users=users, items=items)
    bct_indices = np.asarray(
        sorted(users.index_of(u) for u in bct_users), dtype=np.int64
    )
    return DatasetSplit(
        train=train,
        val_items=val_items,
        test_items=test_items,
        bct_user_indices=bct_indices,
    )


def _loop_cut(ordered, test_fraction, val_fraction):
    n = len(ordered)
    n_test = int(n * test_fraction)
    if test_fraction > 0 and n_test == 0 and n >= 3:
        n_test = 1
    remaining = n - n_test
    n_val = int(remaining * val_fraction)
    if val_fraction > 0 and n_val == 0 and remaining >= 3:
        n_val = 1
    n_train = n - n_test - n_val
    if n_train < 1:
        n_train, n_val = 1, max(0, remaining - 1)
    train = ordered[:n_train]
    val = ordered[n_train:n_train + n_val]
    test = ordered[n_train + n_val:]
    return train, val, test


def assert_same_split(actual: DatasetSplit, expected: DatasetSplit) -> None:
    """Field-by-field equality, dtypes and dict insertion order included."""
    assert actual.users == expected.users
    assert actual.items == expected.items
    for name in ("indptr", "indices", "data"):
        got = getattr(actual.train.csr, name)
        want = getattr(expected.train.csr, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    for name in ("val_items", "test_items"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert list(got) == list(want), name
        for user in want:
            assert got[user].dtype == want[user].dtype
            assert np.array_equal(got[user], want[user]), (name, user)
    assert actual.bct_user_indices.dtype == expected.bct_user_indices.dtype
    assert np.array_equal(actual.bct_user_indices, expected.bct_user_indices)


def _merged(book_ids, readings) -> MergedDataset:
    """A merged dataset over ``book_ids`` from (user, book, day, source) rows."""
    books = Table.from_columns(
        {
            "book_id": list(book_ids),
            "author": ["a"] * len(book_ids),
            "title": ["t"] * len(book_ids),
            "plot": [""] * len(book_ids),
            "keywords": [""] * len(book_ids),
        },
        schema=MERGED_BOOKS_SCHEMA,
    )
    table = Table.from_columns(
        {
            "user_id": [row[0] for row in readings],
            "book_id": [row[1] for row in readings],
            "read_date": np.datetime64("2020-01-01", "D")
            + np.asarray([row[2] for row in readings], dtype=np.int64),
            "source": [row[3] for row in readings],
        },
        schema=READINGS_SCHEMA,
    )
    genres = Table.empty(BOOK_GENRES_SCHEMA)
    return MergedDataset(books=books, readings=table, genres=genres)


@st.composite
def merged_datasets(draw):
    """Small merged datasets rich in the split's corner cases.

    Few books and few days make re-borrows (multiplicity > 1) and
    same-date ties common; a handful of readings over up to eight users
    gives users with one to three readings; a user is a BCT user when
    any of its readings comes from BCT, so users whose readings are all
    Anobii ratings occur too. Book ids are sparse and unordered so the
    item indexer's sort matters.
    """
    book_ids = draw(
        st.lists(
            st.integers(0, 10_000), min_size=1, max_size=8, unique=True
        )
    )
    user_ids = [f"u{index}" for index in range(draw(st.integers(1, 8)))]
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(user_ids),
                st.sampled_from(book_ids),
                st.integers(0, 4),
                st.sampled_from(["bct", "anobii"]),
            ),
            max_size=40,
        )
    )
    return _merged(book_ids, rows)


split_configs = st.builds(
    SplitConfig,
    test_fraction=st.sampled_from([0.2, 0.5, 1 / 3, 0.9]),
    val_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.75]),
    order=st.sampled_from(["time", "random"]),
    seed=st.integers(0, 2**16),
)


class TestLoopOracle:
    def test_cut_sizes_match_the_list_cut(self):
        lengths = np.arange(1, 60)
        for test_fraction in (0.0, 0.2, 1 / 3, 0.5, 0.9):
            for val_fraction in (0.0, 0.2, 0.5, 0.75):
                n_train, n_val = _cut_sizes(
                    lengths, np.full(len(lengths), test_fraction), val_fraction
                )
                for at, n in enumerate(lengths):
                    train, val, _ = _loop_cut(
                        list(range(n)), test_fraction, val_fraction
                    )
                    assert (n_train[at], n_val[at]) == (len(train), len(val))

    @settings(deadline=None, max_examples=150)
    @given(merged=merged_datasets(), config=split_configs)
    def test_matches_the_loop_on_generated_datasets(self, merged, config):
        assert_same_split(split_readings(merged, config), _loop_split(merged, config))

    @pytest.mark.parametrize(
        "config",
        [
            SplitConfig(),
            SplitConfig(order="random", seed=7),
            SplitConfig(test_fraction=0.5, val_fraction=0.0),
        ],
        ids=["time", "random", "half-test-no-val"],
    )
    def test_matches_the_loop_on_the_tiny_world(self, tiny_merged, config):
        assert_same_split(
            split_readings(tiny_merged, config), _loop_split(tiny_merged, config)
        )

    def test_reborrows_ties_and_anobii_only_users(self):
        """One hand-built case of each corner, checked field by field."""
        merged = _merged(
            [30, 10, 20],
            [
                ("b", 20, 2, "bct"),
                ("a", 30, 1, "anobii"),
                ("b", 10, 2, "bct"),   # same date as book 20: tie on date
                ("b", 20, 0, "bct"),   # re-borrow, earlier date
                ("b", 30, 3, "bct"),
                ("a", 10, 0, "anobii"),
                ("a", 20, 4, "anobii"),
            ],
        )
        split = split_readings(merged, SplitConfig(test_fraction=0.34))
        assert_same_split(split, _loop_split(merged, SplitConfig(test_fraction=0.34)))
        b, a = split.users.index_of("b"), split.users.index_of("a")
        assert list(split.test_items) == [b]   # Anobii-only "a" has no test
        assert split.train.csr[b, split.items.index_of(20)] == 2.0

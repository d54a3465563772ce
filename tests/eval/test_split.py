"""Tests for the per-user temporal split."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    BOOK_GENRES_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.errors import EvaluationError
from repro.eval.split import SplitConfig, _cut_sizes, split_readings
from repro.tables import Table


def _cut(ordered, test_fraction, val_fraction):
    """One ordered list cut into train / val / test by ``_cut_sizes``."""
    n_train, n_val = (
        int(size) for size in _cut_sizes(len(ordered), test_fraction, val_fraction)
    )
    return (
        ordered[:n_train],
        ordered[n_train:n_train + n_val],
        ordered[n_train + n_val:],
    )


class TestSplitConfigValidation:
    def test_test_fraction_bounds(self):
        with pytest.raises(EvaluationError):
            SplitConfig(test_fraction=0.0)
        with pytest.raises(EvaluationError):
            SplitConfig(test_fraction=1.0)

    def test_val_fraction_bounds(self):
        with pytest.raises(EvaluationError):
            SplitConfig(val_fraction=1.0)

    def test_order_values(self):
        with pytest.raises(EvaluationError):
            SplitConfig(order="chronological")


class TestCut:
    def test_standard_fractions(self):
        train, val, test = _cut(list(range(20)), 0.2, 0.2)
        assert len(test) == 4
        assert len(val) == 3  # 20% of the remaining 16
        assert len(train) == 13

    def test_holdouts_are_most_recent(self):
        train, val, test = _cut(list(range(10)), 0.2, 0.2)
        assert test == [8, 9]
        assert val == [7]  # 20% of the remaining 8, floored
        assert max(train) < min(val) < min(test)

    def test_tiny_list_keeps_a_training_item(self):
        train, val, test = _cut([1, 2], 0.2, 0.2)
        assert len(train) >= 1

    def test_minimum_holdout_for_three_items(self):
        train, val, test = _cut([1, 2, 3], 0.2, 0.2)
        assert len(test) == 1

    def test_no_test_for_anobii_users(self):
        train, val, test = _cut(list(range(10)), 0.0, 0.2)
        assert test == []
        assert len(val) == 2

    def test_partition_complete(self):
        items = list(range(17))
        train, val, test = _cut(items, 0.2, 0.2)
        assert sorted(train + val + test) == items


class TestSplitReadings:
    def test_only_bct_users_have_test(self, tiny_split):
        for user_index in tiny_split.test_items:
            assert str(tiny_split.users.id_of(user_index)).startswith("bct_")

    def test_every_bct_user_has_test(self, tiny_split, tiny_merged):
        assert len(tiny_split.test_items) == len(tiny_merged.bct_user_ids)

    def test_anobii_users_have_validation(self, tiny_split):
        anobii_with_val = sum(
            1
            for user in tiny_split.val_items
            if str(tiny_split.users.id_of(user)).startswith("anobii_")
        )
        assert anobii_with_val > 0

    def test_holdouts_disjoint_from_train(self, tiny_split):
        for user_index, held in list(tiny_split.test_items.items())[:50]:
            train_items = set(tiny_split.train.user_items(user_index).tolist())
            assert not train_items & set(held.tolist())
        for user_index, held in list(tiny_split.val_items.items())[:50]:
            train_items = set(tiny_split.train.user_items(user_index).tolist())
            assert not train_items & set(held.tolist())

    def test_val_test_disjoint(self, tiny_split):
        for user_index, test in tiny_split.test_items.items():
            val = tiny_split.val_items.get(user_index)
            if val is not None:
                assert not set(val.tolist()) & set(test.tolist())

    def test_test_items_are_latest_reads(self, tiny_split, tiny_merged):
        """Temporal split: every test book's first read date is >= every
        train book's first read date for that user."""
        first_date = {}
        for user, book, day in zip(
            tiny_merged.readings["user_id"],
            tiny_merged.readings["book_id"],
            tiny_merged.readings["read_date"],
        ):
            key = (str(user), int(book))
            if key not in first_date or day < first_date[key]:
                first_date[key] = day
        checked = 0
        for user_index, test in list(tiny_split.test_items.items())[:30]:
            user_id = str(tiny_split.users.id_of(user_index))
            train_items = tiny_split.train.user_items(user_index)
            train_dates = [
                first_date[(user_id, int(tiny_split.items.id_of(int(i))))]
                for i in train_items
            ]
            test_dates = [
                first_date[(user_id, int(tiny_split.items.id_of(int(i))))]
                for i in test
            ]
            assert max(train_dates) <= min(test_dates)
            checked += 1
        assert checked > 0

    def test_train_keeps_event_multiplicity(self, tiny_split, tiny_merged):
        """Re-borrowed train books contribute their full event count."""
        assert tiny_split.train.item_counts().sum() > tiny_split.train.n_interactions

    def test_random_order_split_differs(self, tiny_merged):
        temporal = split_readings(tiny_merged, SplitConfig(order="time"))
        shuffled = split_readings(
            tiny_merged, SplitConfig(order="random", seed=3)
        )
        differing = sum(
            1
            for user in temporal.test_items
            if set(temporal.test_items[user].tolist())
            != set(shuffled.test_items[user].tolist())
        )
        assert differing > 0

    def test_train_sizes(self, tiny_split):
        users = np.asarray(sorted(tiny_split.test_items))
        sizes = tiny_split.train_sizes(users)
        assert (sizes >= 1).all()


def _hashed_id_dataset(n_readings: int, n_users: int, n_books: int) -> MergedDataset:
    """Random readings of patrons with 64-character ids (SHA-256 hex)."""
    rng = np.random.default_rng(5)
    ids = np.asarray(
        [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n_users)],
        dtype=object,
    )
    book_ids = np.arange(1, n_books + 1, dtype=np.int64)
    users = rng.integers(0, n_users, n_readings)
    readings = Table.from_columns(
        {
            "user_id": ids[users],
            "book_id": book_ids[rng.integers(0, n_books, n_readings)],
            "read_date": np.datetime64("2020-01-01")
            + rng.integers(0, 700, n_readings).astype("timedelta64[D]"),
            "source": np.asarray(["bct", "anobii"], dtype=object)[users % 2],
        },
        schema=READINGS_SCHEMA,
    )
    books = Table.from_columns(
        {
            "book_id": book_ids,
            **{name: [""] * n_books for name in ("author", "title", "plot", "keywords")},
        },
        schema=MERGED_BOOKS_SCHEMA,
    )
    return MergedDataset(
        books=books, readings=readings, genres=Table.empty(BOOK_GENRES_SCHEMA)
    )


class TestSplitMemory:
    def test_working_memory_per_reading_is_a_few_int64_columns(self):
        """The split holds its readings as int64 columns (about 20 at its
        peak) and makes no Python object per reading, so what it
        allocates per reading does not grow with the length of the ids."""
        merged = _hashed_id_dataset(n_readings=40_000, n_users=1_000, n_books=300)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            split_readings(merged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / merged.n_readings < 24 * 8

"""Tests for the BCT/Anobii/Merged dataset containers and their filters."""

import numpy as np
import pytest

from repro.datasets.anobii import AnobiiDataset, italian_books
from repro.datasets.bct import BCTDataset, italian_monographs
from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    ANOBII_ITEMS_SCHEMA,
    ANOBII_RATINGS_SCHEMA,
    BCT_BOOKS_SCHEMA,
    BCT_LOANS_SCHEMA,
    BOOK_GENRES_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.errors import DatasetError
from repro.tables import Table
from tests.factories import replace_column


class TestBCTDataset:
    def test_wrong_schema_rejected(self, tiny_sources):
        with pytest.raises(DatasetError, match="schema"):
            BCTDataset(books=tiny_sources.bct.loans, loans=tiny_sources.bct.loans)

    def test_filter_keeps_only_italian_monographs(self, tiny_sources):
        books = tiny_sources.bct.books
        filtered = books.filter(italian_monographs(books))
        assert set(filtered["material"].tolist()) <= {"monograph", "manuscript"}
        assert set(filtered["language"].tolist()) == {"ita"}
        assert filtered.num_rows < books.num_rows

    def test_filter_drops_orphaned_loans(self, tiny_sources, tiny_merge_report):
        """The merge keeps exactly the loans of the kept books."""
        bct = tiny_sources.bct
        kept = set(bct.books.filter(italian_monographs(bct.books))["book_id"].tolist())
        expected = sum(int(book_id) in kept for book_id in bct.loans["book_id"])
        assert tiny_merge_report.cleaning[0].events_after == expected < bct.n_loans

    def test_validate_catches_dangling_loans(self, tiny_sources):
        books = tiny_sources.bct.books.head(1)
        dataset = BCTDataset(books=books, loans=tiny_sources.bct.loans)
        with pytest.raises(DatasetError, match="unknown books"):
            dataset.validate()

    def test_validate_catches_duplicate_books(self, tiny_sources):
        books = tiny_sources.bct.books
        duplicated = books.take(np.asarray([0, 0]))
        dataset = BCTDataset(
            books=duplicated,
            loans=tiny_sources.bct.loans.head(0),
        )
        with pytest.raises(DatasetError, match="duplicate"):
            dataset.validate()


class TestAnobiiDataset:
    def test_filter_italian_books(self, tiny_sources):
        items = tiny_sources.anobii.items
        filtered = items.filter(italian_books(items))
        assert filtered["is_book"].all()
        assert set(filtered["language"].tolist()) == {"ita"}

    def test_positive_feedback_threshold(self, tiny_sources):
        """Three stars is the lowest rating the merge keeps."""
        from repro.pipeline import build_merged_dataset
        from tests.conftest import TINY_MERGE

        anobii = tiny_sources.anobii

        def ratings_kept(stars):
            ratings = replace_column(
                anobii.ratings, "rating",
                np.full(anobii.n_ratings, stars, dtype=np.int64),
            )
            _, report = build_merged_dataset(
                tiny_sources.bct,
                AnobiiDataset(items=anobii.items, ratings=ratings),
                TINY_MERGE,
            )
            return report.cleaning[1].events_after

        assert ratings_kept(3) > 0
        assert ratings_kept(2) == 0

    def test_validate_catches_out_of_range_rating(self, tiny_sources):
        ratings = replace_column(tiny_sources.anobii.ratings.head(1), "rating", [7])
        dataset = AnobiiDataset(items=tiny_sources.anobii.items, ratings=ratings)
        with pytest.raises(DatasetError, match="outside"):
            dataset.validate()


class TestMergedDataset:
    def test_validates(self, tiny_merged):
        tiny_merged.validate()

    def test_sizes_consistent(self, tiny_merged):
        assert tiny_merged.n_books == tiny_merged.books.num_rows
        assert tiny_merged.n_readings == tiny_merged.readings.num_rows
        assert tiny_merged.n_users == len(tiny_merged.user_ids)

    def test_bct_users_subset(self, tiny_merged):
        assert set(tiny_merged.bct_user_ids) <= set(tiny_merged.user_ids)
        assert all(u.startswith("bct_") for u in tiny_merged.bct_user_ids)

    def test_genre_probabilities_sum_to_one(self, tiny_merged):
        for probs in tiny_merged.genre_probabilities.values():
            assert sum(probs.values()) == pytest.approx(1.0)

    def test_restrict_to_sources_bct(self, tiny_merged):
        bct_only = tiny_merged.restrict_to_sources({"bct"})
        assert set(bct_only.readings["source"].tolist()) == {"bct"}
        assert bct_only.n_books == tiny_merged.n_books  # catalogue untouched
        bct_only.validate()

    def test_restrict_to_sources_unknown(self, tiny_merged):
        with pytest.raises(DatasetError, match="unknown sources"):
            tiny_merged.restrict_to_sources({"goodreads"})

    def test_validate_catches_bad_genre_probabilities(self, tiny_merged):
        bad_genres = Table.from_columns(
            {
                "book_id": [int(tiny_merged.books["book_id"][0])],
                "genre": ["Comics"],
                "probability": [0.5],
            },
            schema=BOOK_GENRES_SCHEMA,
        )
        dataset = MergedDataset(
            books=tiny_merged.books,
            readings=tiny_merged.readings,
            genres=bad_genres,
        )
        with pytest.raises(DatasetError, match="not summing to 1"):
            dataset.validate()

    def test_validate_catches_unknown_reading_book(self, tiny_merged):
        readings = replace_column(tiny_merged.readings.head(1), "book_id", [-1])
        dataset = MergedDataset(
            books=tiny_merged.books, readings=readings, genres=tiny_merged.genres
        )
        with pytest.raises(DatasetError, match="unknown books"):
            dataset.validate()

    def test_readings_per_user_totals(self, tiny_merged):
        table = tiny_merged.readings_per_user()
        assert table["n_readings"].sum() == tiny_merged.n_readings

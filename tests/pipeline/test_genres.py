"""Tests for the genre cleaning and aggregation pipeline."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.anobii import italian_books
from repro.errors import PipelineError
from repro.pipeline.genres import (
    GenreModel,
    aggregate_genres,
    build_genre_model,
    drop_extreme_genres,
    entropy,
    top_genres,
)


class TestEntropy:
    def test_uniform_distribution(self):
        counts = {"a": 10, "b": 10, "c": 10, "d": 10}
        assert entropy(counts) == pytest.approx(math.log(4))

    def test_degenerate_distribution(self):
        assert entropy({"a": 100}) == 0.0

    def test_empty(self):
        assert entropy({}) == 0.0

    def test_zero_counts_ignored(self):
        assert entropy({"a": 5, "b": 0}) == 0.0


class TestDropExtremeGenres:
    def test_drops_ubiquitous(self):
        votes = {i: {"Everywhere": 1, "Niche": 1} for i in range(10)}
        votes[0] = {"Everywhere": 1}
        cleaned, dropped = drop_extreme_genres(
            votes, max_book_share=0.8, min_books=1
        )
        assert "Everywhere" in dropped
        assert all("Everywhere" not in v for v in cleaned.values())

    def test_drops_rare(self):
        votes = {i: {"Common": 1} for i in range(10)}
        votes[0]["OneOff"] = 1
        cleaned, dropped = drop_extreme_genres(
            votes, max_book_share=1.0, min_books=3
        )
        assert dropped == ("OneOff",)

    def test_invalid_share(self):
        with pytest.raises(PipelineError):
            drop_extreme_genres({}, max_book_share=0.0)

    def test_books_preserved(self):
        votes = {1: {"A": 1}, 2: {"A": 2, "B": 1}}
        cleaned, _ = drop_extreme_genres(votes, max_book_share=1.0, min_books=1)
        assert set(cleaned) == {1, 2}


class TestAggregateGenres:
    def test_perfect_duplicates_merge(self):
        # Two labels always voted together on the same books.
        votes = {i: {"Comics": 5, "Manga": 4} for i in range(20)}
        votes.update({100 + i: {"Poetry": 3} for i in range(20)})
        canonical, trace = aggregate_genres(votes)
        assert canonical["Manga"] == canonical["Comics"]
        assert canonical["Poetry"] == "Poetry"
        assert len(trace) == 1

    def test_disjoint_labels_never_merge(self):
        votes = {i: {"A": 1} for i in range(10)}
        votes.update({100 + i: {"B": 1} for i in range(10)})
        canonical, trace = aggregate_genres(votes)
        assert canonical["A"] != canonical["B"]
        assert trace == ()

    def test_low_affinity_not_merged(self):
        votes = {}
        for i in range(20):
            votes[i] = {"A": 1}
        for i in range(20, 40):
            votes[i] = {"B": 1}
        votes[50] = {"A": 1, "B": 1}  # a single co-occurrence
        canonical, _ = aggregate_genres(votes, min_affinity=0.5)
        assert canonical["A"] != canonical["B"]

    def test_transitive_merge(self):
        # A~B and B~C co-occur; all three should collapse to one label.
        votes = {}
        for i in range(20):
            votes[i] = {"A": 2, "B": 2, "C": 2}
        canonical, _ = aggregate_genres(votes)
        assert len({canonical["A"], canonical["B"], canonical["C"]}) == 1

    def test_keeps_more_frequent_label(self):
        votes = {i: {"Big": 3, "Small": 2} for i in range(10)}
        for i in range(10, 15):
            votes[i] = {"Big": 1}
        canonical, _ = aggregate_genres(votes)
        assert canonical["Small"] == "Big"


class TestTopGenres:
    def test_probabilities_sum_to_one(self):
        votes = {1: {"A": 6, "B": 3, "C": 1}}
        result = top_genres(votes, {"A": "A", "B": "B", "C": "C"})
        assert sum(p for _, p in result[1]) == pytest.approx(1.0)

    def test_top_k_limit(self):
        votes = {1: {g: 10 - i for i, g in enumerate("ABCDEFG")}}
        mapping = {g: g for g in "ABCDEFG"}
        result = top_genres(votes, mapping, top_k=4)
        assert len(result[1]) == 4
        assert result[1][0][0] == "A"  # highest votes first

    def test_votes_merge_through_mapping(self):
        votes = {1: {"Comics": 3, "Manga": 3, "Poetry": 2}}
        mapping = {"Comics": "Comics", "Manga": "Comics", "Poetry": "Poetry"}
        result = top_genres(votes, mapping)
        probs = dict(result[1])
        assert probs["Comics"] == pytest.approx(6 / 8)

    def test_books_without_kept_genres_omitted(self):
        votes = {1: {"Dropped": 5}}
        assert top_genres(votes, {}) == {}

    def test_invalid_top_k(self):
        with pytest.raises(PipelineError):
            top_genres({}, {}, top_k=0)


class TestBuildGenreModel:
    def test_end_to_end_on_tiny_world(self, tiny_sources):
        items = tiny_sources.anobii.items
        model = build_genre_model(items.filter(italian_books(items)))
        # Ubiquitous labels must be gone.
        assert set(model.dropped_genres) >= {
            "Fiction And Literature", "Self Help",
        }
        # Aggregation should land near the 12 latent coarse genres.
        assert 6 <= len(model.canonical_genres) <= 20
        for genres in model.book_genres.values():
            assert 1 <= len(genres) <= 4
            assert sum(p for _, p in genres) == pytest.approx(1.0)

    def test_sibling_subgenres_collapse(self, tiny_sources):
        items = tiny_sources.anobii.items
        model = build_genre_model(items.filter(italian_books(items)))
        canonical = model.canonical_of
        if "Comics" in canonical and "Graphic Novels" in canonical:
            assert canonical["Comics"] == canonical["Graphic Novels"]

    def test_to_table_schema(self, tiny_sources):
        items = tiny_sources.anobii.items
        model = build_genre_model(items.filter(italian_books(items)))
        table = model.to_table()
        assert table.column_names == ("book_id", "genre", "probability")
        assert table.num_rows >= len(model.book_genres)


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.dictionaries(
            st.sampled_from(["A", "B", "C", "D", "E"]),
            st.integers(min_value=1, max_value=9),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=25,
    )
)
def test_top_genres_always_normalised(votes):
    """Property: any vote structure yields per-book distributions."""
    mapping = {g: g for g in "ABCDE"}
    result = top_genres(votes, mapping)
    for book, genres in result.items():
        assert sum(p for _, p in genres) == pytest.approx(1.0)
        probabilities = [p for _, p in genres]
        assert probabilities == sorted(probabilities, reverse=True)

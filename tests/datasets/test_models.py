"""Tests for repro.datasets.models (schemas, natural keys, rating bounds)."""

import json

import pytest

from repro.datasets.anobii import AnobiiDataset
from repro.datasets.models import (
    ANOBII_ITEMS_SCHEMA,
    ANOBII_RATINGS_SCHEMA,
    BCT_BOOKS_SCHEMA,
    BCT_LOANS_SCHEMA,
    match_key,
    parse_genre_votes,
)
from repro.errors import DatasetError
from tests.factories import replace_column


class TestSchemas:
    def test_bct_books_columns(self):
        assert BCT_BOOKS_SCHEMA.names == (
            "book_id", "author", "title", "material", "language"
        )

    def test_bct_loans_has_date(self):
        assert BCT_LOANS_SCHEMA["loan_date"].dtype == "date"

    def test_anobii_items_metadata_fields(self):
        for field in ("plot", "keywords", "genre_votes"):
            assert field in ANOBII_ITEMS_SCHEMA

    def test_anobii_ratings_columns(self):
        assert ANOBII_RATINGS_SCHEMA["rating"].dtype == "int"


def one_rating(anobii, stars):
    """The Anobii dump cut to one rating of ``stars`` stars."""
    ratings = replace_column(anobii.ratings.head(1), "rating", [stars])
    return AnobiiDataset(items=anobii.items, ratings=ratings)


class TestRecords:
    def test_rating_bounds_enforced(self, tiny_sources):
        for stars in (0, 6):
            with pytest.raises(DatasetError, match="ratings outside"):
                one_rating(tiny_sources.anobii, stars).validate()

    def test_rating_valid(self, tiny_sources):
        for stars in (1, 5):
            one_rating(tiny_sources.anobii, stars).validate()


class TestParseGenreVotes:
    def test_roundtrip(self):
        votes = {"Comics": 10, "Manga": 3}
        assert parse_genre_votes(json.dumps(votes)) == votes

    def test_empty_string(self):
        assert parse_genre_votes("") == {}

    def test_coerces_counts_to_int(self):
        assert parse_genre_votes('{"Comics": "7"}') == {"Comics": 7}


class TestMatchKey:
    def test_case_insensitive(self):
        assert match_key("Il Nome", "Eco") == match_key("il nome", "ECO")

    def test_whitespace_collapsed(self):
        assert match_key("il  nome ", "eco") == match_key("il nome", "eco")

    def test_punctuation_stripped(self):
        assert match_key("l'isola, misteriosa", "verne") == match_key(
            "lisola misteriosa", "verne"
        )

    def test_title_and_author_both_matter(self):
        assert match_key("a", "b") != match_key("a", "c")
        assert match_key("a", "b") != match_key("x", "b")

    def test_separator_prevents_bleeding(self):
        # (title="ab", author="c") must differ from (title="a", author="bc")
        assert match_key("ab", "c") != match_key("a", "bc")

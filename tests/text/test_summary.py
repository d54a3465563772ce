"""Tests for metadata-summary construction."""

import pytest

from repro.errors import ConfigurationError
from repro.text.summary import (
    MetadataSummaryBuilder,
    render_genres,
)


class TestRenderGenres:
    def test_repeats_proportional_to_probability(self):
        rendered = render_genres({"Comics": 0.75, "Poetry": 0.25})
        tokens = rendered.split()
        assert tokens.count("Comics") == 3
        assert tokens.count("Poetry") == 1

    def test_minimum_one_repeat(self):
        rendered = render_genres({"Comics": 0.95, "Poetry": 0.05})
        assert "Poetry" in rendered

    def test_deterministic_order(self):
        assert render_genres({"B": 0.5, "A": 0.5}) == render_genres(
            {"A": 0.5, "B": 0.5}
        )

    def test_empty(self):
        assert render_genres({}) == ""


class TestBuilder:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metadata"):
            MetadataSummaryBuilder(("isbn",))

    def test_empty_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            MetadataSummaryBuilder(())

    def test_build_one_selects_fields(self):
        builder = MetadataSummaryBuilder(("author", "title"))
        summary = builder.build_one(
            title="Il Nome", author="Eco", plot="secret plot"
        )
        assert "Eco" in summary and "Il Nome" in summary
        assert "secret" not in summary

    def test_build_one_genres_only(self):
        builder = MetadataSummaryBuilder(("genres",))
        summary = builder.build_one(genres={"Comics": 1.0})
        assert summary == "Comics Comics Comics Comics"

    def test_build_all_covers_catalogue(self, tiny_merged):
        builder = MetadataSummaryBuilder(("author", "genres"))
        summaries = builder.build_all(tiny_merged)
        assert set(summaries) == set(
            int(b) for b in tiny_merged.books["book_id"]
        )
        assert all(isinstance(s, str) for s in summaries.values())

    def test_title_summaries_differ_from_author_summaries(self, tiny_merged):
        titles = MetadataSummaryBuilder(("title",)).build_all(tiny_merged)
        authors = MetadataSummaryBuilder(("author",)).build_all(tiny_merged)
        book = next(iter(titles))
        assert titles[book] != authors[book]

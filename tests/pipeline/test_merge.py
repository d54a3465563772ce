"""Tests for the BCT + Anobii merge step."""

from dataclasses import replace

import pytest

from repro.datasets import generate_sources
from repro.datasets.anobii import AnobiiDataset
from repro.datasets.bct import BCTDataset, italian_monographs
from repro.datasets.synthetic import ANOBII_ID_BASE, BCT_ID_BASE
from repro.errors import PipelineError
from repro.experiments.config import config_for_scale
from repro.pipeline.merge import (
    MergeConfig,
    SourceView,
    build_merged_dataset,
    load_merged_corpus,
    run_merge,
)

from tests.factories import replace_column
from tests.conftest import TINY_MERGE
from tests.pipeline.merge_oracle import assert_matches_oracle, assert_same_merge


class TestMergeConfigValidation:
    def test_floors_must_be_positive(self):
        with pytest.raises(PipelineError):
            MergeConfig(min_user_readings=0)
        with pytest.raises(PipelineError):
            MergeConfig(min_book_readings=0)


class TestCatalogueAlignment:
    def test_only_shared_books_survive(self, tiny_sources, tiny_merged):
        """Every merged book must exist in both cleaned catalogues."""
        books = tiny_sources.bct.books
        bct_books = set(books.filter(italian_monographs(books))["book_id"].tolist())
        assert set(tiny_merged.books["book_id"].tolist()) <= bct_books

    def test_merged_ids_align_to_same_latent_book(self, tiny_merged):
        """The merged book id is the BCT id; its Anobii twin differs only by
        the id-space offset, so title/author agreement is structural."""
        for book_id in tiny_merged.books["book_id"][:10]:
            assert int(book_id) >= BCT_ID_BASE
            assert int(book_id) < ANOBII_ID_BASE

    def test_metadata_union(self, tiny_merged):
        """Merged books carry BCT title/author plus Anobii plot/keywords."""
        with_plot = sum(1 for p in tiny_merged.books["plot"] if p)
        assert with_plot == tiny_merged.n_books

    def test_report_counts(self, tiny_merge_report):
        report = tiny_merge_report
        assert report.matched_books > 0
        assert report.users_after_filter <= report.users_before_filter
        assert report.readings_after_filter <= report.readings_before_filter
        assert "catalogue match" in str(report)


class TestActivityFilters:
    def test_user_floor_enforced(self, tiny_merged):
        distinct: dict[str, set] = {}
        for user, book in zip(
            tiny_merged.readings["user_id"], tiny_merged.readings["book_id"]
        ):
            distinct.setdefault(str(user), set()).add(int(book))
        # Floors are computed on pre-filter counts and applied once (as in
        # the paper), so post-filter counts can dip slightly below the
        # floor; they must never collapse.
        assert min(len(books) for books in distinct.values()) >= 5

    def test_stricter_book_floor_keeps_fewer_books(self, tiny_sources):
        loose, _ = build_merged_dataset(
            tiny_sources.bct, tiny_sources.anobii,
            MergeConfig(min_user_readings=10, min_book_readings=5),
        )
        strict, _ = build_merged_dataset(
            tiny_sources.bct, tiny_sources.anobii,
            MergeConfig(min_user_readings=10, min_book_readings=25),
        )
        assert strict.n_books < loose.n_books


class TestReadingsUnion:
    def test_sources_present(self, tiny_merged):
        sources = set(tiny_merged.readings["source"].tolist())
        assert sources == {"bct", "anobii"}

    def test_bct_readings_come_from_loans(self, tiny_sources, tiny_merged):
        mask = tiny_merged.readings["source"] == "bct"
        bct_users = set(tiny_merged.readings["user_id"][mask].tolist())
        assert all(u.startswith("bct_") for u in bct_users)

    def test_negative_ratings_excluded(self, tiny_sources, tiny_merged):
        """Books only read through <3-star ratings contribute no readings."""
        anobii = tiny_sources.anobii
        positive = anobii.ratings.filter(anobii.ratings["rating"] >= 3)
        positive_pairs = set(
            zip(positive["user_id"].tolist(), positive["item_id"].tolist())
        )
        mask = tiny_merged.readings["source"] == "anobii"
        for user, book in list(
            zip(
                tiny_merged.readings["user_id"][mask],
                tiny_merged.readings["book_id"][mask],
            )
        )[:200]:
            item = int(book) - BCT_ID_BASE + ANOBII_ID_BASE
            assert (str(user), item) in positive_pairs


class TestOracleEquivalence:
    """The one merge over in-memory sources equals the per-row oracle."""

    @pytest.mark.parametrize(
        "config", [TINY_MERGE, replace(TINY_MERGE, min_loan_days=7)]
    )
    def test_tiny_world(self, tiny_sources, config):
        assert_matches_oracle(tiny_sources.bct, tiny_sources.anobii, config)

    def test_small_world(self):
        config = config_for_scale("small")
        sources = generate_sources(config.world)
        assert_matches_oracle(sources.bct, sources.anobii, config.merge)

    def test_empty_event_tables(self, tiny_sources):
        bct = BCTDataset(
            books=tiny_sources.bct.books, loans=tiny_sources.bct.loans.head(0)
        )
        anobii = AnobiiDataset(
            items=tiny_sources.anobii.items, ratings=tiny_sources.anobii.ratings.head(0)
        )
        merged, report = assert_matches_oracle(bct, anobii, TINY_MERGE)
        assert merged.n_readings == 0 and merged.n_books == 0
        assert report.users_before_filter == 0

    @pytest.mark.parametrize(
        "config", [TINY_MERGE, replace(TINY_MERGE, min_loan_days=7)]
    )
    def test_written_dataset_reloads_equal(self, tiny_sources, config, tmp_path):
        """What the merge writes to ``output_dir`` reloads as the dataset
        it returns in memory, with the same report."""
        expected = build_merged_dataset(tiny_sources.bct, tiny_sources.anobii, config)
        result = run_merge(
            SourceView(tiny_sources.bct, tiny_sources.anobii),
            config,
            output_dir=tmp_path / "dataset",
        )
        assert result.dataset is None
        loaded = load_merged_corpus(tmp_path / "dataset")
        assert_same_merge((loaded, result.report), expected)

    def test_user_id_in_both_sources_is_refused(self, tiny_sources):
        """BCT patrons and Anobii users are counted in separate spaces."""
        bct_user = str(tiny_sources.bct.loans["user_id"][0])
        ratings = tiny_sources.anobii.ratings
        user_ids = ratings["user_id"].copy()
        user_ids[0] = bct_user
        anobii = AnobiiDataset(
            items=tiny_sources.anobii.items,
            ratings=replace_column(ratings, "user_id", user_ids),
        )
        with pytest.raises(PipelineError, match="both BCT and Anobii"):
            build_merged_dataset(tiny_sources.bct, anobii, TINY_MERGE)

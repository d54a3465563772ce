"""Tests for the source-level cleaning steps, the quarantine and their reports.

Both run inside the merge, so these tests read them through
``build_merged_dataset``'s report; the dirty dumps are also checked
against the per-row oracle (``tests/pipeline/merge_oracle.py``).
"""

import pytest

from repro.datasets.anobii import italian_books
from repro.datasets.bct import italian_monographs
from repro.errors import PipelineError
from repro.pipeline import build_merged_dataset

from tests.conftest import TINY_MERGE
from tests.pipeline.merge_oracle import assert_matches_oracle


class TestCleanBCT:
    def test_filter_applied(self, tiny_sources, tiny_merged, tiny_merge_report):
        books = tiny_sources.bct.books
        kept = books.filter(italian_monographs(books))
        assert set(kept["material"].tolist()) <= {"monograph", "manuscript"}
        assert set(tiny_merged.books["book_id"].tolist()) <= set(
            kept["book_id"].tolist()
        )
        report = tiny_merge_report.cleaning[0]
        assert report.catalogue_before - report.catalogue_after > 0

    def test_report_counts_match(self, tiny_sources, tiny_merge_report):
        bct = tiny_sources.bct
        report = tiny_merge_report.cleaning[0]
        kept_ids = set(
            bct.books.filter(italian_monographs(bct.books))["book_id"].tolist()
        )
        assert report.catalogue_before == bct.n_books
        assert report.catalogue_after == len(kept_ids)
        assert report.events_before == bct.n_loans
        assert report.events_after == sum(
            int(book_id) in kept_ids for book_id in bct.loans["book_id"]
        )

    def test_report_renders(self, tiny_merge_report):
        text = str(tiny_merge_report.cleaning[0])
        assert "->" in text and "bct" in text


class TestCleanAnobii:
    def test_default_threshold(self, tiny_sources, tiny_merge_report):
        anobii = tiny_sources.anobii
        report = tiny_merge_report.cleaning[1]
        kept_ids = set(
            anobii.items.filter(italian_books(anobii.items))["item_id"].tolist()
        )
        positive = sum(
            int(item_id) in kept_ids and int(stars) >= 3
            for item_id, stars in zip(
                anobii.ratings["item_id"], anobii.ratings["rating"]
            )
        )
        assert report.events_after == positive
        assert report.events_before - report.events_after > 0
        assert "rating >= 3" in str(report)

    def test_non_books_removed(self, tiny_sources, tiny_merge_report):
        items = tiny_sources.anobii.items
        kept = items.filter(italian_books(items))
        assert kept["is_book"].all()
        assert tiny_merge_report.cleaning[1].catalogue_after == kept.num_rows
        assert kept.num_rows < items.num_rows


def _with_rows(table, rows):
    from repro.tables.table import Table, concat_tables

    return concat_tables(
        [table, Table.from_columns(
            {name: [row[name] for row in rows] for name in table.column_names},
            schema=table.schema,
        )]
    )


@pytest.fixture()
def dirty_bct(tiny_sources):
    """The tiny BCT dump with four malformed rows appended."""
    from repro.datasets.bct import BCTDataset

    bct = tiny_sources.bct
    duplicate = dict(bct.books.row(0))
    duplicate["title"] = "shadow copy"
    books = _with_rows(bct.books, [duplicate])

    template = dict(bct.loans.row(0))
    dangling = {**template, "loan_id": 900001, "book_id": 99999999}
    blank_user = {**template, "loan_id": 900002, "user_id": "   "}
    reversed_dates = {
        **template,
        "loan_id": 900003,
        "loan_date": template["return_date"],
        "return_date": template["loan_date"],
    }
    assert template["return_date"] > template["loan_date"]
    loans = _with_rows(bct.loans, [dangling, blank_user, reversed_dates])
    return BCTDataset(books=books, loans=loans)


@pytest.fixture()
def dirty_anobii(tiny_sources):
    """The tiny Anobii dump with four malformed rows appended."""
    from repro.datasets.anobii import AnobiiDataset

    anobii = tiny_sources.anobii
    duplicate = dict(anobii.items.row(0))
    items = _with_rows(anobii.items, [duplicate])

    template = dict(anobii.ratings.row(0))
    dangling = {**template, "rating_id": 900001, "item_id": 99999999}
    blank_user = {**template, "rating_id": 900002, "user_id": ""}
    out_of_range = {**template, "rating_id": 900003, "rating": 9}
    ratings = _with_rows(
        anobii.ratings, [dangling, blank_user, out_of_range]
    )
    return AnobiiDataset(items=items, ratings=ratings)


class TestQuarantine:
    def test_clean_sources_pass_through(self, tiny_sources, tiny_merge_report):
        assert not tiny_merge_report.quarantine
        assert "no malformed rows" in str(tiny_merge_report.quarantine)
        bct_report, anobii_report = tiny_merge_report.cleaning
        assert bct_report.events_before == tiny_sources.bct.n_loans
        assert anobii_report.events_before == tiny_sources.anobii.n_ratings

    def test_bct_rows_quarantined_with_context(self, dirty_bct, tiny_sources):
        merged, report = build_merged_dataset(
            dirty_bct, tiny_sources.anobii, TINY_MERGE
        )
        quarantine = report.quarantine
        assert quarantine.n_rows == 4
        reasons = {(row.table, row.reason) for row in quarantine.rows}
        assert reasons == {
            ("bct.books", "duplicate book_id"),
            ("bct.loans", "dangling book_id"),
            ("bct.loans", "blank user_id"),
            ("bct.loans", "returned before borrowed"),
        }
        dangling = next(
            row for row in quarantine.rows if row.reason == "dangling book_id"
        )
        assert dangling.context["book_id"] == "99999999"
        assert dangling.row == dirty_bct.loans.num_rows - 3
        blank = next(row for row in quarantine.rows if row.reason == "blank user_id")
        assert blank.context["user_id"] == "   "
        merged.validate()  # the survivors are referentially sound

    def test_anobii_rows_quarantined(self, dirty_anobii, tiny_sources):
        merged, report = build_merged_dataset(
            tiny_sources.bct, dirty_anobii, TINY_MERGE
        )
        quarantine = report.quarantine
        assert quarantine.n_rows == 4
        reasons = {row.reason for row in quarantine.rows}
        assert reasons == {
            "duplicate item_id",
            "dangling item_id",
            "blank user_id",
            "rating outside [1, 5]",
        }
        merged.validate()
        assert "4 rows" in str(quarantine)

    def test_strict_mode_raises(self, dirty_bct, dirty_anobii, tiny_sources):
        with pytest.raises(PipelineError, match="malformed source rows"):
            build_merged_dataset(
                dirty_bct, tiny_sources.anobii, TINY_MERGE, strict=True
            )
        with pytest.raises(PipelineError, match="malformed source rows"):
            build_merged_dataset(
                tiny_sources.bct, dirty_anobii, TINY_MERGE, strict=True
            )

    def test_dirty_sources_match_the_oracle(self, dirty_bct, dirty_anobii):
        """Same 8 rows, reasons, row indices and contexts as the oracle."""
        _, report = assert_matches_oracle(dirty_bct, dirty_anobii, TINY_MERGE)
        assert report.quarantine.n_rows == 8


class TestMergeWithQuarantine:
    def test_dirty_sources_merge_like_clean_ones(
        self, tiny_sources, tiny_merged, dirty_bct, dirty_anobii
    ):
        merged, report = build_merged_dataset(
            dirty_bct, dirty_anobii, TINY_MERGE
        )
        assert report.quarantine.n_rows == 8
        assert merged.books == tiny_merged.books
        assert merged.readings == tiny_merged.readings
        assert "quarantine" in str(report)

    def test_clean_merge_reports_empty_quarantine(self, tiny_merge_report):
        assert not tiny_merge_report.quarantine
        assert "quarantine" not in str(tiny_merge_report)

    def test_strict_merge_raises(self, dirty_bct, tiny_sources):
        with pytest.raises(PipelineError, match="strict"):
            build_merged_dataset(
                dirty_bct, tiny_sources.anobii, TINY_MERGE, strict=True
            )

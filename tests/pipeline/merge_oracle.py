"""The per-row Section-3 merge, kept as the oracle of the one merge.

``oracle_merge`` below is the earlier in-memory ``build_merged_dataset``,
frozen with its event-side stages: the per-row quarantine of loans and
ratings, the source-level filters with per-row set membership, the
readings union as Python lists, and the activity filters over the
materialised readings table. It shares only the catalogue helpers
(duplicate keys, Italian-book predicates, catalogue match, genre model)
with :func:`repro.pipeline.merge.run_merge`, which must produce the same
tables, the same :class:`~repro.pipeline.merge.MergeReport` and the same
metrics series on every input the tests feed both.

The two-pass merge counts BCT and Anobii users in separate code spaces
while this oracle counts user id strings; the two agree because the
sources never share a user id (the merge refuses sources that do).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.anobii import (
    POSITIVE_RATING_THRESHOLD,
    AnobiiDataset,
    italian_books,
)
from repro.datasets.bct import BCTDataset, italian_monographs
from repro.datasets.merged import MergedDataset
from repro.datasets.models import READINGS_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cleaning import CleaningReport, QuarantineReport, _keep_first_by_key
from repro.pipeline.genres import build_genre_model
from repro.pipeline.merge import (
    MergeConfig,
    MergeReport,
    _genre_table,
    _match_catalogues,
    _merged_books,
    build_merged_dataset,
)
from repro.tables import Table

from tests.conftest import strip_timing_series


def oracle_merge(
    bct: BCTDataset,
    anobii: AnobiiDataset,
    config: MergeConfig | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
) -> tuple[MergedDataset, MergeReport]:
    """The per-row merge: quarantine, clean, match, union, filter."""
    config = config or MergeConfig()
    bct, bct_quarantine = quarantine_bct(bct, strict=strict)
    anobii, anobii_quarantine = quarantine_anobii(anobii, strict=strict)
    quarantine = bct_quarantine.extend(anobii_quarantine)
    if metrics is not None:
        counter = metrics.counter("pipeline.quarantined_rows")
        for (table, reason), count in sorted(quarantine.counts().items()):
            counter.labels(table=table, reason=reason).inc(count)
    cleaned_bct, bct_report = clean_bct(bct)
    cleaned_anobii, anobii_report = clean_anobii(anobii)
    genre_model = build_genre_model(cleaned_anobii.items)
    item_of_book, unmatched_bct, unmatched_anobii = _match_catalogues(
        cleaned_bct.books, cleaned_anobii.items
    )
    books = _merged_books(cleaned_bct.books, cleaned_anobii.items, item_of_book)
    readings = build_readings(
        cleaned_bct, cleaned_anobii, item_of_book, config.min_loan_days
    )
    users_before = len(set(readings["user_id"].tolist()))
    books_before = len(set(readings["book_id"].tolist()))
    readings_before = readings.num_rows

    readings = apply_activity_filters(readings, config)
    kept_books = set(readings["book_id"].tolist())
    books = books.filter(
        np.asarray([b in kept_books for b in books["book_id"]], dtype=bool)
    )
    genres_table = _genre_table(genre_model, item_of_book, kept_books)
    merged = MergedDataset(books=books, readings=readings, genres=genres_table)
    merged.validate()
    if metrics is not None:
        metrics.gauge("pipeline.readings").set(float(readings.num_rows))
        metrics.gauge("pipeline.books").set(float(books.num_rows))
    report = MergeReport(
        cleaning=(bct_report, anobii_report),
        matched_books=len(item_of_book),
        bct_only_books=unmatched_bct,
        anobii_only_books=unmatched_anobii,
        readings_before_filter=readings_before,
        readings_after_filter=readings.num_rows,
        users_before_filter=users_before,
        users_after_filter=len(set(readings["user_id"].tolist())),
        books_before_filter=books_before,
        books_after_filter=books.num_rows,
        genre_model=genre_model,
        quarantine=quarantine,
    )
    return merged, report


def quarantine_bct(
    bct: BCTDataset, strict: bool = False
) -> tuple[BCTDataset, QuarantineReport]:
    """Duplicate books, then per loan: dangling book, blank user, reversed dates."""
    report = QuarantineReport()
    books = bct.books
    keep_books = _keep_first_by_key(books["book_id"].tolist())
    for i in np.flatnonzero(~keep_books):
        report.add("bct.books", int(i), "duplicate book_id", books.row(int(i)))
    if not keep_books.all():
        books = books.filter(keep_books)

    known_books = set(books["book_id"].tolist())
    loans = bct.loans
    keep_loans = np.ones(loans.num_rows, dtype=bool)
    book_ids = loans["book_id"]
    user_ids = loans["user_id"]
    loan_dates = loans["loan_date"]
    return_dates = loans["return_date"]
    for i in range(loans.num_rows):
        reason = None
        if int(book_ids[i]) not in known_books:
            reason = "dangling book_id"
        elif not str(user_ids[i]).strip():
            reason = "blank user_id"
        elif return_dates[i] < loan_dates[i]:
            reason = "returned before borrowed"
        if reason is not None:
            keep_loans[i] = False
            report.add("bct.loans", i, reason, loans.row(i))
    report.raise_if(strict)
    if keep_loans.all() and keep_books.all():
        return bct, report
    return BCTDataset(books=books, loans=loans.filter(keep_loans)), report


def quarantine_anobii(
    anobii: AnobiiDataset, strict: bool = False
) -> tuple[AnobiiDataset, QuarantineReport]:
    """Duplicate items, then per rating: dangling item, blank user, stars off 1-5."""
    report = QuarantineReport()
    items = anobii.items
    keep_items = _keep_first_by_key(items["item_id"].tolist())
    for i in np.flatnonzero(~keep_items):
        report.add("anobii.items", int(i), "duplicate item_id", items.row(int(i)))
    if not keep_items.all():
        items = items.filter(keep_items)

    known_items = set(items["item_id"].tolist())
    ratings = anobii.ratings
    keep_ratings = np.ones(ratings.num_rows, dtype=bool)
    item_ids = ratings["item_id"]
    user_ids = ratings["user_id"]
    stars = ratings["rating"]
    for i in range(ratings.num_rows):
        reason = None
        if int(item_ids[i]) not in known_items:
            reason = "dangling item_id"
        elif not str(user_ids[i]).strip():
            reason = "blank user_id"
        elif not 1 <= int(stars[i]) <= 5:
            reason = "rating outside [1, 5]"
        if reason is not None:
            keep_ratings[i] = False
            report.add("anobii.ratings", i, reason, ratings.row(i))
    report.raise_if(strict)
    if keep_ratings.all() and keep_items.all():
        return anobii, report
    return (
        AnobiiDataset(items=items, ratings=ratings.filter(keep_ratings)),
        report,
    )


def clean_bct(bct: BCTDataset) -> tuple[BCTDataset, CleaningReport]:
    """Keep Italian monographs and manuscripts and the loans touching them."""
    books = bct.books.filter(italian_monographs(bct.books))
    kept_ids = set(books["book_id"].tolist())
    loans = bct.loans.filter(
        np.asarray([b in kept_ids for b in bct.loans["book_id"]], dtype=bool)
    )
    cleaned = BCTDataset(books=books, loans=loans)
    report = CleaningReport(
        step="bct italian monographs",
        catalogue_before=bct.n_books,
        catalogue_after=cleaned.n_books,
        events_before=bct.n_loans,
        events_after=cleaned.n_loans,
    )
    return cleaned, report


def clean_anobii(anobii: AnobiiDataset) -> tuple[AnobiiDataset, CleaningReport]:
    """Keep Italian books and their positive ratings."""
    items = anobii.items.filter(italian_books(anobii.items))
    kept_ids = set(items["item_id"].tolist())
    ratings = anobii.ratings.filter(
        np.asarray([i in kept_ids for i in anobii.ratings["item_id"]], dtype=bool)
    )
    ratings = ratings.filter(ratings["rating"] >= POSITIVE_RATING_THRESHOLD)
    cleaned = AnobiiDataset(items=items, ratings=ratings)
    report = CleaningReport(
        step=f"anobii italian books, rating >= {POSITIVE_RATING_THRESHOLD}",
        catalogue_before=anobii.n_items,
        catalogue_after=cleaned.n_items,
        events_before=anobii.n_ratings,
        events_after=cleaned.n_ratings,
    )
    return cleaned, report


def build_readings(
    bct: BCTDataset,
    anobii: AnobiiDataset,
    item_of_book: dict[int, int],
    min_loan_days: int = 0,
) -> Table:
    """Union the loans and positive ratings restricted to matched books.

    Loans returned in under ``min_loan_days`` are dropped.
    """
    book_of_item = {item: book for book, item in item_of_book.items()}
    user_ids: list[str] = []
    book_ids: list[int] = []
    dates: list[np.datetime64] = []
    sources: list[str] = []
    for user_id, book_id, loan_date, return_date in zip(
        bct.loans["user_id"], bct.loans["book_id"],
        bct.loans["loan_date"], bct.loans["return_date"],
    ):
        if int(book_id) not in item_of_book:
            continue
        duration = int((return_date - loan_date) / np.timedelta64(1, "D"))
        if duration < min_loan_days:
            continue
        user_ids.append(str(user_id))
        book_ids.append(int(book_id))
        dates.append(loan_date)
        sources.append("bct")
    for user_id, item_id, rating_date in zip(
        anobii.ratings["user_id"],
        anobii.ratings["item_id"],
        anobii.ratings["rating_date"],
    ):
        if int(item_id) in book_of_item:
            user_ids.append(str(user_id))
            book_ids.append(book_of_item[int(item_id)])
            dates.append(rating_date)
            sources.append("anobii")
    return Table.from_columns(
        {
            "user_id": user_ids,
            "book_id": book_ids,
            "read_date": np.asarray(dates, dtype="datetime64[D]")
            if dates
            else np.asarray([], dtype="datetime64[D]"),
            "source": sources,
        },
        schema=READINGS_SCHEMA,
    )


def apply_activity_filters(readings: Table, config: MergeConfig) -> Table:
    """Drop light users (< min distinct books) and cold books (< min events).

    Both floors are evaluated on the unfiltered counts and applied once.
    """
    if not readings.num_rows:
        return readings
    unique_users, user_codes = np.unique(readings["user_id"], return_inverse=True)
    unique_books, book_codes = np.unique(readings["book_id"], return_inverse=True)
    n_books = len(unique_books)
    # Distinct (user, book) pairs give per-user distinct-book degrees;
    # raw book codes give per-book event counts (with multiplicity).
    pair_codes = np.unique(user_codes.astype(np.int64) * n_books + book_codes)
    user_degree = np.bincount(pair_codes // n_books, minlength=len(unique_users))
    book_events = np.bincount(book_codes, minlength=n_books)
    keep_users = user_degree >= config.min_user_readings
    keep_books = book_events >= config.min_book_readings
    mask = keep_users[user_codes] & keep_books[book_codes]
    if mask.all():
        return readings
    return readings.filter(mask)


def assert_same_merge(actual, expected) -> None:
    """Two ``(MergedDataset, MergeReport)`` results agree bit for bit.

    The books, readings and genres tables have the same schemas and every
    column is ``np.array_equal`` with the same dtype, and the reports are
    equal both as values and as rendered text.
    """
    actual_merged, actual_report = actual
    expected_merged, expected_report = expected
    for name in ("books", "readings", "genres"):
        got, want = getattr(actual_merged, name), getattr(expected_merged, name)
        assert got.schema == want.schema, name
        assert got.column_names == want.column_names, name
        assert got.num_rows == want.num_rows, name
        for column in want.column_names:
            assert got[column].dtype == want[column].dtype, (name, column)
            assert np.array_equal(got[column], want[column]), (name, column)
    assert actual_report == expected_report
    assert str(actual_report) == str(expected_report)


def assert_matches_oracle(
    bct: BCTDataset, anobii: AnobiiDataset, config: MergeConfig
) -> tuple[MergedDataset, MergeReport]:
    """``build_merged_dataset`` agrees with the oracle on these sources.

    Same tables and report (:func:`assert_same_merge`) and the same
    metrics series up to timing. Returns the merge's result.
    """
    merged_metrics, oracle_metrics = MetricsRegistry(), MetricsRegistry()
    merged = build_merged_dataset(bct, anobii, config, metrics=merged_metrics)
    assert_same_merge(merged, oracle_merge(bct, anobii, config, metrics=oracle_metrics))
    assert strip_timing_series(merged_metrics.snapshot()) == strip_timing_series(
        oracle_metrics.snapshot()
    )
    return merged

"""Merging the BCT and Anobii sources into the training dataset.

This is the paper's final Section-3 step: align the two catalogues, combine
their attributes, build the unified *Readings* table (BCT loans + Anobii
positive ratings), and apply the activity filters. The output is a validated
:class:`repro.datasets.MergedDataset` plus a :class:`MergeReport` describing
what every stage kept and dropped.

Catalogue alignment runs on a normalised (title, author) key
(:func:`repro.datasets.models.match_key`) because the sources use
independent identifier spaces; only books present in *both* catalogues
survive, exactly as in the paper ("for each book present in both the BCT
and Anobii datasets").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.anobii import AnobiiDataset
from repro.datasets.bct import BCTDataset
from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
    match_key,
)
from repro.errors import PipelineError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.pipeline.cleaning import (
    CleaningReport,
    QuarantineReport,
    clean_anobii,
    clean_bct,
    quarantine_anobii,
    quarantine_bct,
)
from repro.pipeline.genres import (
    DEFAULT_MAX_BOOK_SHARE,
    DEFAULT_MIN_AFFINITY,
    DEFAULT_MIN_BOOKS,
    GenreModel,
    build_genre_model,
)
from repro.tables import Table


@dataclass(frozen=True)
class MergeConfig:
    """Parameters of the merge step.

    The paper uses ``min_user_readings=10`` and ``min_book_readings=100`` on
    its 43 k-user dataset; the book floor must scale with dataset size, so
    experiment presets override it.
    """

    min_user_readings: int = 10
    min_book_readings: int = 100
    min_rating: int = 3
    min_loan_days: int = 0
    """Drop BCT loans returned within this many days (0 keeps all, the
    paper's behaviour). The paper's Section 4 proposes exactly this signal
    — "using the duration of the loan" — to filter out borrowed-but-not-
    appreciated books; the ``ablation_duration`` experiment quantifies it."""
    genre_max_book_share: float = DEFAULT_MAX_BOOK_SHARE
    genre_min_books: int = DEFAULT_MIN_BOOKS
    genre_min_affinity: float = DEFAULT_MIN_AFFINITY
    iterate_activity_filter: bool = False
    """When True, re-apply the user/book floors until a fixpoint; the paper
    applies them once, which is the default."""

    def __post_init__(self) -> None:
        if self.min_user_readings < 1 or self.min_book_readings < 1:
            raise PipelineError("activity floors must be >= 1")
        if not 1 <= self.min_rating <= 5:
            raise PipelineError(f"min_rating must be in [1, 5], got {self.min_rating}")
        if self.min_loan_days < 0:
            raise PipelineError(
                f"min_loan_days must be >= 0, got {self.min_loan_days}"
            )


@dataclass(frozen=True)
class MergeReport:
    """Counts describing every stage of the merge."""

    cleaning: tuple[CleaningReport, ...]
    matched_books: int
    bct_only_books: int
    anobii_only_books: int
    readings_before_filter: int
    readings_after_filter: int
    users_before_filter: int
    users_after_filter: int
    books_before_filter: int
    books_after_filter: int
    genre_model: GenreModel = field(repr=False)
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)
    """Malformed source rows set aside before cleaning (empty on clean
    dumps); see :class:`repro.pipeline.cleaning.QuarantineReport`."""

    def __str__(self) -> str:
        lines = [str(report) for report in self.cleaning]
        if self.quarantine:
            lines.append(str(self.quarantine))
        lines.append(
            f"catalogue match: {self.matched_books} shared books "
            f"({self.bct_only_books} BCT-only and {self.anobii_only_books} "
            f"Anobii-only dropped)"
        )
        lines.append(
            f"activity filter: users {self.users_before_filter} -> "
            f"{self.users_after_filter}, books {self.books_before_filter} -> "
            f"{self.books_after_filter}, readings "
            f"{self.readings_before_filter} -> {self.readings_after_filter}"
        )
        return "\n".join(lines)


def build_merged_dataset(
    bct: BCTDataset,
    anobii: AnobiiDataset,
    config: MergeConfig | None = None,
    strict: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[MergedDataset, MergeReport]:
    """Run the full merge pipeline; see the module docstring.

    Malformed source rows (dangling foreign keys, impossible dates, blank
    ids, duplicate catalogue entries) are quarantined — collected into
    ``report.quarantine`` with row context — before the paper's cleaning
    filters run. ``strict=True`` raises :class:`PipelineError` on the
    first malformed dump instead.

    ``tracer``/``metrics`` are optional observability hooks: each stage
    (quarantine, cleaning, genre entropy-merge, catalogue match, readings
    union, activity filter) runs in its own span under ``pipeline.merge``,
    and quarantined rows are counted per source table and reason in the
    ``pipeline.quarantined_rows`` counter.
    """
    config = config or MergeConfig()
    with start_span(tracer, "pipeline.merge"):
        with start_span(tracer, "pipeline.quarantine") as span:
            bct, bct_quarantine = quarantine_bct(bct, strict=strict)
            anobii, anobii_quarantine = quarantine_anobii(anobii, strict=strict)
            quarantine = bct_quarantine.extend(anobii_quarantine)
            span.set_attrs(quarantined_rows=quarantine.n_rows)
        if metrics is not None:
            counter = metrics.counter("pipeline.quarantined_rows")
            for (table, reason), count in sorted(quarantine.counts().items()):
                counter.labels(table=table, reason=reason).inc(count)
        with start_span(tracer, "pipeline.cleaning") as span:
            cleaned_bct, bct_report = clean_bct(bct)
            cleaned_anobii, anobii_report = clean_anobii(
                anobii, config.min_rating
            )
            span.set_attrs(
                bct_loans=cleaned_bct.loans.num_rows,
                anobii_ratings=cleaned_anobii.ratings.num_rows,
            )

        with start_span(tracer, "pipeline.genres") as span:
            genre_model = build_genre_model(
                cleaned_anobii.items,
                max_book_share=config.genre_max_book_share,
                min_books=config.genre_min_books,
                min_affinity=config.genre_min_affinity,
            )
            span.set_attrs(
                canonical_genres=len(set(genre_model.canonical_of.values())),
                dropped_genres=len(genre_model.dropped_genres),
            )

        with start_span(tracer, "pipeline.match") as span:
            item_of_book, unmatched_bct, unmatched_anobii = _match_catalogues(
                cleaned_bct.books, cleaned_anobii.items
            )
            books = _merged_books(
                cleaned_bct.books, cleaned_anobii.items, item_of_book
            )
            span.set_attrs(
                matched_books=len(item_of_book),
                bct_only=unmatched_bct,
                anobii_only=unmatched_anobii,
            )
        with start_span(tracer, "pipeline.readings") as span:
            readings = _build_readings(
                cleaned_bct, cleaned_anobii, item_of_book, config.min_loan_days
            )
            span.set_attrs(readings=readings.num_rows)

        users_before = len(set(readings["user_id"].tolist()))
        books_before = len(set(readings["book_id"].tolist()))
        readings_before = readings.num_rows

        with start_span(tracer, "pipeline.activity_filter") as span:
            readings = _apply_activity_filters(readings, config)
            kept_books = set(readings["book_id"].tolist())
            books = books.filter(
                np.asarray(
                    [b in kept_books for b in books["book_id"]], dtype=bool
                )
            )
            genres_table = _genre_table(genre_model, item_of_book, kept_books)
            span.set_attrs(
                readings_before=readings_before,
                readings_after=readings.num_rows,
            )

        merged = MergedDataset(
            books=books, readings=readings, genres=genres_table
        )
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


def _match_catalogues(
    bct_books: Table, anobii_items: Table
) -> tuple[dict[int, int], int, int]:
    """Align catalogues on the normalised (title, author) key.

    Returns ``{bct book_id: anobii item_id}`` for the intersection plus the
    counts of unmatched books on each side. Duplicate keys within a source
    keep the first occurrence (deterministic, mirrors a SQL anti-duplicate
    pass).
    """
    anobii_keys = [
        match_key(str(title), str(author))
        for title, author in zip(anobii_items["title"], anobii_items["author"])
    ]
    anobii_by_key: dict[str, int] = {}
    for item_id, key in zip(anobii_items["item_id"], anobii_keys):
        anobii_by_key.setdefault(key, int(item_id))

    bct_keys = [
        match_key(str(title), str(author))
        for title, author in zip(bct_books["title"], bct_books["author"])
    ]
    item_of_book: dict[int, int] = {}
    seen_keys: set[str] = set()
    for book_id, key in zip(bct_books["book_id"], bct_keys):
        if key in seen_keys:
            continue
        seen_keys.add(key)
        if key in anobii_by_key:
            item_of_book[int(book_id)] = anobii_by_key[key]
    unmatched_bct = bct_books.num_rows - len(item_of_book)
    matched_items = set(item_of_book.values())
    unmatched_anobii = anobii_items.num_rows - len(matched_items)
    return item_of_book, unmatched_bct, unmatched_anobii


def _merged_books(
    bct_books: Table, anobii_items: Table, item_of_book: dict[int, int]
) -> Table:
    """Combine attributes: author/title from BCT, plot/keywords from Anobii."""
    plot_of: dict[int, str] = {}
    keywords_of: dict[int, str] = {}
    for item_id, plot, keywords in zip(
        anobii_items["item_id"], anobii_items["plot"], anobii_items["keywords"]
    ):
        plot_of[int(item_id)] = str(plot)
        keywords_of[int(item_id)] = str(keywords)

    columns: dict[str, list] = {
        "book_id": [], "author": [], "title": [], "plot": [], "keywords": []
    }
    for book_id, title, author in zip(
        bct_books["book_id"], bct_books["title"], bct_books["author"]
    ):
        book_id = int(book_id)
        if book_id not in item_of_book:
            continue
        item_id = item_of_book[book_id]
        columns["book_id"].append(book_id)
        columns["author"].append(str(author))
        columns["title"].append(str(title))
        columns["plot"].append(plot_of.get(item_id, ""))
        columns["keywords"].append(keywords_of.get(item_id, ""))
    return Table.from_columns(columns, schema=MERGED_BOOKS_SCHEMA)


def _build_readings(
    bct: BCTDataset,
    anobii: AnobiiDataset,
    item_of_book: dict[int, int],
    min_loan_days: int = 0,
) -> Table:
    """Union the loans and positive ratings restricted to matched books.

    Loans returned in under ``min_loan_days`` are treated as negative
    implicit feedback (abandoned books) and dropped.
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


def _apply_activity_filters(readings: Table, config: MergeConfig) -> Table:
    """Drop light users (< min distinct books) and cold books (< min events).

    Per the paper, both floors are evaluated on the unfiltered counts and
    applied in one pass; set ``iterate_activity_filter`` to re-apply until a
    fixpoint (stricter than the paper). Counting is fully vectorised
    (``np.unique`` factorisation + ``bincount``) so the filter costs
    O(n log n) array work, not a Python loop per event — the streaming
    path (:mod:`repro.pipeline.streaming`) applies the same floors to its
    pair accumulator without materialising the table at all.
    """
    while True:
        if not readings.num_rows:
            return readings
        unique_users, user_codes = np.unique(
            readings["user_id"], return_inverse=True
        )
        unique_books, book_codes = np.unique(
            readings["book_id"], return_inverse=True
        )
        n_books = len(unique_books)
        # Distinct (user, book) pairs give per-user distinct-book degrees;
        # raw book codes give per-book event counts (with multiplicity).
        pair_codes = np.unique(
            user_codes.astype(np.int64) * n_books + book_codes
        )
        user_degree = np.bincount(
            pair_codes // n_books, minlength=len(unique_users)
        )
        book_events = np.bincount(book_codes, minlength=n_books)
        keep_users = user_degree >= config.min_user_readings
        keep_books = book_events >= config.min_book_readings
        mask = keep_users[user_codes] & keep_books[book_codes]
        if mask.all():
            return readings
        readings = readings.filter(mask)
        if not config.iterate_activity_filter:
            return readings


def _genre_table(
    genre_model: GenreModel, item_of_book: dict[int, int], kept_books: set[int]
) -> Table:
    """Re-key the genre model from Anobii item ids to merged book ids."""
    book_of_item = {item: book for book, item in item_of_book.items()}
    rekeyed = {
        book_of_item[item_id]: genres
        for item_id, genres in genre_model.book_genres.items()
        if item_id in book_of_item and book_of_item[item_id] in kept_books
    }
    restricted = GenreModel(
        canonical_of=genre_model.canonical_of,
        book_genres=rekeyed,
        dropped_genres=genre_model.dropped_genres,
        merge_trace=genre_model.merge_trace,
    )
    return restricted.to_table()

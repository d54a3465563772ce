"""Merging the BCT and Anobii sources into the training dataset.

This is the paper's Section-3 pipeline: set malformed rows aside, keep
Italian monographs and manuscripts (BCT) and Italian books with positive
ratings (Anobii), clean the crowd-voted genres, align the two catalogues,
build the unified *Readings* table (BCT loans + Anobii positive ratings),
and apply the activity filters. The output is a validated
:class:`repro.datasets.MergedDataset` plus a :class:`MergeReport`
describing what every stage kept and dropped.

Catalogue alignment runs on a normalised (title, author) key
(:func:`repro.datasets.models.match_key`) because the sources use
independent identifier spaces; only books present in *both* catalogues
survive, exactly as in the paper ("for each book present in both the BCT
and Anobii datasets").

There is one merge, :func:`run_merge`. It reads the events as shards of
raw column arrays — a :class:`~repro.datasets.corpus.ShardedCorpus` on
disk (:func:`repro.pipeline.streaming.merge_sharded_corpus`), or the
one-shard :class:`SourceView` over in-memory sources — and never holds
the event tables. The catalogue-side stages are O(books); the event side
runs in two passes:

1. **Accumulate.** Each shard is reduced to (a) a per-row survival mask
   through quarantine/cleaning/match, and (b) its *unique (user, book)
   pair counts*, merged into a running sorted accumulator. Everything the
   activity filters and the :class:`MergeReport` need — distinct
   users/books, per-book event counts, readings counts — derives from the
   pair accumulator, whose size is O(unique pairs), not O(events).
2. **Emit.** Shards are re-read and the rows surviving the activity
   filter are assembled into the merged dataset or, given an
   ``output_dir``, written there as the one on-disk merged dataset: npz
   readings shards with a CSV catalogue under a checksum manifest, which
   :func:`load_merged_corpus` reloads.

``tests/pipeline/merge_oracle.py`` keeps the earlier per-row merge as the
oracle this one is checked against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.datasets.anobii import (
    POSITIVE_RATING_THRESHOLD,
    AnobiiDataset,
    italian_books,
)
from repro.datasets.bct import BCTDataset, italian_monographs
from repro.datasets.corpus import ShardedCorpus
from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
    match_key,
)
from repro.errors import PipelineError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.pipeline.cleaning import CleaningReport, QuarantineReport, _keep_first_by_key
from repro.pipeline.genres import GenreModel, build_genre_model
from repro.resilience.artefacts import verify_manifest, write_manifest
from repro.tables import Table, read_csv, write_csv
from repro.tables.io import read_npz_columns, write_npz_columns

#: ``source`` column values, indexed by the source code of a shard.
_SOURCE_NAMES = np.asarray(["bct", "anobii"], dtype=object)

#: Manifest ``kind`` of a merged dataset written by :func:`run_merge`.
MERGED_CORPUS_KIND = "merged-corpus"

#: Row-block size for the per-shard passes. Work inside a shard proceeds
#: in fixed blocks so transient temporaries (membership positions, pair
#: codes) are O(block), decoupling peak memory from the shard row count.
_PASS_CHUNK = 65_536


@dataclass(frozen=True)
class MergeConfig:
    """Parameters of the merge step.

    The paper uses ``min_user_readings=10`` and ``min_book_readings=100`` on
    its 43 k-user dataset, and applies both floors once; the book floor
    must scale with dataset size, so experiment presets override it.
    """

    min_user_readings: int = 10
    min_book_readings: int = 100
    min_loan_days: int = 0
    """Drop BCT loans returned within this many days (0 keeps all, the
    paper's behaviour). The paper's Section 4 proposes exactly this signal
    — "using the duration of the loan" — to filter out borrowed-but-not-
    appreciated books; the ``ablation_duration`` experiment quantifies it."""

    def __post_init__(self) -> None:
        if self.min_user_readings < 1 or self.min_book_readings < 1:
            raise PipelineError("activity floors must be >= 1")
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


@dataclass(frozen=True)
class StreamingMergeResult:
    """What :func:`run_merge` produced.

    ``dataset`` is the merged dataset, or ``None`` when the merge wrote it
    to an ``output_dir`` instead. The ``report`` is always present.
    """

    report: MergeReport
    dataset: MergedDataset | None = None


def build_merged_dataset(
    bct: BCTDataset,
    anobii: AnobiiDataset,
    config: MergeConfig | None = None,
    strict: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[MergedDataset, MergeReport]:
    """Run the merge over in-memory sources; see the module docstring.

    Malformed source rows (dangling foreign keys, impossible dates, blank
    ids, duplicate catalogue entries) are quarantined — collected into
    ``report.quarantine`` with row context — before the paper's cleaning
    filters run. ``strict=True`` raises :class:`PipelineError` when any
    row is malformed instead. BCT patrons and Anobii users are separate
    populations, so a user id found in both sources raises
    :class:`PipelineError` too.

    ``tracer``/``metrics`` are optional observability hooks: each stage
    (quarantine, cleaning, genre entropy-merge, catalogue match, readings
    union, activity filter, emit) runs in its own span under
    ``pipeline.merge_streaming``, and quarantined rows are counted per
    source table and reason in the ``pipeline.quarantined_rows`` counter.
    """
    result = run_merge(
        SourceView(bct, anobii), config,
        strict=strict, tracer=tracer, metrics=metrics,
    )
    assert result.dataset is not None
    return result.dataset, result.report


class SourceView:
    """In-memory sources read as one loan shard and one rating shard.

    Offers what :func:`run_merge` reads from a
    :class:`~repro.datasets.corpus.ShardedCorpus`: the catalogue tables as
    given; per source, the distinct user ids as an id table and an
    integer ``user`` column indexing it; dates as day offsets from
    1970-01-01 and loan durations in days. The columns are derived when
    the merge first reads them, so their cost lands in its stage spans.
    :func:`build_merged_dataset` merges through it in memory;
    ``run_merge(SourceView(bct, anobii), config, output_dir=...)`` writes
    the merged dataset to disk instead.
    """

    bct_epoch = anobii_epoch = np.datetime64("1970-01-01", "D")

    def __init__(self, bct: BCTDataset, anobii: AnobiiDataset) -> None:
        self._bct = bct
        self._anobii = anobii

    @cached_property
    def _users(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both sources' id tables and ``user`` columns; refuses a shared id."""
        bct_ids, loan_users = np.unique(
            self._bct.loans["user_id"], return_inverse=True
        )
        anobii_ids, rating_users = np.unique(
            self._anobii.ratings["user_id"], return_inverse=True
        )
        shared = np.intersect1d(bct_ids, anobii_ids)
        if len(shared):
            raise PipelineError(
                f"{len(shared)} user ids appear in both BCT and Anobii, "
                f"e.g. {shared[0]!r}; the merge keeps the two user spaces apart"
            )
        return bct_ids, loan_users, anobii_ids, rating_users

    @property
    def bct_user_ids(self) -> np.ndarray:
        return self._users[0]

    @property
    def anobii_user_ids(self) -> np.ndarray:
        return self._users[2]

    def bct_books(self) -> Table:
        return self._bct.books

    def anobii_items(self) -> Table:
        return self._anobii.items

    def iter_loan_shards(
        self, names: tuple[str, ...] | None = None
    ) -> Iterator[dict[str, np.ndarray]]:
        loans = self._bct.loans
        day = loans["loan_date"].astype(np.int64)
        columns = {
            "loan_id": loans["loan_id"],
            "user": self._users[1],
            "book_id": loans["book_id"],
            "day": day,
            "duration": loans["return_date"].astype(np.int64) - day,
        }
        yield {name: columns[name] for name in names or columns}

    def iter_rating_shards(
        self, names: tuple[str, ...] | None = None
    ) -> Iterator[dict[str, np.ndarray]]:
        ratings = self._anobii.ratings
        columns = {
            "rating_id": ratings["rating_id"],
            "user": self._users[3],
            "item_id": ratings["item_id"],
            "day": ratings["rating_date"].astype(np.int64),
            "rating": ratings["rating"],
        }
        yield {name: columns[name] for name in names or columns}


#: What :func:`run_merge` reads its sources from.
_Corpus = ShardedCorpus | SourceView


def _membership(sorted_array: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorised ``value in sorted_array`` over ``values``."""
    if len(sorted_array) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.searchsorted(sorted_array, values)
    np.minimum(positions, len(sorted_array) - 1, out=positions)
    return sorted_array[positions] == values


def _blank_ids(user_ids: np.ndarray) -> np.ndarray:
    """Mask of the ids that are empty or whitespace only."""
    return np.fromiter(
        (not str(user_id).strip() for user_id in user_ids),
        dtype=bool,
        count=len(user_ids),
    )


class _PairAccumulator:
    """Running (user code, book rank) pair counts, sorted by pair code.

    The streaming replacement for holding the readings table: both
    activity-filter floors (distinct books per user, events per book) and
    every report count derive from it, and its size is bounded by the
    number of *unique* pairs.
    """

    def __init__(self, n_matched_books: int) -> None:
        self.k = max(n_matched_books, 1)
        self.codes = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)

    def encode(self, user_codes: np.ndarray, book_ranks: np.ndarray) -> np.ndarray:
        codes = user_codes.astype(np.int64)
        codes *= self.k
        codes += book_ranks
        return codes

    def add(self, pair_codes: np.ndarray) -> None:
        """Fold one shard's row-level pair codes into the accumulator.

        A sorted-merge, not a re-sort: ``self.codes`` is already sorted
        and ``np.unique`` sorts the shard's codes, so existing pairs are
        found with one binary search and only genuinely new codes are
        spliced in. Transient memory stays O(shard + accumulator) with
        small constants — re-uniquing the concatenation (sort copy,
        inverse, float64 bincount) tripled the peak and was what the
        4x-shard RSS regression test caught.
        """
        if len(pair_codes) == 0:
            return
        unique, counts = np.unique(pair_codes, return_counts=True)
        if len(self.codes) == 0:
            self.codes = unique
            self.counts = counts
            return
        positions = np.minimum(
            np.searchsorted(self.codes, unique), len(self.codes) - 1
        )
        exists = self.codes[positions] == unique
        # `unique` has no repeats, so these positions are distinct and the
        # fancy-indexed += is well-defined.
        self.counts[positions[exists]] += counts[exists]
        if exists.all():
            return
        fresh = ~exists
        insert_at = np.searchsorted(self.codes, unique[fresh])
        self.codes = np.insert(self.codes, insert_at, unique[fresh])
        self.counts = np.insert(self.counts, insert_at, counts[fresh])

    def users(self) -> np.ndarray:
        return self.codes // self.k

    def books(self) -> np.ndarray:
        return self.codes % self.k

    def release(self) -> None:
        """Drop the accumulated arrays once the active set is extracted.

        Pass 2 only needs :meth:`encode` (a function of ``k``) and the
        caller's ``active_codes`` slice; freeing the full code/count
        arrays here keeps the emit phase's peak inside the RSS budget.
        """
        self.codes = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class _MergedRows:
    """The rows that survive the merge: pass 1's result, pass 2's input.

    :meth:`shards` re-reads the corpus and yields, shard by shard, which
    rows survive and the merged book id of each; ``books`` and ``genres``
    are the filtered catalogue tables and ``n_readings`` the row count.
    """

    corpus: _Corpus
    loan_keeps: list[np.ndarray]
    rating_keeps: list[np.ndarray]
    active_codes: np.ndarray
    matched_item_ids: np.ndarray
    mapped_book_ids: np.ndarray
    matched_book_ids: np.ndarray
    n_bct_users: int
    pairs: _PairAccumulator
    books: Table
    genres: Table
    n_readings: int

    def shards(
        self,
    ) -> Iterator[tuple[int, dict[str, np.ndarray], np.ndarray, np.ndarray]]:
        """Yield ``(source, shard, final_mask, final_book_ids)`` per shard.

        ``source`` indexes :data:`_SOURCE_NAMES`. ``final_mask`` selects rows
        that survived pass 1 *and* whose (user, book) pair is still active
        after the activity filter; ``final_book_ids`` holds the merged book
        id of exactly those rows (compact — never a full-shard scratch
        column). Shards are re-read with only the columns this pass emits,
        and the pair-code membership runs in :data:`_PASS_CHUNK` blocks,
        for the same O(block) transient bound as pass 1.
        """
        corpus, pairs = self.corpus, self.pairs
        loan_columns = ("user", "book_id", "day")
        for shard, keep in zip(corpus.iter_loan_shards(loan_columns), self.loan_keeps):
            final = keep.copy()
            for start in range(0, len(keep), _PASS_CHUNK):
                block = slice(start, min(start + _PASS_CHUNK, len(keep)))
                kept = keep[block]
                if not kept.any():
                    continue
                ranks = np.searchsorted(
                    self.matched_book_ids, shard["book_id"][block][kept]
                )
                codes = pairs.encode(shard["user"][block][kept], ranks)
                final[block][kept] = _membership(self.active_codes, codes)
            yield 0, shard, final, shard["book_id"][final]
        rating_columns = ("user", "item_id", "day")
        for shard, keep in zip(
            corpus.iter_rating_shards(rating_columns), self.rating_keeps
        ):
            final = keep.copy()
            for start in range(0, len(keep), _PASS_CHUNK):
                block = slice(start, min(start + _PASS_CHUNK, len(keep)))
                kept = keep[block]
                if not kept.any():
                    continue
                positions = np.searchsorted(
                    self.matched_item_ids, shard["item_id"][block][kept]
                )
                books = self.mapped_book_ids[positions]
                ranks = np.searchsorted(self.matched_book_ids, books)
                user_codes = shard["user"][block][kept].astype(np.int64)
                user_codes += self.n_bct_users
                final[block][kept] = _membership(
                    self.active_codes, pairs.encode(user_codes, ranks)
                )
            # Rows in `final` all matched in pass 1, so the positions are exact.
            positions = np.searchsorted(self.matched_item_ids, shard["item_id"][final])
            yield 1, shard, final, self.mapped_book_ids[positions]


def _catalogue_dedup(
    table: Table, table_name: str, key_column: str, quarantine: QuarantineReport
) -> Table:
    """Quarantine duplicate catalogue rows, keeping the first of each key."""
    keep = _keep_first_by_key(table[key_column].tolist())
    for i in np.flatnonzero(~keep):
        quarantine.add(table_name, int(i), f"duplicate {key_column}", table.row(int(i)))
    return table.filter(keep) if not keep.all() else table


def run_merge(
    corpus: _Corpus,
    config: MergeConfig | None = None,
    *,
    output_dir: str | Path | None = None,
    strict: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> StreamingMergeResult:
    """The Section-3 merge over a corpus's event shards (module docstring).

    ``corpus`` is a :class:`~repro.datasets.corpus.ShardedCorpus` or a
    :class:`SourceView` over in-memory sources. Without ``output_dir`` the
    merged dataset is assembled in memory and returned. With it, pass 2
    writes the surviving rows there instead, shard by shard, and the
    result's ``dataset`` is ``None``; :func:`load_merged_corpus` reloads
    the directory. ``strict=True`` raises :class:`PipelineError` when any
    source row is malformed.
    """
    config = config or MergeConfig()
    with start_span(tracer, "pipeline.merge_streaming"):
        # ------------------------------------------------------------------
        # catalogue side: O(books) memory
        # ------------------------------------------------------------------
        bct_quarantine = QuarantineReport()
        anobii_quarantine = QuarantineReport()
        with start_span(tracer, "pipeline.quarantine"):
            books_cat = _catalogue_dedup(
                corpus.bct_books(), "bct.books", "book_id", bct_quarantine
            )
            items_cat = _catalogue_dedup(
                corpus.anobii_items(), "anobii.items", "item_id", anobii_quarantine
            )
            bct_blank = _blank_ids(corpus.bct_user_ids)
            anobii_blank = _blank_ids(corpus.anobii_user_ids)

        known_book_ids = np.sort(books_cat["book_id"])
        known_item_ids = np.sort(items_cat["item_id"])

        with start_span(tracer, "pipeline.cleaning"):
            cleaned_books = books_cat.filter(italian_monographs(books_cat))
            cleaned_items = items_cat.filter(italian_books(items_cat))
        kept_book_ids = np.sort(cleaned_books["book_id"])
        kept_item_ids = np.sort(cleaned_items["item_id"])

        with start_span(tracer, "pipeline.genres") as span:
            genre_model = build_genre_model(cleaned_items)
            span.set_attrs(
                canonical_genres=len(set(genre_model.canonical_of.values())),
                dropped_genres=len(genre_model.dropped_genres),
            )

        with start_span(tracer, "pipeline.match") as span:
            item_of_book, unmatched_bct, unmatched_anobii = _match_catalogues(
                cleaned_books, cleaned_items
            )
            merged_books = _merged_books(cleaned_books, cleaned_items, item_of_book)
            span.set_attrs(
                matched_books=len(item_of_book),
                bct_only=unmatched_bct,
                anobii_only=unmatched_anobii,
            )
        matched_book_ids = np.sort(
            np.fromiter(item_of_book.keys(), dtype=np.int64, count=len(item_of_book))
        )
        # Last-wins inversion: an item matched by two books maps to the later.
        book_of_item = {item: book for book, item in item_of_book.items()}
        matched_item_ids = np.fromiter(
            book_of_item.keys(), dtype=np.int64, count=len(book_of_item)
        )
        mapped_book_ids = np.fromiter(
            book_of_item.values(), dtype=np.int64, count=len(book_of_item)
        )
        item_order = np.argsort(matched_item_ids)
        matched_item_ids = matched_item_ids[item_order]
        mapped_book_ids = mapped_book_ids[item_order]

        # ------------------------------------------------------------------
        # event pass 1: quarantine + clean + match + pair accumulation
        # ------------------------------------------------------------------
        n_bct_users = len(corpus.bct_user_ids)
        pairs = _PairAccumulator(len(matched_book_ids))
        loan_keeps: list[np.ndarray] = []
        rating_keeps: list[np.ndarray] = []
        loans_after_q = loans_after_clean = 0
        ratings_after_q = ratings_after_clean = 0

        with start_span(tracer, "pipeline.readings") as span:
            offset = 0
            for shard in corpus.iter_loan_shards():
                keep, n_ok, n_clean = _loan_shard_pass(
                    corpus, shard, offset, config, bct_blank,
                    known_book_ids, kept_book_ids, matched_book_ids,
                    pairs, bct_quarantine,
                )
                loan_keeps.append(keep)
                loans_after_q += n_ok
                loans_after_clean += n_clean
                offset += len(keep)
            offset = 0
            for shard in corpus.iter_rating_shards():
                keep, n_ok, n_clean = _rating_shard_pass(
                    corpus, shard, offset, anobii_blank,
                    known_item_ids, kept_item_ids,
                    matched_item_ids, mapped_book_ids, matched_book_ids,
                    n_bct_users, pairs, anobii_quarantine,
                )
                rating_keeps.append(keep)
                ratings_after_q += n_ok
                ratings_after_clean += n_clean
                offset += len(keep)
            span.set_attrs(readings=int(pairs.counts.sum()))

        quarantine = bct_quarantine.extend(anobii_quarantine)
        quarantine.raise_if(strict)
        if metrics is not None:
            counter = metrics.counter("pipeline.quarantined_rows")
            for (table, reason), count in sorted(quarantine.counts().items()):
                counter.labels(table=table, reason=reason).inc(count)

        bct_report = CleaningReport(
            step="bct italian monographs",
            catalogue_before=books_cat.num_rows,
            catalogue_after=cleaned_books.num_rows,
            events_before=loans_after_q,
            events_after=loans_after_clean,
        )
        anobii_report = CleaningReport(
            step=f"anobii italian books, rating >= {POSITIVE_RATING_THRESHOLD}",
            catalogue_before=items_cat.num_rows,
            catalogue_after=cleaned_items.num_rows,
            events_before=ratings_after_q,
            events_after=ratings_after_clean,
        )

        # ------------------------------------------------------------------
        # activity filters on the pair accumulator
        # ------------------------------------------------------------------
        pair_users = pairs.users()
        pair_books = pairs.books()
        readings_before = int(pairs.counts.sum())
        users_before = len(np.unique(pair_users))
        books_before = len(np.unique(pair_books))

        with start_span(tracer, "pipeline.activity_filter") as span:
            active = _filter_pairs(pair_users, pair_books, pairs.counts, config)
            span.set_attrs(
                readings_before=readings_before,
                readings_after=int(pairs.counts[active].sum()),
            )

        readings_after = int(pairs.counts[active].sum())
        users_after = len(np.unique(pair_users[active]))
        kept_ranks = np.unique(pair_books[active])
        kept_books = {int(matched_book_ids[r]) for r in kept_ranks}
        books_table = merged_books.filter(
            np.asarray(
                [b in kept_books for b in merged_books["book_id"]], dtype=bool
            )
        )
        genres_table = _genre_table(genre_model, item_of_book, kept_books)
        active_codes = pairs.codes[active]
        # Everything pass 2 needs is now in `active_codes`; free the
        # accumulator and its derived views before the emit phase peaks.
        pairs.release()
        del pair_users, pair_books, active

        # ------------------------------------------------------------------
        # event pass 2: emit surviving rows
        # ------------------------------------------------------------------
        rows = _MergedRows(
            corpus=corpus,
            loan_keeps=loan_keeps,
            rating_keeps=rating_keeps,
            active_codes=active_codes,
            matched_item_ids=matched_item_ids,
            mapped_book_ids=mapped_book_ids,
            matched_book_ids=matched_book_ids,
            n_bct_users=n_bct_users,
            pairs=pairs,
            books=books_table,
            genres=genres_table,
            n_readings=readings_after,
        )
        dataset: MergedDataset | None = None
        with start_span(tracer, "pipeline.emit") as span:
            if output_dir is None:
                dataset = MergedDataset(
                    books=books_table,
                    readings=_materialise_readings(rows),
                    genres=genres_table,
                )
                dataset.validate()
            else:
                _write_merged_corpus(Path(output_dir), config, rows)
            span.set_attrs(readings=readings_after)

    if metrics is not None:
        metrics.gauge("pipeline.readings").set(float(readings_after))
        metrics.gauge("pipeline.books").set(float(books_table.num_rows))
    report = MergeReport(
        cleaning=(bct_report, anobii_report),
        matched_books=len(item_of_book),
        bct_only_books=unmatched_bct,
        anobii_only_books=unmatched_anobii,
        readings_before_filter=readings_before,
        readings_after_filter=readings_after,
        users_before_filter=users_before,
        users_after_filter=users_after,
        books_before_filter=books_before,
        books_after_filter=books_table.num_rows,
        genre_model=genre_model,
        quarantine=quarantine,
    )
    return StreamingMergeResult(report=report, dataset=dataset)


def _loan_shard_pass(
    corpus: _Corpus,
    shard: dict[str, np.ndarray],
    offset: int,
    config: MergeConfig,
    blank_users: np.ndarray,
    known_book_ids: np.ndarray,
    kept_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    pairs: _PairAccumulator,
    quarantine: QuarantineReport,
) -> tuple[np.ndarray, int, int]:
    """Reduce one loan shard: quarantine, clean, match, accumulate pairs.

    A row is quarantined for the first of: a dangling book id, a blank
    user id, a return before the loan. Rows are processed in
    :data:`_PASS_CHUNK` blocks, and a block has at most ``n_books``
    *distinct* book ids, so membership tests and rank lookups run on the
    unique values and broadcast back through ``return_inverse`` —
    transient temporaries are O(block), not O(shard), which is what keeps
    the pass inside the 4x-shard RSS budget the regression test enforces.
    """
    n_rows = len(shard["book_id"])
    keep = np.empty(n_rows, dtype=bool)
    n_ok = n_clean = 0
    for start in range(0, n_rows, _PASS_CHUNK):
        block = slice(start, min(start + _PASS_CHUNK, n_rows))
        book_ids = shard["book_id"][block]
        duration = shard["duration"][block]
        blank_user = blank_users[shard["user"][block]]
        unique_books, inverse = np.unique(book_ids, return_inverse=True)
        valid_book = _membership(known_book_ids, unique_books)[inverse]
        ok = valid_book & ~blank_user & (duration >= 0)
        for i in np.flatnonzero(~ok):
            row = start + int(i)
            if not valid_book[i]:
                reason = "dangling book_id"
            elif blank_user[i]:
                reason = "blank user_id"
            else:
                reason = "returned before borrowed"
            quarantine.add(
                "bct.loans", offset + row, reason, _loan_context(corpus, shard, row)
            )
        cleaned = ok & _membership(kept_book_ids, unique_books)[inverse]
        keep_block = (
            cleaned
            & _membership(matched_book_ids, unique_books)[inverse]
            & (duration >= config.min_loan_days)
        )
        if keep_block.any():
            unique_ranks = np.searchsorted(matched_book_ids, unique_books)
            np.minimum(unique_ranks, len(matched_book_ids) - 1, out=unique_ranks)
            pairs.add(
                pairs.encode(
                    shard["user"][block][keep_block], unique_ranks[inverse[keep_block]]
                )
            )
        keep[block] = keep_block
        n_ok += int(ok.sum())
        n_clean += int(cleaned.sum())
    return keep, n_ok, n_clean


def _rating_shard_pass(
    corpus: _Corpus,
    shard: dict[str, np.ndarray],
    offset: int,
    blank_users: np.ndarray,
    known_item_ids: np.ndarray,
    kept_item_ids: np.ndarray,
    matched_item_ids: np.ndarray,
    mapped_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    n_bct_users: int,
    pairs: _PairAccumulator,
    quarantine: QuarantineReport,
) -> tuple[np.ndarray, int, int]:
    """Reduce one rating shard: quarantine, clean, map items, accumulate.

    A row is quarantined for the first of: a dangling item id, a blank
    user id, a rating outside 1-5 stars. Same block + unique-values
    structure as :func:`_loan_shard_pass`; the item → merged-book mapping
    collapses to one lookup table over each block's distinct item ids.
    """
    n_rows = len(shard["item_id"])
    keep = np.empty(n_rows, dtype=bool)
    n_ok = n_clean = 0
    for start in range(0, n_rows, _PASS_CHUNK):
        block = slice(start, min(start + _PASS_CHUNK, n_rows))
        item_ids = shard["item_id"][block]
        rating = shard["rating"][block]
        blank_user = blank_users[shard["user"][block]]
        unique_items, inverse = np.unique(item_ids, return_inverse=True)
        valid_item = _membership(known_item_ids, unique_items)[inverse]
        ok = valid_item & ~blank_user & (rating >= 1) & (rating <= 5)
        for i in np.flatnonzero(~ok):
            row = start + int(i)
            if not valid_item[i]:
                reason = "dangling item_id"
            elif blank_user[i]:
                reason = "blank user_id"
            else:
                reason = "rating outside [1, 5]"
            quarantine.add(
                "anobii.ratings",
                offset + row,
                reason,
                _rating_context(corpus, shard, row),
            )
        cleaned = (
            ok
            & _membership(kept_item_ids, unique_items)[inverse]
            & (rating >= POSITIVE_RATING_THRESHOLD)
        )
        keep_block = cleaned & _membership(matched_item_ids, unique_items)[inverse]
        if keep_block.any():
            positions = np.searchsorted(matched_item_ids, unique_items)
            np.minimum(positions, len(matched_item_ids) - 1, out=positions)
            unique_ranks = np.searchsorted(
                matched_book_ids, mapped_book_ids[positions]
            )
            user_codes = shard["user"][block][keep_block].astype(np.int64)
            user_codes += n_bct_users
            pairs.add(pairs.encode(user_codes, unique_ranks[inverse[keep_block]]))
        keep[block] = keep_block
        n_ok += int(ok.sum())
        n_clean += int(cleaned.sum())
    return keep, n_ok, n_clean


def _filter_pairs(
    pair_users: np.ndarray,
    pair_books: np.ndarray,
    counts: np.ndarray,
    config: MergeConfig,
) -> np.ndarray:
    """The activity filters over unique (user, book) pairs.

    Light users (fewer distinct books than ``min_user_readings``) and cold
    books (fewer events than ``min_book_readings``) are dropped; as in
    the paper, both floors are evaluated on the unfiltered counts and
    applied once.
    """
    user_degree = np.bincount(pair_users)
    book_events = np.bincount(pair_books, weights=counts)
    keep_users = user_degree >= config.min_user_readings
    keep_books = book_events >= config.min_book_readings
    return keep_users[pair_users] & keep_books[pair_books]


def _loan_context(corpus: _Corpus, shard: dict[str, np.ndarray], i: int) -> dict:
    loan_date = corpus.bct_epoch + np.timedelta64(int(shard["day"][i]), "D")
    return {
        "loan_id": int(shard["loan_id"][i]),
        "user_id": str(corpus.bct_user_ids[int(shard["user"][i])]),
        "book_id": int(shard["book_id"][i]),
        "loan_date": loan_date,
        "return_date": loan_date + np.timedelta64(int(shard["duration"][i]), "D"),
    }


def _rating_context(corpus: _Corpus, shard: dict[str, np.ndarray], i: int) -> dict:
    return {
        "rating_id": int(shard["rating_id"][i]),
        "user_id": str(corpus.anobii_user_ids[int(shard["user"][i])]),
        "item_id": int(shard["item_id"][i]),
        "rating": int(shard["rating"][i]),
        "rating_date": corpus.anobii_epoch + np.timedelta64(int(shard["day"][i]), "D"),
    }


def _materialise_readings(rows: _MergedRows) -> Table:
    """Assemble the merged readings table: loans first, then ratings."""
    corpus = rows.corpus
    user_parts, book_parts, date_parts, source_parts = [], [], [], []
    for source, shard, final, book_ids in rows.shards():
        n = int(final.sum())
        if not n:
            continue
        if source == 0:
            user_parts.append(corpus.bct_user_ids[shard["user"][final]])
            epoch = corpus.bct_epoch
        else:
            user_parts.append(corpus.anobii_user_ids[shard["user"][final]])
            epoch = corpus.anobii_epoch
        book_parts.append(book_ids)
        date_parts.append(epoch + shard["day"][final].astype("timedelta64[D]"))
        # np.full(n, label, dtype=object) would build a new str per row;
        # repeat shares the one label object.
        source_parts.append(np.repeat(_SOURCE_NAMES[source:source + 1], n))
    return _readings_table(user_parts, book_parts, date_parts, source_parts)


def _readings_table(
    user_parts: list[np.ndarray],
    book_parts: list[np.ndarray],
    date_parts: list[np.ndarray],
    source_parts: list[np.ndarray],
) -> Table:
    """A :data:`READINGS_SCHEMA` table from per-shard column parts."""
    return Table.from_columns(
        {
            "user_id": np.concatenate(user_parts)
            if user_parts
            else np.asarray([], dtype=object),
            "book_id": np.concatenate(book_parts)
            if book_parts
            else np.asarray([], dtype=np.int64),
            "read_date": np.concatenate(date_parts)
            if date_parts
            else np.asarray([], dtype="datetime64[D]"),
            "source": np.concatenate(source_parts)
            if source_parts
            else np.asarray([], dtype=object),
        },
        schema=READINGS_SCHEMA,
    )


def _write_merged_corpus(out_dir: Path, config: MergeConfig, rows: _MergedRows) -> None:
    """Write the merged readings as npz shards + csv catalogues + manifest.

    The readings shards index one ``users.npz`` id table, so no user id
    string is written per reading. The manifest goes last and vouches for
    every file, so a write cut short once its first file has landed is
    refused on load.
    """
    corpus = rows.corpus
    out_dir.mkdir(parents=True, exist_ok=True)
    user_ids = np.concatenate(
        [
            np.asarray(ids, dtype=str)
            for ids in (corpus.bct_user_ids, corpus.anobii_user_ids)
        ]
    )
    files: list[Path] = []
    users_path = out_dir / "users.npz"
    write_npz_columns(users_path, {"user_id": user_ids})
    files.append(users_path)

    epoch_days = {
        0: int(corpus.bct_epoch.astype("datetime64[D]").astype(np.int64)),
        1: int(corpus.anobii_epoch.astype("datetime64[D]").astype(np.int64)),
    }
    shard_rows: list[int] = []
    for index, (source, shard, final, book_ids) in enumerate(rows.shards()):
        n = int(final.sum())
        users = shard["user"][final]
        if source == 1:
            users = users + np.int32(rows.n_bct_users)
        path = out_dir / f"readings-{index:05d}.npz"
        write_npz_columns(
            path,
            {
                "user": users,
                "book_id": book_ids,
                "day": shard["day"][final].astype(np.int64) + epoch_days[source],
                "source": np.full(n, source, dtype=np.int8),
            },
        )
        files.append(path)
        shard_rows.append(n)

    books_path = out_dir / "books.csv"
    write_csv(rows.books, books_path)
    files.append(books_path)
    genres_path = out_dir / "genres.csv"
    write_csv(rows.genres, genres_path)
    files.append(genres_path)

    write_manifest(
        out_dir,
        files,
        kind=MERGED_CORPUS_KIND,
        extra={
            "merged": {
                "readings": rows.n_readings,
                "shards": len(shard_rows),
                "shard_rows": shard_rows,
                "books": rows.books.num_rows,
                "min_user_readings": config.min_user_readings,
                "min_book_readings": config.min_book_readings,
            }
        },
    )


def load_merged_corpus(path: str | Path) -> MergedDataset:
    """Reload the merged dataset that ``run_merge(..., output_dir=path)`` wrote.

    Verifies every file against the directory's checksum manifest first
    (:class:`~repro.errors.PersistenceError` on a missing manifest or file,
    a truncated or altered file, or a manifest of another kind), then
    rebuilds the same :class:`~repro.datasets.MergedDataset` the in-memory
    merge returns (validated), reading the readings shards in order.
    """
    path = Path(path)
    manifest = verify_manifest(path, kind=MERGED_CORPUS_KIND)
    meta = manifest.get("merged", {})
    user_ids = np.asarray(
        read_npz_columns(path / "users.npz")["user_id"].tolist(), dtype=object
    )
    user_parts, book_parts, date_parts, source_parts = [], [], [], []
    for index in range(int(meta.get("shards", 0))):
        shard = read_npz_columns(path / f"readings-{index:05d}.npz")
        if not len(shard["user"]):
            continue
        user_parts.append(user_ids[shard["user"]])
        book_parts.append(shard["book_id"])
        date_parts.append(shard["day"].astype("datetime64[D]"))
        source_parts.append(_SOURCE_NAMES[shard["source"].astype(np.int64)])
    merged = MergedDataset(
        books=read_csv(path / "books.csv"),
        readings=_readings_table(user_parts, book_parts, date_parts, source_parts),
        genres=read_csv(path / "genres.csv"),
    )
    merged.validate()
    return merged


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

"""Streaming merge: the Section-3 pipeline over a sharded corpus.

:func:`merge_sharded_corpus` runs the exact pipeline of
:func:`repro.pipeline.merge.build_merged_dataset` — quarantine, cleaning,
genre model, catalogue match, readings union, activity filters — without
ever materialising the event tables. The catalogue-side stages are cheap
(O(books)) and reuse the in-memory helpers verbatim; the event-side
stages stream over the corpus shards in two passes:

1. **Accumulate.** Each shard is reduced to (a) a per-row survival mask
   through quarantine/cleaning/match, and (b) its *unique (user, book)
   pair counts*, merged into a running sorted accumulator. Everything the
   activity filters and the :class:`~repro.pipeline.merge.MergeReport`
   need — distinct users/books, per-book event counts, readings counts —
   derives from the pair accumulator, whose size is O(unique pairs), not
   O(events).
2. **Emit.** Shards are re-read and the rows surviving the activity
   filter are either assembled into the same in-memory
   :class:`~repro.datasets.MergedDataset` the materialised path builds
   (``materialise=True``, the equivalence-test mode) or written back out
   as merged readings shards (``output_dir=...``, the out-of-core mode,
   reloadable via :func:`load_merged_corpus`).

The contract — bit-identical tables and an identical ``MergeReport``
versus the in-memory path — is pinned by
``tests/pipeline/test_streaming_merge.py`` and documented in
``docs/determinism.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.bct import KEPT_LANGUAGE, KEPT_MATERIALS
from repro.datasets.corpus import ShardedCorpus
from repro.datasets.merged import MergedDataset
from repro.datasets.models import READINGS_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.pipeline.cleaning import CleaningReport, QuarantineReport, _keep_first_by_key
from repro.pipeline.genres import build_genre_model
from repro.pipeline.merge import (
    MergeConfig,
    MergeReport,
    _genre_table,
    _match_catalogues,
    _merged_books,
)
from repro.resilience.artefacts import MANIFEST_NAME, write_manifest
from repro.tables import Table, read_csv, write_csv
from repro.tables.io import read_npz_columns, write_npz_columns

#: Manifest ``kind`` of a streamed merge output directory.
MERGED_CORPUS_KIND = "merged-corpus"

_SOURCE_NAMES = np.asarray(["bct", "anobii"], dtype=object)

#: Row-block size for the per-shard passes. Work inside a shard proceeds
#: in fixed blocks so transient temporaries (membership positions, pair
#: codes) are O(block), decoupling peak memory from the shard row count.
_PASS_CHUNK = 65_536


@dataclass(frozen=True)
class StreamingMergeResult:
    """What :func:`merge_sharded_corpus` produced.

    ``dataset`` is populated in ``materialise=True`` mode;
    ``output_dir`` in out-of-core mode. The ``report`` is always present
    and identical to the in-memory path's.
    """

    report: MergeReport
    dataset: MergedDataset | None = None
    output_dir: Path | None = None


def _membership(sorted_array: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorised ``value in sorted_array`` over ``values``."""
    if len(sorted_array) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.searchsorted(sorted_array, values)
    np.minimum(positions, len(sorted_array) - 1, out=positions)
    return sorted_array[positions] == values


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


def _catalogue_dedup(
    table: Table, table_name: str, key_column: str, quarantine: QuarantineReport
) -> Table:
    """Quarantine duplicate catalogue rows, mirroring the in-memory pass."""
    keep = _keep_first_by_key(table[key_column].tolist())
    for i in np.flatnonzero(~keep):
        quarantine.add(table_name, int(i), f"duplicate {key_column}", table.row(int(i)))
    return table.filter(keep) if not keep.all() else table


def merge_sharded_corpus(
    corpus: ShardedCorpus,
    config: MergeConfig | None = None,
    *,
    materialise: bool = True,
    output_dir: str | Path | None = None,
    strict: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> StreamingMergeResult:
    """Run the merge pipeline over a sharded corpus without materialising it.

    Equivalent to ``build_merged_dataset(*corpus.materialise(), config)``
    — same merged tables (when ``materialise=True``), same
    :class:`MergeReport`, same metrics series — but peak memory is bounded
    by the catalogue plus a single shard, not the corpus
    (``tests/pipeline/test_streaming_merge.py``). With ``output_dir`` the
    merged readings are written back out as npz shards plus ``books.csv``
    / ``genres.csv`` under a checksum manifest instead of (or in addition
    to) being assembled in memory; reload with :func:`load_merged_corpus`.
    """
    config = config or MergeConfig()
    with start_span(tracer, "pipeline.merge_streaming"):
        # ------------------------------------------------------------------
        # catalogue side: identical helpers, O(books) memory
        # ------------------------------------------------------------------
        bct_quarantine = QuarantineReport()
        anobii_quarantine = QuarantineReport()
        with start_span(tracer, "pipeline.quarantine") as span:
            books_cat = _catalogue_dedup(
                corpus.bct_books(), "bct.books", "book_id", bct_quarantine
            )
            items_cat = _catalogue_dedup(
                corpus.anobii_items(), "anobii.items", "item_id", anobii_quarantine
            )

        known_book_ids = np.sort(books_cat["book_id"])
        known_item_ids = np.sort(items_cat["item_id"])

        with start_span(tracer, "pipeline.cleaning"):
            books_keep = np.asarray(
                [
                    material in KEPT_MATERIALS and language == KEPT_LANGUAGE
                    for material, language in zip(
                        books_cat["material"], books_cat["language"]
                    )
                ],
                dtype=bool,
            )
            cleaned_books = books_cat.filter(books_keep)
            items_keep = np.asarray(
                [
                    bool(is_book) and language == KEPT_LANGUAGE
                    for is_book, language in zip(
                        items_cat["is_book"], items_cat["language"]
                    )
                ],
                dtype=bool,
            )
            cleaned_items = items_cat.filter(items_keep)
        kept_book_ids = np.sort(cleaned_books["book_id"])
        kept_item_ids = np.sort(cleaned_items["item_id"])

        with start_span(tracer, "pipeline.genres"):
            genre_model = build_genre_model(
                cleaned_items,
                max_book_share=config.genre_max_book_share,
                min_books=config.genre_min_books,
                min_affinity=config.genre_min_affinity,
            )

        with start_span(tracer, "pipeline.match"):
            item_of_book, unmatched_bct, unmatched_anobii = _match_catalogues(
                cleaned_books, cleaned_items
            )
            merged_books = _merged_books(cleaned_books, cleaned_items, item_of_book)
        matched_book_ids = np.sort(
            np.fromiter(item_of_book.keys(), dtype=np.int64, count=len(item_of_book))
        )
        # Same last-wins inversion the in-memory readings builder uses.
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
                    corpus, shard, offset, config,
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
                    corpus, shard, offset, config,
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
            step=f"anobii italian books, rating >= {config.min_rating}",
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
            active = _filter_pairs(pair_users, pair_books, pairs, config)
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
        dataset: MergedDataset | None = None
        out_path: Path | None = None
        with start_span(tracer, "pipeline.emit") as span:
            if output_dir is not None:
                out_path = _write_merged_corpus(
                    corpus, Path(output_dir), config,
                    loan_keeps, rating_keeps, active_codes,
                    matched_item_ids, mapped_book_ids, matched_book_ids,
                    n_bct_users, pairs,
                    books_table, genres_table, readings_after,
                )
            if materialise:
                readings = _materialise_readings(
                    corpus, loan_keeps, rating_keeps, active_codes,
                    matched_item_ids, mapped_book_ids, matched_book_ids,
                    n_bct_users, pairs,
                )
                dataset = MergedDataset(
                    books=books_table, readings=readings, genres=genres_table
                )
                dataset.validate()
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
    return StreamingMergeResult(report=report, dataset=dataset, output_dir=out_path)


def _loan_shard_pass(
    corpus: ShardedCorpus,
    shard: dict[str, np.ndarray],
    offset: int,
    config: MergeConfig,
    known_book_ids: np.ndarray,
    kept_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    pairs: _PairAccumulator,
    quarantine: QuarantineReport,
) -> tuple[np.ndarray, int, int]:
    """Reduce one loan shard: quarantine, clean, match, accumulate pairs.

    Rows are processed in :data:`_PASS_CHUNK` blocks, and a block has at
    most ``n_books`` *distinct* book ids, so membership tests and rank
    lookups run on the unique values and broadcast back through
    ``return_inverse`` — transient temporaries are O(block), not
    O(shard), which is what keeps the pass inside the 4x-shard RSS
    budget the regression test enforces.
    """
    n_rows = len(shard["book_id"])
    keep = np.empty(n_rows, dtype=bool)
    n_ok = n_clean = 0
    for start in range(0, n_rows, _PASS_CHUNK):
        block = slice(start, min(start + _PASS_CHUNK, n_rows))
        book_ids = shard["book_id"][block]
        duration = shard["duration"][block]
        unique_books, inverse = np.unique(book_ids, return_inverse=True)
        valid_book = _membership(known_book_ids, unique_books)[inverse]
        ok = valid_book & (duration >= 0)
        for i in np.flatnonzero(~ok):
            row = start + int(i)
            reason = (
                "dangling book_id" if not valid_book[i] else "returned before borrowed"
            )
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
    corpus: ShardedCorpus,
    shard: dict[str, np.ndarray],
    offset: int,
    config: MergeConfig,
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

    Same block + unique-values structure as :func:`_loan_shard_pass`;
    the item → merged-book mapping collapses to one lookup table over
    each block's distinct item ids.
    """
    n_rows = len(shard["item_id"])
    keep = np.empty(n_rows, dtype=bool)
    n_ok = n_clean = 0
    for start in range(0, n_rows, _PASS_CHUNK):
        block = slice(start, min(start + _PASS_CHUNK, n_rows))
        item_ids = shard["item_id"][block]
        rating = shard["rating"][block]
        unique_items, inverse = np.unique(item_ids, return_inverse=True)
        valid_item = _membership(known_item_ids, unique_items)[inverse]
        ok = valid_item & (rating >= 1) & (rating <= 5)
        for i in np.flatnonzero(~ok):
            row = start + int(i)
            reason = (
                "dangling item_id" if not valid_item[i] else "rating outside [1, 5]"
            )
            quarantine.add(
                "anobii.ratings",
                offset + row,
                reason,
                _rating_context(corpus, shard, row),
            )
        cleaned = (
            ok
            & _membership(kept_item_ids, unique_items)[inverse]
            & (rating >= config.min_rating)
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
    pairs: _PairAccumulator,
    config: MergeConfig,
) -> np.ndarray:
    """The activity-filter fixpoint loop over unique pairs.

    Semantics mirror the in-memory ``_apply_activity_filters``: both
    floors are evaluated on the currently-active pairs and applied in one
    pass; ``iterate_activity_filter`` repeats until nothing drops.
    """
    n_users = int(pair_users.max()) + 1 if len(pair_users) else 0
    n_books = int(pair_books.max()) + 1 if len(pair_books) else 0
    active = np.ones(len(pairs.codes), dtype=bool)
    while True:
        user_degree = np.bincount(pair_users[active], minlength=n_users)
        book_events = np.bincount(
            pair_books[active], weights=pairs.counts[active], minlength=n_books
        ).astype(np.int64)
        keep_users = user_degree >= config.min_user_readings
        keep_books = book_events >= config.min_book_readings
        keep = active & keep_users[pair_users] & keep_books[pair_books]
        if np.array_equal(keep, active):
            return active
        active = keep
        if not config.iterate_activity_filter:
            return active


def _loan_context(
    corpus: ShardedCorpus, shard: dict[str, np.ndarray], i: int
) -> dict:
    loan_date = corpus.bct_epoch + np.timedelta64(int(shard["day"][i]), "D")
    return {
        "loan_id": int(shard["loan_id"][i]),
        "user_id": str(corpus.bct_user_ids[int(shard["user"][i])]),
        "book_id": int(shard["book_id"][i]),
        "loan_date": loan_date,
        "return_date": loan_date + np.timedelta64(int(shard["duration"][i]), "D"),
    }


def _rating_context(
    corpus: ShardedCorpus, shard: dict[str, np.ndarray], i: int
) -> dict:
    return {
        "rating_id": int(shard["rating_id"][i]),
        "user_id": str(corpus.anobii_user_ids[int(shard["user"][i])]),
        "item_id": int(shard["item_id"][i]),
        "rating": int(shard["rating"][i]),
        "rating_date": corpus.anobii_epoch + np.timedelta64(int(shard["day"][i]), "D"),
    }


def _final_row_masks(
    corpus: ShardedCorpus,
    loan_keeps: list[np.ndarray],
    rating_keeps: list[np.ndarray],
    active_codes: np.ndarray,
    matched_item_ids: np.ndarray,
    mapped_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    n_bct_users: int,
    pairs: _PairAccumulator,
):
    """Yield ``(source, shard, final_mask, final_book_ids)`` per shard.

    ``final_mask`` selects rows that survived pass 1 *and* whose (user,
    book) pair is still active after the activity filter;
    ``final_book_ids`` holds the merged book id of exactly those rows
    (compact — never a full-shard scratch column). Shards are re-read
    with only the columns this pass emits, and the pair-code membership
    runs in :data:`_PASS_CHUNK` blocks, for the same O(block) transient
    bound as pass 1.
    """
    loan_columns = ("user", "book_id", "day")
    for shard, keep in zip(corpus.iter_loan_shards(loan_columns), loan_keeps):
        final = keep.copy()
        for start in range(0, len(keep), _PASS_CHUNK):
            block = slice(start, min(start + _PASS_CHUNK, len(keep)))
            kept = keep[block]
            if not kept.any():
                continue
            ranks = np.searchsorted(matched_book_ids, shard["book_id"][block][kept])
            codes = pairs.encode(shard["user"][block][kept], ranks)
            final[block][kept] = _membership(active_codes, codes)
        yield 0, shard, final, shard["book_id"][final]
    rating_columns = ("user", "item_id", "day")
    for shard, keep in zip(corpus.iter_rating_shards(rating_columns), rating_keeps):
        final = keep.copy()
        for start in range(0, len(keep), _PASS_CHUNK):
            block = slice(start, min(start + _PASS_CHUNK, len(keep)))
            kept = keep[block]
            if not kept.any():
                continue
            positions = np.searchsorted(
                matched_item_ids, shard["item_id"][block][kept]
            )
            books = mapped_book_ids[positions]
            ranks = np.searchsorted(matched_book_ids, books)
            user_codes = shard["user"][block][kept].astype(np.int64)
            user_codes += n_bct_users
            final[block][kept] = _membership(
                active_codes, pairs.encode(user_codes, ranks)
            )
        # Rows in `final` all matched in pass 1, so the positions are exact.
        positions = np.searchsorted(matched_item_ids, shard["item_id"][final])
        yield 1, shard, final, mapped_book_ids[positions]


def _materialise_readings(
    corpus: ShardedCorpus,
    loan_keeps: list[np.ndarray],
    rating_keeps: list[np.ndarray],
    active_codes: np.ndarray,
    matched_item_ids: np.ndarray,
    mapped_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    n_bct_users: int,
    pairs: _PairAccumulator,
) -> Table:
    """Assemble the full readings table — bit-identical to the in-memory one."""
    user_parts, book_parts, date_parts, source_parts = [], [], [], []
    for source, shard, final, book_ids in _final_row_masks(
        corpus, loan_keeps, rating_keeps, active_codes,
        matched_item_ids, mapped_book_ids, matched_book_ids, n_bct_users, pairs,
    ):
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
        source_parts.append(np.full(n, _SOURCE_NAMES[source], dtype=object))
    empty_dates = np.asarray([], dtype="datetime64[D]")
    return Table.from_columns(
        {
            "user_id": np.concatenate(user_parts)
            if user_parts
            else np.asarray([], dtype=object),
            "book_id": np.concatenate(book_parts)
            if book_parts
            else np.asarray([], dtype=np.int64),
            "read_date": np.concatenate(date_parts) if date_parts else empty_dates,
            "source": np.concatenate(source_parts)
            if source_parts
            else np.asarray([], dtype=object),
        },
        schema=READINGS_SCHEMA,
    )


def _write_merged_corpus(
    corpus: ShardedCorpus,
    out_dir: Path,
    config: MergeConfig,
    loan_keeps: list[np.ndarray],
    rating_keeps: list[np.ndarray],
    active_codes: np.ndarray,
    matched_item_ids: np.ndarray,
    mapped_book_ids: np.ndarray,
    matched_book_ids: np.ndarray,
    n_bct_users: int,
    pairs: _PairAccumulator,
    books_table: Table,
    genres_table: Table,
    readings_after: int,
) -> Path:
    """Write the merged readings as npz shards + csv catalogues + manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    user_ids = np.concatenate(
        [
            np.asarray(corpus.bct_user_ids, dtype=str)
            if len(corpus.bct_user_ids)
            else np.asarray([], dtype="U1"),
            np.asarray(corpus.anobii_user_ids, dtype=str)
            if len(corpus.anobii_user_ids)
            else np.asarray([], dtype="U1"),
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
    index = 0
    shard_rows: list[int] = []
    for source, shard, final, book_ids in _final_row_masks(
        corpus, loan_keeps, rating_keeps, active_codes,
        matched_item_ids, mapped_book_ids, matched_book_ids, n_bct_users, pairs,
    ):
        n = int(final.sum())
        users = shard["user"][final]
        if source == 1:
            users = users + np.int32(n_bct_users)
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
        index += 1

    books_path = out_dir / "books.csv"
    write_csv(books_table, books_path)
    files.append(books_path)
    genres_path = out_dir / "genres.csv"
    write_csv(genres_table, genres_path)
    files.append(genres_path)

    write_manifest(
        out_dir,
        files,
        kind=MERGED_CORPUS_KIND,
        extra={
            "merged": {
                "readings": readings_after,
                "shards": len(shard_rows),
                "shard_rows": shard_rows,
                "books": books_table.num_rows,
                "min_user_readings": config.min_user_readings,
                "min_book_readings": config.min_book_readings,
            }
        },
    )
    return out_dir


def load_merged_corpus(path: str | Path) -> MergedDataset:
    """Reload a merged corpus written by ``merge_sharded_corpus(output_dir=...)``.

    Rebuilds the same :class:`~repro.datasets.MergedDataset` the
    materialised path produces (validated), reading the readings shards in
    order.
    """
    path = Path(path)
    manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
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
    empty_dates = np.asarray([], dtype="datetime64[D]")
    readings = Table.from_columns(
        {
            "user_id": np.concatenate(user_parts)
            if user_parts
            else np.asarray([], dtype=object),
            "book_id": np.concatenate(book_parts)
            if book_parts
            else np.asarray([], dtype=np.int64),
            "read_date": np.concatenate(date_parts) if date_parts else empty_dates,
            "source": np.concatenate(source_parts)
            if source_parts
            else np.asarray([], dtype=object),
        },
        schema=READINGS_SCHEMA,
    )
    merged = MergedDataset(
        books=read_csv(path / "books.csv"),
        readings=readings,
        genres=read_csv(path / "genres.csv"),
    )
    merged.validate()
    return merged

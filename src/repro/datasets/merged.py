"""The merged dataset: BCT ⋈ Anobii, as built by the Section-3 pipeline.

A :class:`MergedDataset` is the training substrate of every recommender in
the paper. It has three tables:

- ``books`` — one row per book present in *both* sources, carrying the union
  of the useful attributes (author and title from BCT; plot and keywords
  from Anobii);
- ``readings`` — the unified implicit-feedback table: BCT loans plus Anobii
  positive ratings, each tagged with its ``source``;
- ``genres`` — the cleaned genre model: up to four (book, genre,
  probability) rows per book, probabilities summing to one.

Construction logic lives in :mod:`repro.pipeline.merge`; this module is the
validated container plus its read API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.datasets.models import (
    BOOK_GENRES_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.errors import DatasetError
from repro.tables import Table

VALID_SOURCES = frozenset({"bct", "anobii"})


@dataclass(frozen=True)
class MergedDataset:
    """The merged BCT + Anobii dataset (see module docstring)."""

    books: Table
    readings: Table
    genres: Table

    def __post_init__(self) -> None:
        for table, schema, name in (
            (self.books, MERGED_BOOKS_SCHEMA, "books"),
            (self.readings, READINGS_SCHEMA, "readings"),
            (self.genres, BOOK_GENRES_SCHEMA, "genres"),
        ):
            if table.schema != schema:
                raise DatasetError(
                    f"merged {name} table has schema {table.schema!r}; "
                    f"expected {schema!r}"
                )

    def validate(self) -> None:
        """Full integrity check; merged datasets must always pass this."""
        known = self.books["book_id"]
        dangling = np.setdiff1d(self.readings["book_id"], known)
        if len(dangling):
            raise DatasetError(
                f"{len(dangling)} readings reference unknown books, "
                f"e.g. {dangling[:5].tolist()}"
            )
        unknown = set(self.readings["source"][~self._from_sources(VALID_SOURCES)])
        if unknown:
            raise DatasetError(f"unknown reading sources: {unknown}")
        if not np.isin(self.genres["book_id"], known).all():
            raise DatasetError("genre rows reference unknown books")
        # Per-book genre probabilities must sum to ~1 (paper Section 3).
        sums: dict[int, float] = {}
        for book_id, prob in zip(self.genres["book_id"], self.genres["probability"]):
            sums[int(book_id)] = sums.get(int(book_id), 0.0) + float(prob)
        bad = {b: s for b, s in sums.items() if abs(s - 1.0) > 1e-6}
        if bad:
            book, total = next(iter(bad.items()))
            raise DatasetError(
                f"{len(bad)} books have genre probabilities not summing to 1, "
                f"e.g. book {book} sums to {total:.4f}"
            )

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------

    @property
    def n_books(self) -> int:
        return self.books.num_rows

    @property
    def n_readings(self) -> int:
        return self.readings.num_rows

    @cached_property
    def user_ids(self) -> tuple[str, ...]:
        """All user ids, sorted (stable across runs)."""
        return tuple(sorted(set(self.readings["user_id"])))

    @cached_property
    def bct_user_ids(self) -> tuple[str, ...]:
        """Users coming from the BCT source — the recommendation targets."""
        mask = self.readings["source"] == "bct"
        return tuple(sorted(set(self.readings["user_id"][mask])))

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    # ------------------------------------------------------------------
    # characterisation
    # ------------------------------------------------------------------

    def readings_per_user(self) -> Table:
        """Table (user_id, n_readings) in user id order — Fig. 1's per-user
        distribution."""
        return self._count_by("user_id")

    def readings_per_book(self) -> Table:
        """Table (book_id, n_readings) in book id order — Fig. 1's per-book
        distribution."""
        return self._count_by("book_id")

    def _count_by(self, key: str) -> Table:
        """Readings per distinct ``key``, counted over the column."""
        keys, counts = np.unique(self.readings[key], return_counts=True)
        return Table.from_columns({key: keys, "n_readings": counts})

    # ------------------------------------------------------------------
    # metadata access for the content-based recommender
    # ------------------------------------------------------------------

    @cached_property
    def genre_probabilities(self) -> dict[int, dict[str, float]]:
        """``{book_id: {genre: probability}}`` from the genres table."""
        table: dict[int, dict[str, float]] = {}
        for book_id, genre, prob in zip(
            self.genres["book_id"], self.genres["genre"], self.genres["probability"]
        ):
            table.setdefault(int(book_id), {})[str(genre)] = float(prob)
        return table

    def restrict_to_sources(self, sources: frozenset[str] | set[str]) -> "MergedDataset":
        """Return a dataset keeping only readings from the given sources.

        This is how the paper's *BPR (BCT only)* configuration is obtained:
        ``merged.restrict_to_sources({"bct"})`` keeps the catalogue and genre
        model intact but trains on library loans alone.
        """
        unknown = set(sources) - VALID_SOURCES
        if unknown:
            raise DatasetError(f"unknown sources: {sorted(unknown)}")
        return MergedDataset(
            books=self.books,
            readings=self.readings.filter(self._from_sources(sources)),
            genres=self.genres,
        )

    def _from_sources(self, sources: frozenset[str] | set[str]) -> np.ndarray:
        """Mask of the readings whose ``source`` is one of ``sources``."""
        column = self.readings["source"]
        mask = np.zeros(len(column), dtype=bool)
        for source in sources:
            mask |= column == source
        return mask

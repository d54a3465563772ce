"""Container for the BCT source (Books + Loans tables).

Mirrors the *Biblioteche Civiche di Torino* dump described in Section 3 of
the paper: a catalogue table and nine years of loan events. The container
validates referential integrity; :func:`italian_monographs` is the paper's
source-level catalogue filter (Italian monographs and manuscripts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.models import BCT_BOOKS_SCHEMA, BCT_LOANS_SCHEMA
from repro.errors import DatasetError
from repro.tables import Table

#: Material types the paper keeps ("monographies and manuscripts").
KEPT_MATERIALS = frozenset({"monograph", "manuscript"})

#: Edition language the paper keeps.
KEPT_LANGUAGE = "ita"


def italian_monographs(books: Table) -> np.ndarray:
    """Mask of the catalogue rows the paper keeps: Italian monographs and
    manuscripts."""
    return np.asarray(
        [
            material in KEPT_MATERIALS and language == KEPT_LANGUAGE
            for material, language in zip(books["material"], books["language"])
        ],
        dtype=bool,
    )


@dataclass(frozen=True)
class BCTDataset:
    """The BCT source: a ``books`` catalogue and a ``loans`` event table."""

    books: Table
    loans: Table

    def __post_init__(self) -> None:
        if self.books.schema != BCT_BOOKS_SCHEMA:
            raise DatasetError(
                f"BCT books table has schema {self.books.schema!r}; "
                f"expected {BCT_BOOKS_SCHEMA!r}"
            )
        if self.loans.schema != BCT_LOANS_SCHEMA:
            raise DatasetError(
                f"BCT loans table has schema {self.loans.schema!r}; "
                f"expected {BCT_LOANS_SCHEMA!r}"
            )

    def validate(self) -> None:
        """Check referential integrity; raise :class:`DatasetError` on failure.

        Validation is separate from construction because a raw dump may be
        legitimately dirty — the pipeline decides what to do with it — but
        merged datasets must always pass.
        """
        known_books = set(self.books["book_id"].tolist())
        referenced = set(self.loans["book_id"].tolist())
        dangling = referenced - known_books
        if dangling:
            sample = sorted(dangling)[:5]
            raise DatasetError(
                f"{len(dangling)} loans reference unknown books, e.g. {sample}"
            )
        book_ids = self.books["book_id"]
        if len(set(book_ids.tolist())) != len(book_ids):
            raise DatasetError("duplicate book_id values in the BCT catalogue")
        if self.loans.num_rows:
            negative = self.loans["return_date"] < self.loans["loan_date"]
            if negative.any():
                raise DatasetError(
                    f"{int(negative.sum())} loans returned before they were "
                    "borrowed"
                )

    # ------------------------------------------------------------------
    # characterisation helpers
    # ------------------------------------------------------------------

    @property
    def n_books(self) -> int:
        return self.books.num_rows

    @property
    def n_loans(self) -> int:
        return self.loans.num_rows

    @property
    def n_users(self) -> int:
        return len(set(self.loans["user_id"].tolist()))

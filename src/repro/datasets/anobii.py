"""Container for the Anobii source (Items + Ratings tables).

Mirrors the Anobii social-network dump described in Section 3 of the paper:
a rich item catalogue (plot, keywords, crowd-voted genres) plus explicit 1-5
star ratings. The paper's source-level filters are :func:`italian_books`
for the catalogue and :data:`POSITIVE_RATING_THRESHOLD` for the ratings
(keep only positive feedback, rating >= 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.models import ANOBII_ITEMS_SCHEMA, ANOBII_RATINGS_SCHEMA
from repro.errors import DatasetError
from repro.tables import Table

#: Rating threshold below which feedback is treated as negative and dropped
#: (paper Section 3: "we remove rows with ratings lower than 3").
POSITIVE_RATING_THRESHOLD = 3

KEPT_LANGUAGE = "ita"


def italian_books(items: Table) -> np.ndarray:
    """Mask of the catalogue rows the paper keeps: Italian items that are
    books."""
    return np.asarray(
        [
            bool(is_book) and language == KEPT_LANGUAGE
            for is_book, language in zip(items["is_book"], items["language"])
        ],
        dtype=bool,
    )


@dataclass(frozen=True)
class AnobiiDataset:
    """The Anobii source: an ``items`` catalogue and a ``ratings`` table."""

    items: Table
    ratings: Table

    def __post_init__(self) -> None:
        if self.items.schema != ANOBII_ITEMS_SCHEMA:
            raise DatasetError(
                f"Anobii items table has schema {self.items.schema!r}; "
                f"expected {ANOBII_ITEMS_SCHEMA!r}"
            )
        if self.ratings.schema != ANOBII_RATINGS_SCHEMA:
            raise DatasetError(
                f"Anobii ratings table has schema {self.ratings.schema!r}; "
                f"expected {ANOBII_RATINGS_SCHEMA!r}"
            )

    def validate(self) -> None:
        """Check referential integrity and rating bounds."""
        known_items = set(self.items["item_id"].tolist())
        referenced = set(self.ratings["item_id"].tolist())
        dangling = referenced - known_items
        if dangling:
            sample = sorted(dangling)[:5]
            raise DatasetError(
                f"{len(dangling)} ratings reference unknown items, e.g. {sample}"
            )
        ratings = self.ratings["rating"]
        if len(ratings) and (ratings.min() < 1 or ratings.max() > 5):
            raise DatasetError(
                f"ratings outside [1, 5]: min={ratings.min()} max={ratings.max()}"
            )
        item_ids = self.items["item_id"]
        if len(set(item_ids.tolist())) != len(item_ids):
            raise DatasetError("duplicate item_id values in the Anobii catalogue")

    # ------------------------------------------------------------------
    # characterisation helpers
    # ------------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return self.items.num_rows

    @property
    def n_ratings(self) -> int:
        return self.ratings.num_rows

    @property
    def n_users(self) -> int:
        return len(set(self.ratings["user_id"].tolist()))

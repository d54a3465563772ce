"""The Most Read Items baseline (paper Section 4).

Counts how often each book was read in the training set and recommends the
global top-``k`` to every user. Per the paper, "the same recommendations
apply to all users" — already-read books are *not* removed, which is why
this baseline underperforms even Random Items in Table 1: the most popular
books tend to already sit in an active user's history.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Recommender
from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset


class MostReadItems(Recommender):
    """Global popularity ranking.

    Args:
        personalized: when True, deviates from the paper by masking each
            user's already-read books (the conventional popularity
            baseline). Default False reproduces the paper's variant.
    """

    def __init__(self, personalized: bool = False) -> None:
        super().__init__()
        self.exclude_seen = personalized

    @property
    def name(self) -> str:
        return "Most Read Items" + (" (personalized)" if self.exclude_seen else "")

    def _fit(self, train: InteractionMatrix, dataset: MergedDataset | None) -> None:
        counts = train.item_counts().astype(np.float64)
        # Tiny index-based tiebreak keeps the ranking total and deterministic.
        self._scores = counts - np.arange(len(counts)) * 1e-9
        # Ranked once here: the service asks for the top-k per request.
        self._order = np.argsort(-self._scores, kind="stable")

    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        return np.tile(self._scores, (len(user_indices), 1))

    def top_items(self, k: int) -> np.ndarray:
        """The global top-``k`` item indices (identical for every user).

        A fresh array each call, so a caller may write into it.
        """
        return self._order[:k].copy()

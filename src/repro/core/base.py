"""The :class:`Recommender` interface shared by all algorithms.

The contract mirrors the paper's Section 4: a recommender is fitted on the
training interactions (plus, for content-based models, the merged dataset's
metadata), produces a relevance *score* for every (user, item) pair, and
recommends the top-``k`` items by score. Whether already-read books are
excluded from recommendations is a per-model property: Random Items and the
personalised models skip them, while Most Read Items deliberately does not
("the same recommendations apply to all users").
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, NotFittedError

#: Score assigned to masked (already read) items before ranking.
EXCLUDED_SCORE = -np.inf


class Recommender(abc.ABC):
    """Base class for all recommenders.

    Subclasses implement :meth:`_fit` and :meth:`score_users`; everything
    else (top-k cutting, seen-item masking, full rankings) is shared.
    """

    #: Whether recommendations skip books the user has already read.
    exclude_seen: bool = True

    def __init__(self) -> None:
        self._train: InteractionMatrix | None = None

    # ------------------------------------------------------------------
    # template methods
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable algorithm name (defaults to the class name)."""
        return type(self).__name__

    @property
    def is_fitted(self) -> bool:
        return self._train is not None

    @property
    def train(self) -> InteractionMatrix:
        if self._train is None:
            raise NotFittedError(self.name)
        return self._train

    def fit(
        self, train: InteractionMatrix, dataset: MergedDataset | None = None
    ) -> "Recommender":
        """Fit on the training interactions.

        ``dataset`` provides book metadata; content-based models require it
        and collaborative models ignore it.
        """
        self._train = train
        self._fit(train, dataset)
        return self

    @abc.abstractmethod
    def _fit(
        self, train: InteractionMatrix, dataset: MergedDataset | None
    ) -> None:
        """Model-specific fitting logic."""

    @abc.abstractmethod
    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        """Relevance scores for a batch of users.

        Returns a ``(len(user_indices), n_items)`` float matrix. Higher is
        better; scores are only compared within a row, so scales need not
        match across models.
        """

    # ------------------------------------------------------------------
    # shared recommendation logic
    # ------------------------------------------------------------------

    def masked_scores(self, user_indices: np.ndarray) -> np.ndarray:
        """Scores with already-read items masked out (if the model excludes
        them).

        The mask is applied as a single CSR-driven scatter
        (:func:`mask_seen_rows`): the chunk's (row, item) pairs are
        materialised directly from the training matrix's
        ``indptr``/``indices`` arrays and written with one fancy-index
        assignment, avoiding any per-user Python loop.
        """
        user_indices = np.asarray(user_indices, dtype=np.int64)
        scores = self.score_users(user_indices)
        if self.exclude_seen and len(user_indices):
            mask_seen_rows(scores, self.train.csr, user_indices)
        return scores

    def rank_items(self, user_index: int) -> np.ndarray:
        """The user's full ranking: item indices sorted by decreasing score.

        Masked items sort last. Used by the First Rank (FR) metric, which
        the paper computes on the full ranking rather than the top-k cut.
        """
        scores = self.masked_scores(np.asarray([user_index]))[0]
        return np.argsort(-scores, kind="stable")

    def recommend(self, user_index: int, k: int) -> np.ndarray:
        """Top-``k`` item indices for one user (``R_u`` in the paper).

        Masked (already read) items are never recommended, so fewer than
        ``k`` items come back when the user has read nearly the whole
        catalogue.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        scores = self.masked_scores(np.asarray([user_index]))[0]
        return _top_k(scores, k)

    def recommend_batch(
        self, user_indices: np.ndarray, k: int
    ) -> list[np.ndarray]:
        """:meth:`recommend` for many users in one scoring pass.

        The top-k cut (:func:`top_k_rows`) runs a single ``argpartition``
        over the whole chunk (axis 1) followed by one vectorised stable
        sort of the k selected columns, instead of per-row partition/sort
        calls. Returns one array per user (lengths may differ near
        catalogue exhaustion, so the result is a list rather than a
        matrix); rankings are identical to calling :meth:`recommend` per
        user.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        user_indices = np.asarray(user_indices, dtype=np.int64)
        return top_k_rows(self.masked_scores(user_indices), k)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    k = min(k, len(scores))
    partition = np.argpartition(-scores, kth=k - 1)[:k]
    ordered = partition[np.argsort(-scores[partition], kind="stable")]
    return ordered[scores[ordered] > EXCLUDED_SCORE]


def mask_seen_rows(
    scores: np.ndarray, csr, user_indices: np.ndarray
) -> np.ndarray:
    """Scatter :data:`EXCLUDED_SCORE` over each row's seen items, in place.

    ``csr`` is the training interaction matrix's CSR form; row ``r`` of
    ``scores`` belongs to ``user_indices[r]``. This is the masking
    kernel behind :meth:`Recommender.masked_scores`. Returns ``scores``
    for chaining.
    """
    starts = csr.indptr[user_indices]
    counts = csr.indptr[user_indices + 1] - starts
    total = int(counts.sum())
    if total:
        rows = np.repeat(np.arange(len(user_indices)), counts)
        ends = np.cumsum(counts)
        within = np.arange(total) - np.repeat(ends - counts, counts)
        cols = csr.indices[np.repeat(starts, counts) + within]
        scores[rows, cols] = EXCLUDED_SCORE
    return scores


def top_k_rows(scores: np.ndarray, k: int) -> list[np.ndarray]:
    """Batched top-k cut over a ``(rows, n_items)`` score matrix.

    One ``argpartition`` over the chunk, one vectorised stable sort of
    the selected columns; rows with fewer than ``k`` unmasked items come
    back short. The cut kernel behind :meth:`Recommender.recommend_batch`.
    """
    if scores.shape[0] == 0:
        return []
    kth = min(k, scores.shape[1])
    partition = np.argpartition(-scores, kth=kth - 1, axis=1)[:, :kth]
    part_scores = np.take_along_axis(scores, partition, axis=1)
    order = np.argsort(-part_scores, axis=1, kind="stable")
    top = np.take_along_axis(partition, order, axis=1)
    top_scores = np.take_along_axis(part_scores, order, axis=1)
    return [
        items[row_scores > EXCLUDED_SCORE]
        for items, row_scores in zip(top, top_scores)
    ]

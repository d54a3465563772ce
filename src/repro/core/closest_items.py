"""The Closest Items content-based recommender (paper Section 4, Eq. 1).

For each unread book ``b``, its score is the *average* cosine similarity
between its metadata-summary embedding and the embeddings of the books the
user has already read:

    s_b = (1 / |N_u|) * sum_{i in N_u} s_{b,i}

The metadata summary is a configurable concatenation of title, author,
plot, genres, and keywords (Section 6.2 ablates every combination; author +
genres wins). Embeddings come from any :class:`SentenceEmbedder`; the
default is the SBERT substitute :class:`HashedTfidfEmbedder`.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Recommender
from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.text.embedder import HashedTfidfEmbedder, SentenceEmbedder
from repro.text.similarity import cosine_similarity_matrix
from repro.text.summary import MetadataSummaryBuilder


class ClosestItems(Recommender):
    """Content-based recommendation by average similarity to the history.

    Args:
        fields: metadata fields forming the summary. Defaults to the
            paper's best combination, ``("author", "genres")``.
        embedder: a fitted-on-demand sentence embedder. Defaults to a fresh
            :class:`HashedTfidfEmbedder`.
    """

    exclude_seen = True

    def __init__(
        self,
        fields: tuple[str, ...] = ("author", "genres"),
        embedder: SentenceEmbedder | None = None,
    ) -> None:
        super().__init__()
        self.summary_builder = MetadataSummaryBuilder(fields)
        self.embedder = embedder or HashedTfidfEmbedder()
        self._similarity: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "Closest Items"

    @property
    def fields(self) -> tuple[str, ...]:
        return self.summary_builder.fields

    def _fit(self, train: InteractionMatrix, dataset: MergedDataset | None) -> None:
        if dataset is None:
            raise ConfigurationError(
                "ClosestItems needs the merged dataset's metadata; "
                "pass dataset= to fit()"
            )
        summaries_by_book = self.summary_builder.build_all(dataset)
        try:
            summaries = [
                summaries_by_book[int(train.items.id_of(i))]
                for i in range(train.n_items)
            ]
        except KeyError as exc:
            raise ConfigurationError(
                f"training matrix contains a book without metadata: {exc}"
            ) from exc
        self.embedder.fit(summaries)
        self._similarity = cosine_similarity_matrix(
            self.embedder.encode(summaries)
        )
        # A book is trivially most similar to itself; zero the diagonal so
        # self-similarity never contributes to Eq. (1).
        np.fill_diagonal(self._similarity, 0.0)

    @property
    def similarity(self) -> np.ndarray:
        """The item-item cosine similarity matrix (diagonal zeroed)."""
        if self._similarity is None:
            raise NotFittedError(self.name)
        return self._similarity

    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        user_indices = np.asarray(user_indices, dtype=np.int64)
        train = self.train
        similarity = self.similarity
        scores = np.zeros((len(user_indices), train.n_items), dtype=np.float64)
        for row, user_index in enumerate(user_indices):
            history = train.user_items(int(user_index))
            if history.size:
                scores[row] = similarity[:, history].mean(axis=1)
        return scores

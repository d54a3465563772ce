"""The Closest Items content-based recommender (paper Section 4, Eq. 1).

For each unread book ``b``, its score is the *average* cosine similarity
between its metadata-summary embedding and the embeddings of the books the
user has already read:

    s_b = (1 / |N_u|) * sum_{i in N_u} s_{b,i}

The metadata summary is a configurable concatenation of title, author,
plot, genres, and keywords (Section 6.2 ablates every combination; author +
genres wins). Embeddings come from any :class:`SentenceEmbedder`; the
default is the SBERT substitute :class:`HashedTfidfEmbedder`.

Serving-scale controls: ``block_size`` and ``dtype`` bound the similarity
build's working set (see :func:`~repro.text.similarity.cosine_similarity_matrix`),
and ``top_n_neighbors`` switches to a truncated sparse similarity — each
item keeps only its ``n`` strongest neighbours in a CSR matrix, and Eq. (1)
becomes one sparse matmul against the chunk's user-history indicator rows
instead of a per-user ``similarity[:, history].mean`` loop.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.base import Recommender
from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.text.embedder import HashedTfidfEmbedder, SentenceEmbedder
from repro.text.similarity import (
    cosine_similarity_matrix,
    truncated_similarity_matrix,
)
from repro.text.summary import MetadataSummaryBuilder


class ClosestItems(Recommender):
    """Content-based recommendation by average similarity to the history.

    Args:
        fields: metadata fields forming the summary. Defaults to the
            paper's best combination, ``("author", "genres")``.
        embedder: a fitted-on-demand sentence embedder. Defaults to a fresh
            :class:`HashedTfidfEmbedder`.
        top_n_neighbors: when set, keep only each item's ``n`` strongest
            similarities in a CSR matrix (O(B·n) memory instead of the
            O(B²) dense matrix) and score via sparse matmul. ``None``
            (the default) keeps the paper's exact dense similarity.
        block_size: row-block size for the similarity build; ``None``
            computes it in one pass.
        dtype: similarity precision (``np.float64`` default;
            ``np.float32`` halves memory).
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, the
            fit emits ``closest_items.summaries`` / ``.embed`` /
            ``.similarity`` spans. ``None`` (default) is allocation-free.
        metrics: optional registry recording the fitted similarity's
            footprint (``closest_items.similarity_nbytes`` gauge).
    """

    exclude_seen = True

    def __init__(
        self,
        fields: tuple[str, ...] = ("author", "genres"),
        embedder: SentenceEmbedder | None = None,
        top_n_neighbors: int | None = None,
        block_size: int | None = None,
        dtype: np.dtype | type = np.float64,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__()
        if top_n_neighbors is not None and top_n_neighbors < 1:
            raise ConfigurationError(
                f"top_n_neighbors must be >= 1 or None, got {top_n_neighbors}"
            )
        self.summary_builder = MetadataSummaryBuilder(fields)
        self.embedder = embedder or HashedTfidfEmbedder()
        self.top_n_neighbors = top_n_neighbors
        self.block_size = block_size
        self.dtype = dtype
        self.tracer = tracer
        self.metrics = metrics
        self._similarity: np.ndarray | None = None
        self._similarity_sparse: sparse.csr_matrix | None = None

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
        with start_span(
            self.tracer, "closest_items.summaries", n_items=train.n_items
        ):
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
        with start_span(
            self.tracer, "closest_items.embed", n_summaries=len(summaries)
        ):
            self.embedder.fit(summaries)
            embeddings = self.embedder.encode(summaries)
        sparse_mode = self.top_n_neighbors is not None
        with start_span(
            self.tracer, "closest_items.similarity", sparse=sparse_mode
        ) as span:
            if sparse_mode:
                self._similarity_sparse = truncated_similarity_matrix(
                    embeddings,
                    self.top_n_neighbors,
                    block_size=self.block_size,
                    dtype=self.dtype,
                )
                self._similarity = None
            else:
                self._similarity = cosine_similarity_matrix(
                    embeddings, block_size=self.block_size, dtype=self.dtype
                )
                # A book is trivially most similar to itself; zero the
                # diagonal so self-similarity never contributes to Eq. (1).
                np.fill_diagonal(self._similarity, 0.0)
                self._similarity_sparse = None
            nbytes = self.similarity_nbytes()
            span.set_attrs(similarity_nbytes=nbytes)
        if self.metrics is not None:
            self.metrics.gauge("closest_items.similarity_nbytes").set(
                float(nbytes)
            )

    @property
    def similarity(self) -> np.ndarray:
        """The item-item cosine similarity matrix (diagonal zeroed).

        In truncated sparse mode this densifies the CSR matrix.
        """
        if self._similarity is not None:
            return self._similarity
        if self._similarity_sparse is not None:
            return self._similarity_sparse.toarray()
        raise NotFittedError(self.name)

    def similarity_nbytes(self) -> int:
        """Bytes held by the fitted similarity representation."""
        if self._similarity_sparse is not None:
            csr = self._similarity_sparse
            return int(
                csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
            )
        if self._similarity is not None:
            return int(self._similarity.nbytes)
        raise NotFittedError(self.name)

    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        user_indices = np.asarray(user_indices, dtype=np.int64)
        train = self.train
        if self._similarity_sparse is not None:
            # Eq. (1) for the whole chunk in one sparse matmul: the binary
            # history rows H (chunk × B) against S^T give
            # (H @ S^T)[u, b] = sum_{i in N_u} s_{b,i}; divide by |N_u|.
            history = train.binary()[user_indices]
            sums = np.asarray(
                (history @ self._similarity_sparse.T).todense(),
                dtype=np.float64,
            )
            counts = np.asarray(history.sum(axis=1)).ravel()
            safe = np.where(counts > 0, counts, 1.0)
            return sums / safe[:, None]
        similarity = self.similarity
        scores = np.zeros((len(user_indices), train.n_items), dtype=np.float64)
        for row, user_index in enumerate(user_indices):
            history = train.user_items(int(user_index))
            if history.size:
                scores[row] = similarity[:, history].mean(axis=1)
        return scores

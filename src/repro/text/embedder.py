"""Sentence embedders: the interface and the SBERT substitute.

The paper encodes each book's metadata summary with a pre-trained SBERT
model (Reimers & Gurevych 2019) and compares books by cosine similarity.
:class:`HashedTfidfEmbedder` plays that role here: a deterministic
fit-on-catalogue encoder whose cosine geometry reflects shared vocabulary
(author names, genre labels, plot themes). See the subpackage docstring for
why this substitution preserves the paper's content-based findings.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import NotFittedError
from repro.text.hashing import hashed_counts
from repro.text.tfidf import TfidfModel
from repro.text.tokenize import tokenize


@runtime_checkable
class SentenceEmbedder(Protocol):
    """Anything that maps strings to fixed-dimension unit vectors.

    ``fit`` learns corpus statistics (a no-op for pre-trained models);
    ``encode`` maps a batch of strings to an ``(n, dim)`` float matrix with
    L2-normalised rows, so dot products are cosine similarities.
    """

    dim: int

    def fit(self, corpus: Sequence[str]) -> "SentenceEmbedder":
        """Learn whatever statistics the embedder needs from the corpus."""
        ...

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(len(texts), dim)`` matrix."""
        ...


class HashedTfidfEmbedder:
    """The default embedder: hashed word+char-n-gram TF-IDF (SBERT stand-in).

    Deterministic, dependency-free, and fast: encoding the paper-scale
    catalogue (2 332 summaries) takes well under a second.

    Args:
        dim: width of the hashed feature space. 512 keeps collision noise
            below ~2 % cosine error for catalogue-sized vocabularies.
        sublinear_tf: dampen repeated tokens (recommended; long plots stop
            dominating the author tokens).
    """

    def __init__(self, dim: int = 512, sublinear_tf: bool = True) -> None:
        self.dim = dim
        self._tfidf = TfidfModel(dim=dim, sublinear_tf=sublinear_tf)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has learned corpus statistics yet."""
        return self._tfidf.is_fitted

    def fit(self, corpus: Sequence[str]) -> "HashedTfidfEmbedder":
        """Learn bucket document frequencies from the catalogue summaries."""
        self._tfidf.fit([self._hash(str(text)) for text in corpus])
        return self

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Embed ``texts``; raises :class:`NotFittedError` before ``fit``."""
        if not self._tfidf.is_fitted:
            raise NotFittedError(type(self).__name__)
        return self._tfidf.transform_many(
            [self._hash(str(text)) for text in texts]
        )

    def _hash(self, text: str) -> dict[int, float]:
        return hashed_counts(tokenize(text), self.dim)


class HashedCountEmbedder(HashedTfidfEmbedder):
    """Ablation variant: hashed counts without IDF weighting.

    Used by the design-choice ablation benches to quantify what the IDF
    weighting contributes to the Closest Items recommender.
    """

    def __init__(self, dim: int = 512) -> None:
        super().__init__(dim=dim, sublinear_tf=False)

    def fit(self, corpus: Sequence[str]) -> "HashedCountEmbedder":
        """Record the corpus size; IDF stays flat so counts pass through."""
        # Flat IDF: fit on an empty corpus so every bucket gets weight 1.
        self._tfidf.fit([])
        self._tfidf._idf = np.ones(self.dim)
        self._tfidf._n_documents = len(corpus)
        return self

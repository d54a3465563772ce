"""TF-IDF weighting over the hashed feature space.

Equivalent to a hashing vectorizer followed by a TF-IDF transformer: the
document-frequency statistics are learned per hash bucket on a fitted
corpus, then any document (including unseen ones) can be transformed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


class TfidfModel:
    """Bucket-level TF-IDF with smoothed IDF and sublinear TF.

    IDF uses the smoothed form ``ln((1 + N) / (1 + df)) + 1`` so unseen
    buckets still receive a finite weight. Sublinear TF keeps long plots
    from drowning short high-signal fields like the author name.
    """

    def __init__(self, dim: int, sublinear_tf: bool = True) -> None:
        self.dim = dim
        self.sublinear_tf = sublinear_tf
        self._idf: np.ndarray | None = None
        self._n_documents = 0

    @property
    def is_fitted(self) -> bool:
        return self._idf is not None

    def fit(self, documents: list[dict[int, float]]) -> "TfidfModel":
        """Learn bucket document frequencies from sparse hashed documents."""
        df = np.zeros(self.dim, dtype=np.float64)
        for counts in documents:
            for bucket, value in counts.items():
                if value != 0.0:
                    df[bucket] += 1.0
        return self.fit_from_counts(df, len(documents))

    def fit_from_counts(
        self, document_frequencies: np.ndarray, n_documents: int
    ) -> "TfidfModel":
        """Fit from precomputed per-bucket document frequencies.

        :meth:`fit` accumulates them document by document and ends here.
        """
        df = np.asarray(document_frequencies, dtype=np.float64)
        if df.shape != (self.dim,):
            raise ConfigurationError(
                f"document_frequencies must have shape ({self.dim},), "
                f"got {df.shape}"
            )
        self._idf = np.log((1.0 + n_documents) / (1.0 + df)) + 1.0
        self._n_documents = n_documents
        return self

    def transform(self, counts: dict[int, float]) -> np.ndarray:
        """Weight one sparse hashed document into a dense L2-normalised vector."""
        if self._idf is None:
            raise NotFittedError(type(self).__name__)
        vector = np.zeros(self.dim, dtype=np.float64)
        for bucket, value in counts.items():
            if value == 0.0:
                continue
            magnitude = abs(value)
            if self.sublinear_tf:
                magnitude = 1.0 + math.log(magnitude)
            vector[bucket] = math.copysign(magnitude, value) * self._idf[bucket]
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def transform_many(self, documents: list[dict[int, float]]) -> np.ndarray:
        """Transform a batch into an ``(n, dim)`` matrix of unit rows."""
        matrix = np.zeros((len(documents), self.dim), dtype=np.float64)
        for i, counts in enumerate(documents):
            matrix[i] = self.transform(counts)
        return matrix

"""Cosine similarity between the rows of an embedding matrix."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def cosine_similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise float64 cosine similarity between the rows of ``embeddings``.

    Rows do not need to be pre-normalised; zero rows yield zero similarity
    rather than NaN. Returns an ``(n, n)`` matrix from one matrix product.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ConfigurationError(
            f"embeddings must be 2-D, got shape {embeddings.shape}"
        )
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    normed = embeddings / np.where(norms > 0, norms, 1.0)
    # Rounding at extreme magnitudes can push a product epsilon past the
    # mathematical bounds; clip so downstream code can rely on [-1, 1].
    return np.clip(normed @ normed.T, -1.0, 1.0)

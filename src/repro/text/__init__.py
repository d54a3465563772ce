"""Text embedding substrate — the SBERT substitute.

The paper embeds each book's *metadata summary* with a pre-trained SBERT
model and ranks unread books by average cosine similarity to the user's
history. Pre-trained transformer weights are not available offline, so this
subpackage provides a deterministic drop-in:
:class:`~repro.text.embedder.HashedTfidfEmbedder` maps a string to a dense
L2-normalised vector via signed feature hashing of word and character
n-grams, weighted by TF-IDF learned on the catalogue.

What matters for reproducing the paper's content-based results is that the
embedding makes summaries sharing authors, genres, and vocabulary close in
cosine space — which both SBERT and this embedder do — not transformer
semantics; the CB conclusions (author+genre best, title-only ≈ random) are
about *which fields* enter the summary.
"""

from repro.text.tokenize import normalize_text, tokenize
from repro.text.hashing import hash_feature
from repro.text.tfidf import TfidfModel
from repro.text.embedder import HashedTfidfEmbedder, SentenceEmbedder
from repro.text.similarity import cosine_similarity_matrix
from repro.text.summary import (
    METADATA_FIELDS,
    MetadataSummaryBuilder,
)

__all__ = [
    "normalize_text",
    "tokenize",
    "hash_feature",
    "TfidfModel",
    "HashedTfidfEmbedder",
    "SentenceEmbedder",
    "cosine_similarity_matrix",
    "METADATA_FIELDS",
    "MetadataSummaryBuilder",
]

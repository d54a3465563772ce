"""Text normalisation and tokenisation for the embedding substrate."""

from __future__ import annotations

import unicodedata


def normalize_text(text: str) -> str:
    """Lower-case, strip accents, and collapse non-alphanumerics to spaces."""
    decomposed = unicodedata.normalize("NFKD", text.lower())
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in stripped)
    return " ".join(cleaned.split())


def word_tokens(normalized: str) -> list[str]:
    """Whitespace word tokens of an already-normalised string."""
    return normalized.split()


def char_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of a token, with ``#`` boundary markers.

    Boundary markers make prefixes/suffixes distinct features, which is what
    lets hashed n-grams approximate subword similarity.
    """
    padded = f"#{token}#"
    grams = []
    for n in range(n_min, n_max + 1):
        if len(padded) < n:
            continue
        grams.extend(padded[i:i + n] for i in range(len(padded) - n + 1))
    return grams


def tokenize(text: str) -> list[str]:
    """Word tokens and their character 3- and 4-grams from raw text.

    Word tokens capture exact shared vocabulary (author names, genre
    labels); character n-grams capture partial matches (inflected forms,
    multi-word names split differently across sources). Word features are
    prefixed ``w=`` and n-grams ``c=`` so the two families never collide in
    the hashing space by carrying identical strings.
    """
    features: list[str] = []
    for token in word_tokens(normalize_text(text)):
        features.append(f"w={token}")
        features.extend(f"c={gram}" for gram in char_ngrams(token, 3, 4))
    return features

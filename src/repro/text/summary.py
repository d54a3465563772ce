"""Building the *metadata summary* strings for the Closest Items recommender.

The paper (Section 4, "Closest Items") concatenates a configurable subset of
a book's metadata — title, author(s), plot, genres, keywords — into one
string, embeds it, and compares books in that embedding space. Section 6.2
then ablates every combination; Fig. 5 shows author+genres is best, and
title-only is no better than random.

The genre field is rendered with repetition proportional to each genre's
probability so that a 90 %-Comics book and a 40 %-Comics book embed
differently, mirroring the vote-weighted genre model of Section 3.
"""

from __future__ import annotations

from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError

#: The five metadata fields, in the paper's order.
METADATA_FIELDS = ("title", "author", "plot", "genres", "keywords")

#: How many repetitions a probability-1 genre receives in the summary.
GENRE_REPEATS = 4


class MetadataSummaryBuilder:
    """Builds metadata-summary strings for every book of a merged dataset.

    Args:
        fields: which metadata fields to concatenate. The paper's best
            combination, ``("author", "genres")``, is the default.
    """

    def __init__(self, fields: tuple[str, ...] = ("author", "genres")) -> None:
        unknown = set(fields) - set(METADATA_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown metadata fields {sorted(unknown)}; "
                f"expected a subset of {METADATA_FIELDS}"
            )
        if not fields:
            raise ConfigurationError("at least one metadata field is required")
        self.fields = tuple(fields)

    def build_all(self, dataset: MergedDataset) -> dict[int, str]:
        """Return ``{book_id: summary string}`` for the whole catalogue."""
        genre_probs = dataset.genre_probabilities
        summaries: dict[int, str] = {}
        books = dataset.books
        for book_id, author, title, plot, keywords in zip(
            books["book_id"], books["author"], books["title"],
            books["plot"], books["keywords"],
        ):
            book_id = int(book_id)
            summaries[book_id] = self.build_one(
                title=str(title),
                author=str(author),
                plot=str(plot),
                keywords=str(keywords),
                genres=genre_probs.get(book_id, {}),
            )
        return summaries

    def build_one(
        self,
        title: str = "",
        author: str = "",
        plot: str = "",
        keywords: str = "",
        genres: dict[str, float] | None = None,
    ) -> str:
        """Concatenate the configured fields of one book into its summary."""
        parts: list[str] = []
        for field in self.fields:
            if field == "title":
                parts.append(title)
            elif field == "author":
                parts.append(author)
            elif field == "plot":
                parts.append(plot)
            elif field == "keywords":
                parts.append(keywords)
            elif field == "genres":
                parts.append(render_genres(genres or {}))
        return " ".join(part for part in parts if part).strip()


def render_genres(genres: dict[str, float]) -> str:
    """Render a genre-probability map as weighted repeated labels.

    A genre with probability ``p`` appears ``max(1, round(p * GENRE_REPEATS))``
    times, so dominant genres carry proportionally more embedding mass.
    Labels are emitted in decreasing-probability order for determinism.
    """
    tokens: list[str] = []
    ordered = sorted(genres.items(), key=lambda item: (-item[1], item[0]))
    for genre, probability in ordered:
        repeats = max(1, round(probability * GENRE_REPEATS))
        tokens.extend([genre] * repeats)
    return " ".join(tokens)

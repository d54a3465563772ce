"""Cleaning and aggregation of the crowd-voted Anobii genres.

The paper (Section 3) processes the 41 raw genres in three steps:

1. *Neglect* genres associated with almost all books (e.g. "Fiction and
   Literature") or with very few books.
2. *Aggregate* related genres, "considering the entropy value calculated
   using their occurrences"; "the aggregation is performed if it leads to
   the entropy reduction". We interpret the entropy as the total Shannon
   entropy of the per-book genre-vote distributions: merging two labels
   that co-occur on the same books concentrates those books' vote
   distributions (entropy strictly drops), while merging labels that never
   share a book changes nothing (no reduction, merge rejected). The merge
   is greedy: the pair with the highest co-occurrence affinity is merged
   while it reduces the vote entropy, stopping when no sufficiently affine
   pair remains.
3. Keep the *top 4* genres per book by votes, converting vote counts to
   probabilities that sum to one.

The result is a :class:`GenreModel`: a raw-to-canonical label mapping plus a
per-book probability distribution over canonical genres.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.datasets.models import parse_genre_votes
from repro.errors import PipelineError
from repro.tables import Table
from repro.datasets.models import BOOK_GENRES_SCHEMA

#: Drop genres voted on more than this share of books ("almost all books").
DEFAULT_MAX_BOOK_SHARE = 0.6

#: Drop genres voted on fewer than this many books ("very few books").
DEFAULT_MIN_BOOKS = 3

#: Merge two genres only when their co-occurrence affinity reaches this.
DEFAULT_MIN_AFFINITY = 0.5

#: Books keep at most this many genres (paper: "the top 4 genres").
TOP_GENRES_PER_BOOK = 4


@dataclass(frozen=True)
class GenreModel:
    """The cleaned genre model produced by :func:`build_genre_model`."""

    canonical_of: dict[str, str]
    """Raw genre label -> canonical (post-aggregation) label."""

    book_genres: dict[int, tuple[tuple[str, float], ...]]
    """Book id -> up to four (canonical genre, probability) pairs, sorted by
    decreasing probability; probabilities sum to one."""

    dropped_genres: tuple[str, ...] = ()
    """Raw labels removed by the ubiquitous/rare filters."""

    merge_trace: tuple[tuple[str, str], ...] = field(default=(), repr=False)
    """(absorbed label, canonical label) pairs, in merge order."""

    @property
    def canonical_genres(self) -> tuple[str, ...]:
        """All canonical genre labels, sorted."""
        return tuple(sorted(set(self.canonical_of.values())))

    def to_table(self) -> Table:
        """Materialise as the merged dataset's ``genres`` table."""
        books: list[int] = []
        genres: list[str] = []
        probabilities: list[float] = []
        for book_id in sorted(self.book_genres):
            for genre, probability in self.book_genres[book_id]:
                books.append(book_id)
                genres.append(genre)
                probabilities.append(probability)
        return Table.from_columns(
            {"book_id": books, "genre": genres, "probability": probabilities},
            schema=BOOK_GENRES_SCHEMA,
        )


def entropy(counts: Counter | dict[str, int]) -> float:
    """Shannon entropy (nats) of an occurrence distribution."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            result -= p * math.log(p)
    return result


def extract_genre_votes(items: Table) -> dict[int, dict[str, int]]:
    """Parse the ``genre_votes`` column into ``{item_id: {genre: votes}}``."""
    return {
        int(item_id): parse_genre_votes(str(votes))
        for item_id, votes in zip(items["item_id"], items["genre_votes"])
    }


def drop_extreme_genres(
    votes_by_book: dict[int, dict[str, int]],
    max_book_share: float = DEFAULT_MAX_BOOK_SHARE,
    min_books: int = DEFAULT_MIN_BOOKS,
) -> tuple[dict[int, dict[str, int]], tuple[str, ...]]:
    """Remove ubiquitous and rare genre labels from every book's votes."""
    if not 0 < max_book_share <= 1:
        raise PipelineError(f"max_book_share must be in (0, 1], got {max_book_share}")
    n_books = len(votes_by_book)
    occurrences = Counter(
        genre for votes in votes_by_book.values() for genre in votes
    )
    dropped = {
        genre
        for genre, count in occurrences.items()
        if count > max_book_share * n_books or count < min_books
    }
    cleaned = {
        book: {g: v for g, v in votes.items() if g not in dropped}
        for book, votes in votes_by_book.items()
    }
    return cleaned, tuple(sorted(dropped))


def aggregate_genres(
    votes_by_book: dict[int, dict[str, int]],
    min_affinity: float = DEFAULT_MIN_AFFINITY,
) -> tuple[dict[str, str], tuple[tuple[str, str], ...]]:
    """Greedily merge co-occurring genres while entropy decreases.

    Affinity of a pair is ``cooc(a, b) / min(occ(a), occ(b))`` — 1.0 when the
    rarer label never appears without the other. The highest-affinity pair
    at or above ``min_affinity`` is merged into the more frequent label
    when the merge reduces the total per-book vote entropy (see the module
    docstring); the process repeats until no eligible pair remains.

    Returns the raw -> canonical mapping and the ordered merge trace.
    """
    # Working copy of each book's votes under the current merged labels.
    merged_votes: dict[int, Counter] = {
        book: Counter(votes) for book, votes in votes_by_book.items()
    }
    occurrences: Counter = Counter()
    cooccurrence: Counter = Counter()
    books_with: dict[str, set[int]] = {}
    for book, votes in merged_votes.items():
        genres = sorted(votes)
        occurrences.update(genres)
        for genre in genres:
            books_with.setdefault(genre, set()).add(book)
        for i, a in enumerate(genres):
            for b in genres[i + 1:]:
                cooccurrence[(a, b)] += 1

    canonical = {genre: genre for genre in occurrences}
    trace: list[tuple[str, str]] = []
    while True:
        best_pair = None
        best_affinity = min_affinity
        for (a, b), together in cooccurrence.items():
            if occurrences[a] == 0 or occurrences[b] == 0:
                continue
            affinity = together / min(occurrences[a], occurrences[b])
            if affinity > best_affinity or (
                best_pair is None and affinity == best_affinity
            ):
                best_pair = (a, b)
                best_affinity = affinity
        if best_pair is None:
            break
        a, b = best_pair
        # The more frequent label represents the merged family; frequency
        # ties break alphabetically so labels are stable across runs.
        if (occurrences[a], b) >= (occurrences[b], a):
            keep, absorb = a, b
        else:
            keep, absorb = b, a
        shared = books_with.get(a, set()) & books_with.get(b, set())
        if _vote_entropy_delta(merged_votes, shared, keep, absorb) >= 0.0:
            # Paper Section 3: "the aggregation is performed if it leads to
            # the entropy reduction" — here, of the books' genre-vote
            # distributions. Labels that truly co-occur always reduce it.
            cooccurrence[best_pair] = 0
            continue
        trace.append((absorb, keep))
        for raw, target in canonical.items():
            if target == absorb:
                canonical[raw] = keep
        # Apply the merge to every book carrying the absorbed label.
        for book in books_with.get(absorb, set()):
            votes = merged_votes[book]
            votes[keep] += votes.pop(absorb)
        books_with.setdefault(keep, set()).update(books_with.pop(absorb, set()))
        occurrences[keep] = len(books_with[keep])
        occurrences[absorb] = 0
        new_cooccurrence: Counter = Counter()
        for (x, y), together in cooccurrence.items():
            x = keep if x == absorb else x
            y = keep if y == absorb else y
            if x == y:
                continue
            pair = (x, y) if x < y else (y, x)
            new_cooccurrence[pair] = max(new_cooccurrence[pair], together)
        cooccurrence = new_cooccurrence
    return canonical, tuple(trace)


def _vote_entropy_delta(
    merged_votes: dict[int, Counter],
    shared_books: set[int],
    keep: str,
    absorb: str,
) -> float:
    """Change in total per-book vote entropy if ``absorb`` joins ``keep``.

    Only books carrying *both* labels change their vote distribution, so
    the delta is computed over those; it is strictly negative whenever the
    pair genuinely co-occurs and zero when it never does.
    """
    delta = 0.0
    for book in shared_books:
        votes = merged_votes[book]
        before = entropy(votes)
        merged = Counter(votes)
        merged[keep] += merged.pop(absorb)
        delta += entropy(merged) - before
    return delta


def top_genres(
    votes_by_book: dict[int, dict[str, int]],
    canonical_of: dict[str, str],
    top_k: int = TOP_GENRES_PER_BOOK,
) -> dict[int, tuple[tuple[str, float], ...]]:
    """Keep each book's ``top_k`` canonical genres as a probability vector."""
    if top_k < 1:
        raise PipelineError(f"top_k must be >= 1, got {top_k}")
    result: dict[int, tuple[tuple[str, float], ...]] = {}
    for book, votes in votes_by_book.items():
        merged: Counter = Counter()
        for raw, count in votes.items():
            if raw in canonical_of:
                merged[canonical_of[raw]] += count
        if not merged:
            continue
        best = merged.most_common(top_k)
        total = sum(count for _, count in best)
        result[book] = tuple(
            (genre, count / total) for genre, count in best
        )
    return result


def build_genre_model(items: Table) -> GenreModel:
    """Run the full genre pipeline on an Anobii items table."""
    raw_votes = extract_genre_votes(items)
    cleaned, dropped = drop_extreme_genres(raw_votes)
    canonical, trace = aggregate_genres(cleaned)
    book_genres = top_genres(cleaned, canonical)
    return GenreModel(
        canonical_of=canonical,
        book_genres=book_genres,
        dropped_genres=dropped,
        merge_trace=trace,
    )

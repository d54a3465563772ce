"""Table schemas for the BCT and Anobii sources.

These mirror the tables the paper describes in Section 3:

- BCT *Books*: book id, author(s), title, material type, edition language.
- BCT *Loans*: anonymised user id, book id, loan date.
- Anobii *Items*: item id, author(s), title, language, plot, keywords, and
  crowd-voted genres (genre name -> number of votes, serialised as JSON).
- Anobii *Ratings*: anonymised user id, item id, 1-5 star rating, date.

The merged dataset adds a *Books* table combining attributes from both
sources, a *Readings* table (the union of loans and positive ratings), and a
*Genres* table holding the top-4 genre probabilities per book.
"""

from __future__ import annotations

import json

from repro.tables import Schema

#: Material types appearing in the BCT Books table. Only ``monograph`` and
#: ``manuscript`` survive the paper's filter.
BCT_MATERIALS = ("monograph", "manuscript", "dvd", "cd", "periodical", "map")

#: Languages appearing in both catalogues. Only ``ita`` survives the filter.
LANGUAGES = ("ita", "eng", "fra", "deu", "spa")

BCT_BOOKS_SCHEMA = Schema(
    [
        ("book_id", "int"),
        ("author", "str"),
        ("title", "str"),
        ("material", "str"),
        ("language", "str"),
    ]
)

BCT_LOANS_SCHEMA = Schema(
    [
        ("loan_id", "int"),
        ("user_id", "str"),
        ("book_id", "int"),
        ("loan_date", "date"),
        ("return_date", "date"),
    ]
)

ANOBII_ITEMS_SCHEMA = Schema(
    [
        ("item_id", "int"),
        ("author", "str"),
        ("title", "str"),
        ("language", "str"),
        ("plot", "str"),
        ("keywords", "str"),
        ("genre_votes", "str"),  # JSON object: genre name -> vote count
        ("is_book", "bool"),
    ]
)

ANOBII_RATINGS_SCHEMA = Schema(
    [
        ("rating_id", "int"),
        ("user_id", "str"),
        ("item_id", "int"),
        ("rating", "int"),
        ("rating_date", "date"),
    ]
)

MERGED_BOOKS_SCHEMA = Schema(
    [
        ("book_id", "int"),
        ("author", "str"),
        ("title", "str"),
        ("plot", "str"),
        ("keywords", "str"),
    ]
)

READINGS_SCHEMA = Schema(
    [
        ("user_id", "str"),
        ("book_id", "int"),
        ("read_date", "date"),
        ("source", "str"),  # "bct" or "anobii"
    ]
)

BOOK_GENRES_SCHEMA = Schema(
    [
        ("book_id", "int"),
        ("genre", "str"),
        ("probability", "float"),
    ]
)


def parse_genre_votes(serialized: str) -> dict[str, int]:
    """Parse a ``genre_votes`` JSON cell back into ``{genre: votes}``."""
    if not serialized:
        return {}
    votes = json.loads(serialized)
    return {str(genre): int(count) for genre, count in votes.items()}


def match_key(title: str, author: str) -> str:
    """Natural key used to align a BCT book with an Anobii item.

    The two catalogues have independent identifiers, so — as in any real
    data-integration scenario — the join runs on a normalised
    (title, author) key: lower-cased, whitespace-collapsed,
    punctuation-stripped.
    """
    normalize = lambda text: " ".join(  # noqa: E731 - tiny local helper
        "".join(ch for ch in text.lower() if ch.isalnum() or ch.isspace()).split()
    )
    return f"{normalize(title)}|{normalize(author)}"

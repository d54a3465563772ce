"""Beyond-accuracy metrics: diversity, novelty, serendipity, coverage.

The paper's conclusion flags these as future work: its KPIs "are
objectively trying to predict the next relevant books", providing no
serendipity. This module implements the four standard beyond-accuracy
measures over the same evaluation artefacts (a fitted model, the split,
and an item-item similarity matrix):

- **intra-list diversity** — 1 minus the mean pairwise similarity of the
  recommended list; higher = the k books are less alike;
- **novelty** — mean self-information ``-log2(popularity share)`` of the
  recommended books; higher = deeper into the catalogue tail;
- **serendipity** — the share of *relevant* recommendations that are
  dissimilar from everything the user has already read (an unexpected hit);
- **catalogue coverage** — the fraction of the catalogue recommended to at
  least one user.

Similarity comes from any item-item matrix; the natural choice is the
content embedding of :class:`~repro.core.closest_items.ClosestItems`, so
"dissimilar" means "not like anything on the user's shelf".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import Recommender
from repro.errors import EvaluationError
from repro.eval.split import DatasetSplit

#: A relevant recommendation counts as serendipitous when its maximum
#: content similarity to the user's history falls below this.
DEFAULT_SERENDIPITY_THRESHOLD = 0.35


@dataclass(frozen=True)
class BeyondAccuracyReport:
    """The four beyond-accuracy metrics at one k."""

    k: int
    diversity: float
    novelty: float
    serendipity: float
    coverage: float


def evaluate_beyond_accuracy(
    model: Recommender,
    split: DatasetSplit,
    similarity: np.ndarray,
    k: int = 20,
    serendipity_threshold: float = DEFAULT_SERENDIPITY_THRESHOLD,
) -> BeyondAccuracyReport:
    """Compute diversity/novelty/serendipity/coverage over BCT test users.

    ``similarity`` is an ``(n_items, n_items)`` matrix in [−1, 1]; the
    content similarity of :class:`ClosestItems` is the intended source.
    """
    n_items = split.train.n_items
    if similarity.shape != (n_items, n_items):
        raise EvaluationError(
            f"similarity matrix has shape {similarity.shape}, expected "
            f"({n_items}, {n_items})"
        )
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")

    popularity = split.train.item_counts().astype(np.float64)
    share = popularity / max(popularity.sum(), 1.0)
    # Books never read in training get the information content of a
    # single reading (they are maximally novel, not infinitely so).
    floor = 1.0 / max(popularity.sum(), 1.0)
    information = -np.log2(np.maximum(share, floor))

    user_indices = np.asarray(sorted(split.test_items), dtype=np.int64)
    diversities: list[float] = []
    novelties: list[float] = []
    serendipitous = 0
    relevant = 0
    recommended_union: set[int] = set()

    for user_index in user_indices:
        items = model.recommend(int(user_index), k)
        if len(items) == 0:
            continue
        recommended_union.update(int(i) for i in items)
        novelties.append(float(information[items].mean()))
        if len(items) > 1:
            block = similarity[np.ix_(items, items)]
            off_diagonal = block.sum() - np.trace(block)
            pairs = len(items) * (len(items) - 1)
            diversities.append(1.0 - float(off_diagonal / pairs))
        history = split.train.user_items(int(user_index))
        hits = set(items.tolist()) & set(split.test_items[int(user_index)].tolist())
        for hit in hits:
            relevant += 1
            closeness = (
                similarity[hit, history].max() if history.size else 0.0
            )
            if closeness < serendipity_threshold:
                serendipitous += 1

    if not novelties:
        raise EvaluationError("no recommendations produced; cannot evaluate")
    return BeyondAccuracyReport(
        k=k,
        diversity=float(np.mean(diversities)) if diversities else 0.0,
        novelty=float(np.mean(novelties)),
        serendipity=serendipitous / relevant if relevant else 0.0,
        coverage=len(recommended_union) / n_items,
    )

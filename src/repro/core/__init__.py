"""The recommenders (paper Section 4) and their shared substrate.

Four algorithms from the paper plus two extensions:

- :class:`~repro.core.random_items.RandomItems` — random unread books
  (baseline);
- :class:`~repro.core.most_read.MostReadItems` — global top-k by readings,
  identical for every user (baseline);
- :class:`~repro.core.closest_items.ClosestItems` — content-based: average
  embedding similarity to the user's history (Equation 1);
- :class:`~repro.core.bpr.BPR` — collaborative filtering: matrix
  factorisation trained with WARP-sampled pairwise ranking (Equations 2-3);
- :class:`~repro.core.hybrid.HybridRecommender` — CB+CF score blend
  (extension; the paper's natural follow-up);
- :class:`~repro.core.sequential.SequentialMarkov` — first-order
  sequential recommendation (the paper's declared future work).

All of them implement the :class:`~repro.core.base.Recommender` interface
over an :class:`~repro.core.interactions.InteractionMatrix`.
"""

from repro.core.base import Recommender
from repro.core.interactions import Indexer, InteractionMatrix
from repro.core.random_items import RandomItems
from repro.core.most_read import MostReadItems
from repro.core.closest_items import ClosestItems
from repro.core.bpr import BPR, BPRConfig
from repro.core.hybrid import HybridRecommender
from repro.core.sequential import SequentialMarkov

__all__ = [
    "Recommender",
    "Indexer",
    "InteractionMatrix",
    "RandomItems",
    "MostReadItems",
    "ClosestItems",
    "BPR",
    "BPRConfig",
    "HybridRecommender",
    "SequentialMarkov",
]

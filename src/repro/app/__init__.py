"""Application layer: the Reading&Machine serving path.

:class:`~repro.app.service.RecommendationService` wraps a fitted
recommender behind the request/response interface the paper's VR GUI
calls: resolve the user, produce the top-k unread books with their titles
and authors, track per-request latency. :mod:`~repro.app.persistence`
saves and loads fitted models so the service can start without
retraining, and :mod:`~repro.app.lifecycle` versions those model
artefacts in a crash-safe :class:`~repro.app.lifecycle.ModelStore` with
publish / rollback / gc operations and zero-downtime hot swap into the
running service.
"""

from repro.app.service import (
    RecommendationRequest,
    RecommendationService,
    ServedBook,
    ServedResponse,
    ServiceStats,
)
from repro.app.lifecycle import ModelStore, ModelVersion
from repro.app.persistence import load_bpr, save_bpr

__all__ = [
    "ModelStore",
    "ModelVersion",
    "RecommendationRequest",
    "RecommendationService",
    "ServedBook",
    "ServedResponse",
    "ServiceStats",
    "load_bpr",
    "save_bpr",
]

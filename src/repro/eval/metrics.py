"""The paper's KPIs (Section 5).

All metrics consume two per-user arrays produced by the evaluator:

- ``hits`` — ``|T_u ∩ R_u|``, the number of held-out books inside the
  user's top-k recommendations;
- ``first_ranks`` — the 1-based position of the first held-out book in the
  user's *full* ranking (FR is independent of k, per the paper).

together with ``test_sizes`` (``|T_u|``) and the cut-off ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError


@dataclass(frozen=True)
class KPIReport:
    """The five KPIs of Table 1, at one value of k."""

    k: int
    urr: float
    """Users with Relevant Recommendations — Eq. (4)."""
    nrr: float
    """average Number of Relevant Recommendations — Eq. (5)."""
    precision: float
    """Eq. (6)."""
    recall: float
    """Eq. (7)."""
    first_rank: float
    """average First Rank position (lower is better; k-independent)."""


def compute_kpis(
    hits: np.ndarray,
    test_sizes: np.ndarray,
    first_ranks: np.ndarray,
    k: int,
) -> KPIReport:
    """Aggregate per-user counters into a :class:`KPIReport`."""
    hits = np.asarray(hits, dtype=np.float64)
    test_sizes = np.asarray(test_sizes, dtype=np.float64)
    first_ranks = np.asarray(first_ranks, dtype=np.float64)
    if not (len(hits) == len(test_sizes) == len(first_ranks)):
        raise EvaluationError(
            f"per-user arrays disagree in length: {len(hits)}, "
            f"{len(test_sizes)}, {len(first_ranks)}"
        )
    if len(hits) == 0:
        raise EvaluationError("cannot compute KPIs over zero users")
    if (test_sizes <= 0).any():
        raise EvaluationError("every evaluated user needs a non-empty test set")
    return KPIReport(
        k=k,
        urr=float((hits > 0).mean()),
        nrr=float(hits.mean()),
        precision=float((hits / k).mean()),
        recall=float((hits / test_sizes).mean()),
        first_rank=float(first_ranks.mean()),
    )


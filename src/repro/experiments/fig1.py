"""Fig. 1 — CDFs of readings per user and per book in the merged dataset.

The paper reports readings per user reaching ~480 and readings per book
reaching ~6 000 (log-scaled x-axis). We reproduce both empirical CDFs and
summarise them at fixed quantiles so the shapes can be compared numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import ascii_table
from repro.pipeline import stats

QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00)


@dataclass(frozen=True)
class Fig1Result:
    """Per-user and per-book reading-count distributions."""

    per_user: np.ndarray
    per_book: np.ndarray

    def quantile_rows(self) -> list[list[object]]:
        rows = []
        for q in QUANTILES:
            rows.append(
                [
                    f"p{int(q * 100)}",
                    float(np.quantile(self.per_user, q)),
                    float(np.quantile(self.per_book, q)),
                ]
            )
        return rows

    def render(self) -> str:
        header = (
            "Fig. 1: readings per user / per book (CDF quantiles)\n"
            f"users={len(self.per_user)} books={len(self.per_book)}\n"
        )
        return header + ascii_table(
            ["quantile", "readings/user", "readings/book"],
            self.quantile_rows(),
            precision=0,
        )


def run(context: ExperimentContext) -> Fig1Result:
    merged = context.merged
    return Fig1Result(
        per_user=stats.readings_per_user_counts(merged),
        per_book=stats.readings_per_book_counts(merged),
    )

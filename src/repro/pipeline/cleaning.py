"""Reports of the source-level cleaning steps (paper Section 3).

The merge (:mod:`repro.pipeline.merge`) applies the paper's source-level
filters and records each as a :class:`CleaningReport` with before/after
row counts, so pipelines can log exactly what each filter removed — the
paper reports these reductions (e.g. 290 125 -> 228 059 BCT books) and
the reports make our equivalents auditable.

Real library dumps also contain *malformed* rows — dangling foreign keys,
loans returned before they were borrowed, blank user ids, duplicate
catalogue entries. The merge sets those rows aside in a
:class:`QuarantineReport` (with full row context, annotated per source
table) instead of aborting on the first bad row; its ``strict=True``
escape hatch restores fail-fast behaviour for pipelines that would rather
stop than drop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PipelineError


@dataclass(frozen=True)
class CleaningReport:
    """Row counts removed by a cleaning step."""

    step: str
    catalogue_before: int
    catalogue_after: int
    events_before: int
    events_after: int

    def __str__(self) -> str:
        return (
            f"{self.step}: catalogue {self.catalogue_before} -> "
            f"{self.catalogue_after}, events {self.events_before} -> "
            f"{self.events_after}"
        )


@dataclass(frozen=True)
class QuarantinedRow:
    """One malformed source row, with enough context to audit it."""

    table: str
    """Source-annotated table name (``"bct.loans"``, ``"anobii.ratings"``...)."""
    row: int
    """0-based row index in the source table."""
    reason: str
    context: dict
    """The offending row's values, stringified."""

    def __str__(self) -> str:
        return f"{self.table}[{self.row}]: {self.reason} ({self.context})"


@dataclass
class QuarantineReport:
    """Malformed rows collected (not dropped silently) during cleaning."""

    rows: list[QuarantinedRow] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add(self, table: str, row: int, reason: str, context: dict) -> None:
        self.rows.append(
            QuarantinedRow(
                table=table,
                row=row,
                reason=reason,
                context={key: str(value) for key, value in context.items()},
            )
        )

    def counts(self) -> dict[tuple[str, str], int]:
        """``{(table, reason): count}`` for report rendering."""
        return dict(Counter((r.table, r.reason) for r in self.rows))

    def extend(self, other: "QuarantineReport") -> "QuarantineReport":
        self.rows.extend(other.rows)
        return self

    def raise_if(self, strict: bool) -> None:
        """With ``strict`` and any quarantined row, fail the pipeline."""
        if strict and self.rows:
            sample = "; ".join(str(row) for row in self.rows[:3])
            raise PipelineError(
                f"{len(self.rows)} malformed source rows (strict mode): {sample}"
            )

    def __str__(self) -> str:
        if not self.rows:
            return "quarantine: no malformed rows"
        parts = [
            f"{table}: {count} x {reason}"
            for (table, reason), count in sorted(self.counts().items())
        ]
        return f"quarantine: {len(self.rows)} rows ({', '.join(parts)})"


def _keep_first_by_key(values) -> np.ndarray:
    """Mask keeping the first occurrence of each value."""
    seen: set = set()
    mask = np.empty(len(values), dtype=bool)
    for i, value in enumerate(values):
        mask[i] = value not in seen
        seen.add(value)
    return mask

"""Fig. 5 — KPIs per metadata-summary composition (Closest Items ablation).

The paper evaluates the content-based model with different concatenations
of the book metadata. Findings reproduced here:

- title alone ≈ Random (titles carry no preference signal);
- plot or keywords alone are better (they encode genre vocabulary);
- author alone improves sharply (readers follow authors);
- author + genres is the best combination;
- adding keywords to author + genres slightly hurts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.metrics import KPIReport
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import ascii_table

#: The compositions shown in the paper's Fig. 5 bars, plus the
#: author+genres+keywords variant mentioned in the text.
COMPOSITIONS: tuple[tuple[str, ...], ...] = (
    ("title",),
    ("plot",),
    ("keywords",),
    ("author",),
    ("genres",),
    ("author", "genres"),
    ("author", "genres", "keywords"),
)


@dataclass(frozen=True)
class Fig5Result:
    """KPIs per metadata composition at the configured k."""

    k: int
    rows: dict[tuple[str, ...], KPIReport]

    def render(self) -> str:
        table_rows = []
        for fields in COMPOSITIONS:
            report = self.rows[fields]
            table_rows.append(
                ["+".join(fields), report.urr, report.nrr,
                 report.precision, report.recall, round(report.first_rank)]
            )
        header = (
            f"Fig. 5: Closest Items KPIs per metadata summary (k={self.k})\n"
        )
        return header + ascii_table(
            ["summary", "URR", "NRR", "P", "R", "FR"], table_rows
        )

    def best(self) -> tuple[str, ...]:
        """The composition maximising URR (ties broken by NRR)."""
        return max(
            self.rows, key=lambda f: (self.rows[f].urr, self.rows[f].nrr)
        )


def run(context: ExperimentContext) -> Fig5Result:
    k = context.config.k
    rows = {}
    for fields in COMPOSITIONS:
        key = "closest:" + ",".join(fields)
        rows[fields] = context.evaluation(key).report(k)
    return Fig5Result(k=k, rows=rows)

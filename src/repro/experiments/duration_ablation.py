"""Ablation: using loan duration as implicit negative feedback.

The paper assumes "if a user read a book, it is appreciated" and flags the
loan duration as the feature that could fix that assumption's failure mode
("we leave for future work a study of possible features to reduce the
limitations of this assumption, e.g., using the duration of the loan").

This experiment implements it: BCT loans returned within ``min_loan_days``
are treated as abandoned (negative implicit feedback) and removed before
the merge, then the Table-1 systems are retrained. On the synthetic world
— where quick returns are, by construction, off-preference books — the
filter removes label noise and the personalised models improve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.bpr import BPR
from repro.core.closest_items import ClosestItems
from repro.eval.evaluator import fit_and_evaluate
from repro.eval.metrics import KPIReport
from repro.eval.split import split_readings
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import ascii_table
from repro.pipeline.merge import build_merged_dataset

#: Loans shorter than this many days count as "abandoned" in the filtered
#: variant (just above the synthetic abandonment band).
MIN_LOAN_DAYS = 7


@dataclass(frozen=True)
class DurationAblationResult:
    """KPIs with and without the loan-duration filter."""

    k: int
    min_loan_days: int
    unfiltered: dict[str, KPIReport]
    filtered: dict[str, KPIReport]
    loans_removed_share: float

    def render(self) -> str:
        rows = []
        for name in self.unfiltered:
            u = self.unfiltered[name]
            f = self.filtered[name]
            rows.append([name, u.urr, u.nrr, f.urr, f.nrr])
        header = (
            f"Ablation: loan-duration filter (k={self.k}; drop loans "
            f"< {self.min_loan_days} days — the paper's future-work "
            f"feature)\nremoved {self.loans_removed_share * 100:.1f}% of "
            "BCT loan events as abandoned\n"
        )
        return header + ascii_table(
            ["system", "URR (all loans)", "NRR (all loans)",
             "URR (filtered)", "NRR (filtered)"],
            rows,
        )


def run(context: ExperimentContext) -> DurationAblationResult:
    k = context.config.k
    unfiltered = {
        "Closest Items": context.evaluation("closest").report(k),
        "BPR": context.evaluation("bpr").report(k),
    }

    sources = context.sources
    filtered_merged, _ = build_merged_dataset(
        sources.bct, sources.anobii,
        replace(context.config.merge, min_loan_days=MIN_LOAN_DAYS),
    )
    filtered_split = split_readings(filtered_merged)
    filtered: dict[str, KPIReport] = {}
    for name, model in (
        ("Closest Items", ClosestItems(fields=context.config.closest_fields)),
        ("BPR", BPR(context.config.bpr)),
    ):
        filtered[name] = fit_and_evaluate(
            model, filtered_split, filtered_merged, ks=(k,)
        ).report(k)

    bct_mask = context.merged.readings["source"] == "bct"
    before = int(bct_mask.sum())
    after_mask = filtered_merged.readings["source"] == "bct"
    after = int(after_mask.sum())
    removed_share = 1.0 - after / before if before else 0.0
    return DurationAblationResult(
        k=k,
        min_loan_days=MIN_LOAN_DAYS,
        unfiltered=unfiltered,
        filtered=filtered,
        loans_removed_share=removed_share,
    )

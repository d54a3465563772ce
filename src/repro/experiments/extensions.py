"""Experiments for the paper's declared future work.

The conclusion of the paper names two follow-ups this reproduction also
implements and evaluates:

- *beyond-accuracy* evaluation ("parameters and metrics for evaluating the
  diversity and serendipity of the recommendations") — the
  ``beyond_accuracy`` experiment scores every Table-1 system on intra-list
  diversity, novelty, serendipity, and catalogue coverage;
- *sequential recommendation* ("we could consider sequential recommendation
  systems algorithms") — the ``sequential`` experiment adds a first-order
  Markov-chain recommender and a hybrid sweep to the Table-1 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bpr import BPR
from repro.core.hybrid import HybridRecommender
from repro.core.sequential import SequentialMarkov
from repro.eval.beyond_accuracy import BeyondAccuracyReport, evaluate_beyond_accuracy
from repro.eval.evaluator import fit_and_evaluate
from repro.eval.metrics import KPIReport
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import ascii_table


@dataclass(frozen=True)
class BeyondAccuracyResult:
    """Diversity/novelty/serendipity/coverage per system."""

    k: int
    rows: dict[str, BeyondAccuracyReport]
    accuracy: dict[str, KPIReport]

    def render(self) -> str:
        table_rows = []
        for name, report in self.rows.items():
            kpi = self.accuracy[name]
            table_rows.append(
                [name, kpi.urr, report.diversity, report.novelty,
                 report.serendipity, report.coverage]
            )
        header = (
            f"Beyond-accuracy metrics (k={self.k}) — the paper's "
            "future-work evaluation\n"
            "Div: intra-list diversity, Nov: novelty (bits), Ser: share of "
            "hits unlike the user's shelf, Cov: catalogue coverage\n"
        )
        return header + ascii_table(
            ["system", "URR", "Div", "Nov", "Ser", "Cov"], table_rows
        )


def run_beyond_accuracy(context: ExperimentContext) -> BeyondAccuracyResult:
    """Score the three personalised Table-1 systems beyond accuracy."""
    k = context.config.k
    # Content similarity defines "alike"; reuse the fitted CB model's matrix.
    closest = context.model("closest")
    similarity = closest.similarity
    rows: dict[str, BeyondAccuracyReport] = {}
    accuracy: dict[str, KPIReport] = {}
    for name, key in (
        ("Most Read Items", "most_read"),
        ("Closest Items", "closest"),
        ("BPR", "bpr"),
    ):
        model = context.model(key)
        rows[name] = evaluate_beyond_accuracy(
            model, context.split, similarity, k=k
        )
        accuracy[name] = context.evaluation(key).report(k)
    return BeyondAccuracyResult(k=k, rows=rows, accuracy=accuracy)


@dataclass(frozen=True)
class SequentialResult:
    """KPIs of the sequential extension next to the paper's systems."""

    k: int
    rows: dict[str, KPIReport]

    def render(self) -> str:
        table_rows = [
            [name, r.urr, r.nrr, r.precision, r.recall, round(r.first_rank)]
            for name, r in self.rows.items()
        ]
        header = (
            f"Sequential extension (k={self.k}) — the paper's future-work "
            "algorithm family\n"
        )
        return header + ascii_table(
            ["system", "URR", "NRR", "P", "R", "FR"], table_rows
        )


def run_sequential(context: ExperimentContext) -> SequentialResult:
    """Markov-chain recommender and its blend with BPR versus the paper's
    systems."""
    k = context.config.k
    rows: dict[str, KPIReport] = {
        "Closest Items": context.evaluation("closest").report(k),
        "BPR": context.evaluation("bpr").report(k),
    }
    sequential = SequentialMarkov()
    rows["Sequential Markov"] = fit_and_evaluate(
        sequential, context.split, context.merged, ks=(k,)
    ).report(k)
    blend = HybridRecommender(
        SequentialMarkov(), BPR(context.config.bpr), weight=0.35
    )
    rows["Sequential + BPR blend"] = fit_and_evaluate(
        blend, context.split, context.merged, ks=(k,)
    ).report(k)
    return SequentialResult(k=k, rows=rows)

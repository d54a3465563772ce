"""Evaluation harness (paper Section 5).

- :mod:`repro.eval.split` — the per-user temporal split: 20 % of each BCT
  user's readings form the test set, the rest (and all Anobii readings)
  split 80/20 into train/validation.
- :mod:`repro.eval.metrics` — URR, NRR, Precision, Recall, First Rank
  (Equations 4-7).
- :mod:`repro.eval.evaluator` — end-to-end: fit, score, rank, measure.
- :mod:`repro.eval.grid` — the BPR hyper-parameter grid search.
- :mod:`repro.eval.groups` — the history-size group analysis of Fig. 4.
"""

from repro.eval.split import DatasetSplit, SplitConfig, split_readings
from repro.eval.metrics import KPIReport, compute_kpis
from repro.eval.evaluator import EvaluationResult, evaluate_model, fit_and_evaluate
from repro.eval.grid import GridSearchResult, grid_search_bpr
from repro.eval.groups import GroupKPIs, evaluate_by_history_size
from repro.eval.beyond_accuracy import (
    BeyondAccuracyReport,
    evaluate_beyond_accuracy,
)
from repro.eval.bootstrap import PairedComparison, paired_bootstrap_difference

__all__ = [
    "DatasetSplit",
    "SplitConfig",
    "split_readings",
    "KPIReport",
    "compute_kpis",
    "EvaluationResult",
    "evaluate_model",
    "fit_and_evaluate",
    "GridSearchResult",
    "grid_search_bpr",
    "GroupKPIs",
    "evaluate_by_history_size",
    "BeyondAccuracyReport",
    "evaluate_beyond_accuracy",
    "PairedComparison",
    "paired_bootstrap_difference",
]

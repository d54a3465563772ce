"""BPR hyper-parameter grid search (paper Section 6, first paragraph).

The paper sweeps the number of latent factors and the learning rate and
keeps the combination maximising URR on the validation set (20 latent
factors, learning rate 0.2 on their data). This module reproduces that
procedure for any grid.

Grid cells are independent fits, so the sweep parallelises per cell:
``grid_search_bpr(..., n_jobs=N)`` runs them on a
:class:`~concurrent.futures.ProcessPoolExecutor`. Each cell trains from
its own :class:`~repro.core.bpr.BPRConfig` — including its own seed — so
the winner and every KPI are bit-identical to the in-process sweep
whatever the scheduling; ``tests/eval/test_grid.py`` pins that down.
Worker-side telemetry is not lost: each cell records into a private
tracer/metrics registry whose snapshot the parent folds back in with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` and
:meth:`~repro.obs.trace.Tracer.adopt`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.core.bpr import BPR, BPRConfig
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, EvaluationError
from repro.eval.evaluator import fit_and_evaluate
from repro.eval.split import DatasetSplit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.rng import task_seeds

DEFAULT_FACTOR_GRID = (5, 10, 20, 40)
DEFAULT_LEARNING_RATE_GRID = (0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class GridPoint:
    """One evaluated grid cell."""

    n_factors: int
    learning_rate: float
    val_urr: float
    val_nrr: float


@dataclass(frozen=True)
class GridSearchResult:
    """All grid cells plus the URR-maximising configuration."""

    points: tuple[GridPoint, ...]
    best: GridPoint
    k: int

    def as_matrix(self) -> dict[tuple[int, float], float]:
        """``{(n_factors, learning_rate): val URR}`` for reporting."""
        return {
            (p.n_factors, p.learning_rate): p.val_urr for p in self.points
        }


#: Ceiling on ``n_jobs=-1`` (all CPUs), which keeps pool start-up
#: bounded on hosts that report an unreasonable core count.
MAX_AUTO_JOBS = 16


def _resolve_n_jobs(n_jobs: int) -> int:
    """``n_jobs`` as a worker count: ``-1`` means all CPUs (capped at
    :data:`MAX_AUTO_JOBS`); anything but ``-1`` or an int ``>= 1`` is a
    :class:`ConfigurationError`."""
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool):
        raise ConfigurationError(f"n_jobs must be an int, got {n_jobs!r}")
    if n_jobs == -1:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_JOBS))
    if n_jobs < 1:
        raise ConfigurationError(
            f"n_jobs must be >= 1 or -1 (all CPUs), got {n_jobs}"
        )
    return n_jobs


def grid_search_bpr(
    split: DatasetSplit,
    dataset: MergedDataset,
    base_config: BPRConfig | None = None,
    factor_grid: tuple[int, ...] = DEFAULT_FACTOR_GRID,
    learning_rate_grid: tuple[float, ...] = DEFAULT_LEARNING_RATE_GRID,
    k: int = 20,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    n_jobs: int = 1,
) -> GridSearchResult:
    """Sweep (n_factors, learning_rate), scoring URR@k on BCT validation.

    ``base_config`` supplies everything the grid does not vary (epochs,
    sampler, seed, ...). ``tracer``/``metrics`` thread into
    every cell's :class:`BPR` and evaluation: the sweep is one
    ``grid.search`` span with a ``grid.cell`` child per configuration,
    and each cell's validation URR/NRR land in
    ``grid.val_urr``/``grid.val_nrr`` gauges labelled by the cell
    coordinates.

    With ``n_jobs > 1`` (``-1`` = all CPUs) the cells run on that many
    worker processes and return the bit-identical winner and points of
    the in-process sweep, with per-cell metrics snapshots merged into
    ``metrics`` and per-cell spans adopted into ``tracer`` in cell order.

    Raises:
        EvaluationError: when either grid axis is empty.
        ConfigurationError: when ``n_jobs`` is neither ``-1`` nor an
            int ``>= 1``.
    """
    if not factor_grid or not learning_rate_grid:
        raise EvaluationError("both grid axes need at least one value")
    n_jobs = _resolve_n_jobs(n_jobs)
    base_config = base_config or BPRConfig()
    configs = [
        replace(base_config, n_factors=n_factors, learning_rate=learning_rate)
        for n_factors in factor_grid
        for learning_rate in learning_rate_grid
    ]
    if n_jobs == 1:
        with start_span(tracer, "grid.search", cells=len(configs), k=k):
            scores = [
                _evaluate_cell(config, k, split, dataset, tracer, metrics)
                for config in configs
            ]
    else:
        scores = _sweep_in_workers(
            configs, k, split, dataset, tracer, metrics, n_jobs,
            base_config.seed,
        )
    points = tuple(
        GridPoint(
            n_factors=config.n_factors,
            learning_rate=config.learning_rate,
            val_urr=val_urr,
            val_nrr=val_nrr,
        )
        for config, (val_urr, val_nrr) in zip(configs, scores)
    )
    if metrics is not None:
        for point in points:
            _record_cell(metrics, point)
    best = max(points, key=lambda p: (p.val_urr, p.val_nrr))
    return GridSearchResult(points=points, best=best, k=k)


def _evaluate_cell(
    config: BPRConfig,
    k: int,
    split: DatasetSplit,
    dataset: MergedDataset,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> tuple[float, float]:
    """Fit and validate one cell under a ``grid.cell`` span; returns
    ``(val_urr, val_nrr)``. Both sweeps run every cell through here."""
    with start_span(
        tracer, "grid.cell",
        n_factors=config.n_factors, learning_rate=config.learning_rate,
    ) as span:
        result = fit_and_evaluate(
            BPR(config, tracer=tracer, metrics=metrics),
            split, dataset, ks=(k,), holdout="val",
            tracer=tracer, metrics=metrics,
        )
        report = result.report(k)
        span.set_attrs(val_urr=report.urr, val_nrr=report.nrr)
    return report.urr, report.nrr


#: What every cell of a worker sweep shares — ``(split, dataset, k,
#: traced)`` — set once per worker process by the executor's initializer.
_SWEEP: tuple[DatasetSplit, MergedDataset, int, bool] | None = None


def _init_worker(
    split: DatasetSplit, dataset: MergedDataset, k: int, traced: bool
) -> None:
    """Executor initializer: keep the sweep's shared inputs."""
    global _SWEEP
    _SWEEP = (split, dataset, k, traced)


def _evaluate_in_worker(
    config: BPRConfig, trace_seed: int
) -> tuple[float, float, dict, list]:
    """One cell in a worker process: ``(val_urr, val_nrr, metrics
    snapshot, span dicts)``, plain data that pickles cheaply.

    ``trace_seed`` seeds the worker's private tracer id stream; it never
    influences training, which draws from ``config.seed`` alone.
    """
    split, dataset, k, traced = _SWEEP  # type: ignore[misc]
    tracer = Tracer(seed=trace_seed) if traced else None
    metrics = MetricsRegistry()
    val_urr, val_nrr = _evaluate_cell(
        config, k, split, dataset, tracer, metrics
    )
    spans = [s.as_dict() for s in tracer.spans] if tracer is not None else []
    return val_urr, val_nrr, metrics.snapshot(), spans


def _sweep_in_workers(
    configs: list[BPRConfig],
    k: int,
    split: DatasetSplit,
    dataset: MergedDataset,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    n_jobs: int,
    seed: int | None,
) -> list[tuple[float, float]]:
    """One task per cell on a process pool, telemetry merged back.

    The split and dataset reach each worker once, through the
    initializer (inherited without pickling under ``fork``, which is
    used where the platform offers it); a task carries only its config
    and tracer seed.
    """
    trace_seeds = task_seeds(seed, "grid.cells", len(configs))
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    with start_span(
        tracer, "grid.search", cells=len(configs), k=k, n_jobs=n_jobs,
    ):
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(configs)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(split, dataset, k, tracer is not None),
        ) as executor:
            outcomes = list(
                executor.map(_evaluate_in_worker, configs, trace_seeds)
            )
    scores: list[tuple[float, float]] = []
    for val_urr, val_nrr, snapshot, spans in outcomes:
        if tracer is not None:
            tracer.adopt(spans)
        if metrics is not None:
            metrics.merge_snapshot(snapshot)
        scores.append((val_urr, val_nrr))
    return scores


def _record_cell(metrics: MetricsRegistry, point: GridPoint) -> None:
    """Record one cell's KPI gauges, labelled by its coordinates."""
    labels = {
        "n_factors": str(point.n_factors),
        "learning_rate": str(point.learning_rate),
    }
    metrics.counter("grid.cells").inc()
    metrics.gauge("grid.val_urr").labels(**labels).set(point.val_urr)
    metrics.gauge("grid.val_nrr").labels(**labels).set(point.val_nrr)

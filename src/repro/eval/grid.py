"""BPR hyper-parameter grid search (paper Section 6, first paragraph).

The paper sweeps the number of latent factors and the learning rate and
keeps the combination maximising URR on the validation set (20 latent
factors, learning rate 0.2 on their data). This module reproduces that
procedure for any grid.

Grid cells are independent workloads, so the sweep parallelises per
cell: ``grid_search_bpr(..., n_jobs=N)`` runs configurations on a
:class:`~repro.parallel.WorkerPool` (process backend by default). Each
cell trains from its own :class:`~repro.core.bpr.BPRConfig` — including
its own seed — so the winner and every KPI are bit-identical to the
serial sweep regardless of backend or scheduling; the equivalence suite
(``tests/parallel/test_equivalence.py``) pins that down. Worker-side
telemetry is not lost: each cell records into a private tracer/metrics
registry whose snapshot the parent folds back in with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` and
:meth:`~repro.obs.trace.Tracer.adopt`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.bpr import BPR, BPRConfig
from repro.datasets.merged import MergedDataset
from repro.errors import EvaluationError
from repro.eval.evaluator import fit_and_evaluate
from repro.eval.split import DatasetSplit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.parallel.pool import WorkerPool, shared_payload, task_seeds

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


@dataclass(frozen=True)
class _GridCellTask:
    """Everything cell-specific one worker needs for one grid cell.

    Deliberately small — a config, a ``k``, a seed — because the heavy
    read-only payload (the split and the dataset, identical for every
    cell) travels once per worker through the pool's ``shared`` channel
    instead of once per task. ``trace_seed`` seeds the worker's private
    tracer id stream; it never influences training, which draws from
    ``config.seed`` alone.
    """

    config: BPRConfig
    k: int
    trace_seed: int
    traced: bool


def _evaluate_grid_cell(task: _GridCellTask) -> tuple[float, float, dict, list]:
    """Evaluate one cell in a worker (module-level for pickling).

    Reads ``(split, dataset)`` from the pool's shared payload and
    returns ``(val_urr, val_nrr, metrics snapshot, span dicts)`` — plain
    data only, so the result crosses a process boundary cheaply.
    """
    split, dataset = shared_payload()
    tracer = Tracer(seed=task.trace_seed) if task.traced else None
    metrics = MetricsRegistry()
    with start_span(
        tracer, "grid.cell",
        n_factors=task.config.n_factors,
        learning_rate=task.config.learning_rate,
    ) as span:
        result = fit_and_evaluate(
            BPR(task.config, tracer=tracer, metrics=metrics),
            split, dataset, ks=(task.k,), holdout="val",
            tracer=tracer, metrics=metrics,
        )
        report = result.report(task.k)
        span.set_attrs(val_urr=report.urr, val_nrr=report.nrr)
    spans = [s.as_dict() for s in tracer.spans] if tracer is not None else []
    return report.urr, report.nrr, metrics.snapshot(), spans


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
    backend: str = "auto",
) -> GridSearchResult:
    """Sweep (n_factors, learning_rate), scoring URR@k on BCT validation.

    ``base_config`` supplies everything the grid does not vary (epochs,
    sampler, seed, ...). ``tracer``/``metrics`` thread into
    every cell's :class:`BPR` and evaluation: the sweep is one
    ``grid.search`` span with a ``grid.cell`` child per configuration,
    and each cell's validation URR/NRR land in
    ``grid.val_urr``/``grid.val_nrr`` gauges labelled by the cell
    coordinates.

    ``n_jobs``/``backend`` select the execution backend (see
    :class:`~repro.parallel.WorkerPool`): with ``n_jobs > 1`` the
    independent cells run on worker processes (or threads) and return
    the bit-identical winner and points of the serial sweep, with
    per-cell metrics snapshots merged into ``metrics`` and per-cell
    spans adopted into ``tracer`` in cell order.

    Raises:
        EvaluationError: when either grid axis is empty.
    """
    if not factor_grid or not learning_rate_grid:
        raise EvaluationError("both grid axes need at least one value")
    base_config = base_config or BPRConfig()
    cells = [
        (n_factors, learning_rate)
        for n_factors in factor_grid
        for learning_rate in learning_rate_grid
    ]
    pool = WorkerPool(n_jobs=n_jobs, backend=backend, shared=(split, dataset))
    if pool.backend == "serial":
        points = _sweep_serial(
            cells, base_config, split, dataset, k, tracer, metrics
        )
    else:
        with pool:
            points = _sweep_parallel(
                cells, base_config, k, tracer, metrics, pool
            )
    best = max(points, key=lambda p: (p.val_urr, p.val_nrr))
    return GridSearchResult(points=tuple(points), best=best, k=k)


def _sweep_serial(
    cells: list[tuple[int, float]],
    base_config: BPRConfig,
    split: DatasetSplit,
    dataset: MergedDataset,
    k: int,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> list[GridPoint]:
    """The reference path: every cell in-process, in grid order."""
    points: list[GridPoint] = []
    with start_span(
        tracer, "grid.search", cells=len(cells), k=k,
    ):
        for n_factors, learning_rate in cells:
            config = replace(
                base_config,
                n_factors=n_factors,
                learning_rate=learning_rate,
            )
            with start_span(
                tracer, "grid.cell",
                n_factors=n_factors, learning_rate=learning_rate,
            ) as span:
                result = fit_and_evaluate(
                    BPR(config, tracer=tracer, metrics=metrics),
                    split, dataset, ks=(k,), holdout="val",
                    tracer=tracer, metrics=metrics,
                )
                report = result.report(k)
                span.set_attrs(val_urr=report.urr, val_nrr=report.nrr)
            _record_cell(metrics, n_factors, learning_rate, report.urr,
                         report.nrr)
            points.append(
                GridPoint(
                    n_factors=n_factors,
                    learning_rate=learning_rate,
                    val_urr=report.urr,
                    val_nrr=report.nrr,
                )
            )
    return points


def _sweep_parallel(
    cells: list[tuple[int, float]],
    base_config: BPRConfig,
    k: int,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    pool: WorkerPool,
) -> list[GridPoint]:
    """The distributed path: one task per cell, telemetry merged back.

    The split and dataset ride the pool's shared channel (set by
    :func:`grid_search_bpr`), so each task pickles only its config.
    """
    trace_seeds = task_seeds(base_config.seed, "grid.cells", len(cells))
    tasks = [
        _GridCellTask(
            config=replace(
                base_config, n_factors=n_factors, learning_rate=learning_rate
            ),
            k=k,
            trace_seed=trace_seed,
            traced=tracer is not None,
        )
        for (n_factors, learning_rate), trace_seed in zip(cells, trace_seeds)
    ]
    with start_span(
        tracer, "grid.search", cells=len(cells), k=k,
        n_jobs=pool.n_jobs, backend=pool.backend,
    ):
        outcomes = pool.map(_evaluate_grid_cell, tasks, chunk_size=1)
    points: list[GridPoint] = []
    for (n_factors, learning_rate), outcome in zip(cells, outcomes):
        val_urr, val_nrr, snapshot, spans = outcome
        if tracer is not None:
            tracer.adopt(spans)
        if metrics is not None:
            metrics.merge_snapshot(snapshot)
        _record_cell(metrics, n_factors, learning_rate, val_urr, val_nrr)
        points.append(
            GridPoint(
                n_factors=n_factors,
                learning_rate=learning_rate,
                val_urr=val_urr,
                val_nrr=val_nrr,
            )
        )
    return points


def _record_cell(
    metrics: MetricsRegistry | None,
    n_factors: int,
    learning_rate: float,
    val_urr: float,
    val_nrr: float,
) -> None:
    """Record one cell's KPI gauges exactly as the serial loop always has."""
    if metrics is None:
        return
    labels = {
        "n_factors": str(n_factors),
        "learning_rate": str(learning_rate),
    }
    metrics.counter("grid.cells").inc()
    metrics.gauge("grid.val_urr").labels(**labels).set(val_urr)
    metrics.gauge("grid.val_nrr").labels(**labels).set(val_nrr)

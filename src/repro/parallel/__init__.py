"""Parallel execution layer: seeded, deterministic work distribution.

One abstraction — :class:`WorkerPool` — hides serial, thread, and
process execution behind a chunked, order-stable ``map`` interface, with
per-task seed derivation (:func:`task_seeds`) done in the parent so that
seeded work is bit-identical on every backend. The three hot surfaces
wired through it:

- **grid search** — :func:`repro.eval.grid.grid_search_bpr` runs
  independent hyper-parameter cells in worker processes
  (``n_jobs=...``), merging per-cell metrics snapshots and trace spans
  back into the parent registry/tracer;
- **embedding and pipeline** — :class:`repro.text.HashedTfidfEmbedder`
  and the merge/genre stages chunk their per-book work across workers
  with order-stable reassembly;
- **serving** — :class:`repro.app.service.RecommendationService` is
  thread-safe (locked cache, lock-guarded stats and metrics), exercised
  by the ``scripts/loadgen.py`` concurrent load generator.

``tests/parallel/`` holds the serial-vs-thread-vs-process equivalence
suite. Determinism rules are documented in ``docs/determinism.md``.
"""

from repro.parallel.pool import (
    BACKENDS,
    WorkerPool,
    chunk_slices,
    parallel_map,
    resolve_n_jobs,
    shared_payload,
    task_seeds,
)

__all__ = [
    "BACKENDS",
    "WorkerPool",
    "chunk_slices",
    "parallel_map",
    "resolve_n_jobs",
    "shared_payload",
    "task_seeds",
]

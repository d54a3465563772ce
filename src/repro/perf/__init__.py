"""Performance measurement harness.

:mod:`repro.perf.timer` provides the :class:`~repro.perf.timer.Timer`
context manager and throughput helpers used by the benches;
:mod:`repro.perf.fastpath` measures every fast path introduced by the
vectorised-scoring work (masking, rank-only evaluation, blockwise /
truncated similarity, cached serving) against its reference
implementation and writes the ``BENCH_fastpath.json`` trajectory file;
:mod:`repro.perf.rss` attributes peak resident-set-size to individual
phases; :mod:`repro.perf.scalebench` measures the out-of-core data path
(sharded generation + streaming merge) and writes ``BENCH_scale.json``;
:mod:`repro.perf.servebench` measures the serving retrieval tiers
(recall@k-vs-latency frontier, exact-tier equivalence, Zipf replay) and
writes ``BENCH_serve.json``.
"""

from repro.perf.timer import Timer, TimingResult, best_of, throughput
from repro.perf.fastpath import FastpathBenchConfig, run_fastpath_bench
from repro.perf.rss import PhaseRss, measure_phase_rss, reset_peak_rss
from repro.perf.scalebench import ScaleBenchConfig, run_scale_bench
from repro.perf.servebench import (
    ServeBenchConfig,
    render_serve_report,
    run_serve_bench,
)

__all__ = [
    "Timer",
    "TimingResult",
    "best_of",
    "throughput",
    "FastpathBenchConfig",
    "run_fastpath_bench",
    "PhaseRss",
    "measure_phase_rss",
    "reset_peak_rss",
    "ScaleBenchConfig",
    "run_scale_bench",
    "ServeBenchConfig",
    "render_serve_report",
    "run_serve_bench",
]

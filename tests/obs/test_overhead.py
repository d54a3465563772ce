"""Overhead and non-interference guarantees of the instrumentation.

Two promises keep observability safe to leave in the hot paths:

- the no-op path (``tracer=None``) hands out one shared ``NULL_SPAN``
  and retains zero memory — instrumented code pays a single ``if``;
- hooks draw no randomness from the training stream, so a fit with
  tracing/metrics/callbacks attached is bit-identical to a bare fit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.bpr import BPR, BPRConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, TickingClock, Tracer, start_span

OVERHEAD_CONFIG = BPRConfig(epochs=2, seed=7)


class TestNoOpOverhead:
    def test_no_tracer_returns_the_shared_null_span(self):
        spans = {id(start_span(None, "stage", k=i)) for i in range(100)}
        assert spans == {id(NULL_SPAN)}

    def test_null_span_retains_zero_memory(self):
        def run(n: int) -> None:
            for index in range(n):
                with start_span(None, "hot.loop", index=index) as span:
                    span.set_attrs(x=index)

        run(100)  # warm up allocator caches and bytecode specialisation
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            run(10_000)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0, (
            f"no-op spans retained {after - before} bytes over 10k entries"
        )

    def test_real_spans_do_allocate_as_a_sanity_check(self):
        tracer = Tracer(
            seed=1, clock=TickingClock(), cpu_clock=TickingClock()
        )
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(100):
                with tracer.span("real"):
                    pass
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before > 0


class TestBitCompatibility:
    def test_instrumented_fit_is_bit_identical_to_bare_fit(
        self, tiny_split, tiny_merged
    ):
        bare = BPR(OVERHEAD_CONFIG)
        bare.fit(tiny_split.train, tiny_merged)

        seen_epochs = []
        instrumented = BPR(
            OVERHEAD_CONFIG,
            callbacks=[seen_epochs.append],
            tracer=Tracer(
                seed=123, clock=TickingClock(), cpu_clock=TickingClock()
            ),
            metrics=MetricsRegistry(),
        )
        instrumented.fit(tiny_split.train, tiny_merged)

        assert np.array_equal(bare.user_factors, instrumented.user_factors)
        assert np.array_equal(bare.item_factors, instrumented.item_factors)
        assert len(seen_epochs) == OVERHEAD_CONFIG.epochs
        assert [e.epoch for e in seen_epochs] == [
            e.epoch for e in bare.history
        ]
        assert [e.updated_fraction for e in seen_epochs] == [
            e.updated_fraction for e in bare.history
        ]

    def test_instrumented_fit_records_spans_and_metrics(
        self, tiny_split, tiny_merged
    ):
        metrics = MetricsRegistry()
        tracer = Tracer(
            seed=5, clock=TickingClock(), cpu_clock=TickingClock()
        )
        model = BPR(OVERHEAD_CONFIG, tracer=tracer, metrics=metrics)
        model.fit(tiny_split.train, tiny_merged)

        names = [span.name for span in tracer.spans]
        assert names.count("bpr.epoch") == OVERHEAD_CONFIG.epochs
        assert names[-1] == "bpr.fit"
        assert metrics.counter("bpr.epochs").value == OVERHEAD_CONFIG.epochs
        epoch_hist = metrics.histogram("bpr.epoch_seconds")
        assert epoch_hist.count == OVERHEAD_CONFIG.epochs
        batch_hist = metrics.histogram("bpr.batch_seconds")
        assert batch_hist.count > 0

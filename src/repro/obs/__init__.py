"""Observability: metrics registry and structured tracing.

The subsystem is dependency-free and fully deterministic under a fixed
seed: span/trace ids come from :func:`repro.rng.derive_rng`, clocks are
injectable (:class:`~repro.obs.trace.TickingClock`), and JSONL trace
export rides the crash-safe :func:`repro.resilience.artefacts.atomic_write`.

Entry points:

- :class:`MetricsRegistry` — counters/gauges/histograms with labelled
  children and an immutable :meth:`~MetricsRegistry.snapshot`;
- :class:`Tracer` / :func:`start_span` — nested spans (wall + CPU time,
  exception status); ``start_span(None, ...)`` is an allocation-free
  no-op so hot paths stay cold when untraced;
- :func:`run_instrumented_demo` — the instrumented synthetic
  pipeline → fit → evaluate → serve run behind ``python -m repro metrics``
  and the golden trace tests.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    StageProfile,
    load_trace_jsonl,
    render_stage_table,
    stage_profiles,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TickingClock,
    Tracer,
    start_span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "StageProfile",
    "TickingClock",
    "Tracer",
    "load_trace_jsonl",
    "render_stage_table",
    "run_instrumented_demo",
    "stage_profiles",
    "start_span",
]


def run_instrumented_demo(*args, **kwargs):
    """Lazy proxy for :func:`repro.obs.demo.run_instrumented_demo`.

    Deferred because the demo pulls in the model/service stack, which
    (through :mod:`repro.app.service`) imports this package.
    """
    # repro: allow[layering] — lazy re-export of the top-of-stack demo
    from repro.obs.demo import run_instrumented_demo as _run

    return _run(*args, **kwargs)

"""Structured tracing: nested spans with deterministic ids.

A :class:`Tracer` produces a tree of :class:`Span` records per traced
operation — name, attributes, wall and CPU time, and exception status.
Span and trace ids are drawn from a :func:`repro.rng.derive_rng` stream,
so a fixed seed replays the exact same id sequence; combined with an
injectable clock (see :class:`TickingClock`) a whole trace becomes
bit-reproducible, which is what lets ``tests/obs`` pin golden JSONL
traces for the synthetic end-to-end run.

Spans nest through an internal stack: a span opened while another is
active becomes its child (``parent_id``), and the well-nestedness
invariants — every child's interval lies inside its parent's, timestamps
are monotone under a monotone clock — are property-tested.

Exporters:

- **in-memory** — finished spans accumulate on :attr:`Tracer.spans`
  (root-last, i.e. completion order);
- **JSONL** — :meth:`Tracer.export_jsonl` writes one span per line via
  the crash-safe :func:`repro.resilience.artefacts.atomic_write`.

The hot paths accept ``tracer=None`` and call :func:`start_span`, which
returns a shared no-op span without allocating — the overhead guard in
``tests/obs/test_overhead.py`` asserts zero allocations per no-op span.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.resilience.artefacts import atomic_write
from repro.rng import derive_rng

STATUS_OK = "ok"
STATUS_ERROR = "error"

class Span:
    """One traced operation; used as a context manager.

    Timing fields are filled by the owning tracer's clocks:
    ``start``/``end`` from the wall clock and ``cpu_seconds`` from the CPU
    clock. ``status`` is ``"ok"`` unless the body raised, in which case
    ``error`` carries ``ExceptionType: message`` and the exception
    propagates.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "start", "end", "cpu_seconds", "status", "error", "_tracer",
        "_cpu_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start: float | None = None
        self.end: float | None = None
        self.cpu_seconds: float | None = None
        self.status = STATUS_OK
        self.error: str | None = None
        self._tracer = tracer
        self._cpu_start: float | None = None

    @property
    def seconds(self) -> float:
        """Wall seconds between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set_attrs(self, **attrs) -> None:
        """Attach several attributes to the span at once."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._cpu_start = self._tracer._cpu_clock()
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.end = self._tracer._clock()
        cpu_start = self._cpu_start if self._cpu_start is not None else 0.0
        self.cpu_seconds = self._tracer._cpu_clock() - cpu_start
        if exc is not None:
            self.status = STATUS_ERROR
            self.error = f"{type(exc).__name__}: {exc}"
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finished.append(self)
        self._tracer._trim()

    def as_dict(self) -> dict:
        """A JSON-serialisable record of this span (one JSONL line)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """A reusable no-op span: every operation does nothing.

    A single module-level instance (:data:`NULL_SPAN`) is handed out by
    :func:`start_span` when no tracer is configured, so the instrumented
    fast paths pay no allocation for being traceable.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        return None

    def set_attrs(self, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


def start_span(tracer: "Tracer | None", name: str, **attrs):
    """``tracer.span(name, **attrs)``, or the shared no-op span.

    The single ``if`` is the whole cost of instrumentation when tracing is
    off; hot paths use this instead of conditional blocks.
    """
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


class Tracer:
    """Produces nested spans with deterministic ids.

    Args:
        seed: seed for the id stream (``repro.rng`` semantics) — two
            tracers with the same seed emit identical id sequences.
        clock: wall clock for span start/end (``time.perf_counter``
            default; inject :class:`TickingClock` for reproducible
            timestamps).
        cpu_clock: CPU clock (``time.process_time`` default).
        max_spans: retained finished spans (oldest dropped beyond this),
            bounding a long-lived service's memory.
    """

    def __init__(
        self,
        seed: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        max_spans: int = 100_000,
    ) -> None:
        if max_spans < 1:
            raise ConfigurationError(
                f"max_spans must be >= 1, got {max_spans}"
            )
        self.seed = seed
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._ids = derive_rng(seed, "obs", "trace-ids")
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._max_spans = max_spans

    def _next_id(self, width: int = 16) -> str:
        return f"{int(self._ids.integers(0, 2**63)):0{width}x}"

    def span(self, name: str, **attrs) -> Span:
        """Open a span (use as ``with tracer.span("stage") as span:``).

        The first span opened while no other is active starts a new trace;
        nested spans inherit the trace id and point at their parent.
        """
        if not name:
            raise ConfigurationError("span name must be non-empty")
        if self._stack:
            parent = self._stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._next_id(32)
            parent_id = None
        return Span(self, name, trace_id, self._next_id(), parent_id, attrs)

    @property
    def active_span(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def spans(self) -> tuple[Span, ...]:
        """Finished spans, in completion order (children before parents)."""
        return tuple(self._finished)

    def clear(self) -> None:
        """Drop every finished span (open spans are unaffected)."""
        self._finished.clear()

    def adopt(self, records: "Iterable[dict]") -> None:
        """Append finished spans recorded by another tracer.

        This is how traces cross a process boundary: a worker records
        into its own seeded tracer, ships ``[span.as_dict() for span in
        tracer.spans]`` back with its result, and the parent adopts
        them. Adopted spans keep their original ids, timings, and
        parent links (they form separate traces from the parent's), and
        participate in :meth:`export_jsonl` like locally finished spans.

        Args:
            records: :meth:`Span.as_dict` dictionaries, in the order
                they should appear in the finished-span list.
        """
        for record in records:
            span = Span(
                self,
                record["name"],
                record["trace_id"],
                record["span_id"],
                record.get("parent_id"),
                dict(record.get("attrs", {})),
            )
            span.start = record.get("start")
            span.end = record.get("end")
            span.cpu_seconds = record.get("cpu_seconds")
            span.status = record.get("status", STATUS_OK)
            span.error = record.get("error")
            self._finished.append(span)
        self._trim()

    def export_jsonl(self, path: str | Path) -> Path:
        """Write finished spans as JSON Lines, crash-safely.

        One :meth:`Span.as_dict` object per line, completion order — a
        well-nested file therefore lists every span after all of its
        children, which ``scripts/trace_report.py`` relies on not at all
        (it re-groups by name).
        """
        path = Path(path)
        with atomic_write(path, "w", encoding="utf-8") as handle:
            for span in self._finished:
                handle.write(json.dumps(span.as_dict(), sort_keys=True))
                handle.write("\n")
        return path

    def _trim(self) -> None:
        overflow = len(self._finished) - self._max_spans
        if overflow > 0:
            del self._finished[:overflow]


class TickingClock:
    """A deterministic clock: each call returns ``start + calls * step``.

    Injected into :class:`Tracer` (and the service) for golden traces —
    all timing fields become functions of call order alone.
    """

    def __init__(self, start: float = 0.0, step: float = 0.001) -> None:
        if step <= 0:
            raise ConfigurationError(f"step must be positive, got {step}")
        self._now = start
        self._step = step

    def __call__(self) -> float:
        now = self._now
        self._now += self._step
        return now

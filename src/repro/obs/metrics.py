"""A dependency-free metrics registry: counters, gauges, histograms.

The registry is the service-side complement of the resilience layer added
in PR 2: every degradation, cache outcome, breaker transition, pipeline
quarantine, and latency observation lands in one process-wide-shareable
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot` is a
plain, deep-copied ``dict`` (JSON-serialisable, immutable with respect to
later instrument updates).

Three instrument kinds, Prometheus-style but in-process only:

- :class:`Counter` — monotonically non-decreasing floats;
- :class:`Gauge` — floats that move both ways;
- :class:`Histogram` — fixed upper-bound buckets plus an optional bounded
  *window* of raw observations for exact percentile reporting.

Every instrument supports labelled children via :meth:`~Counter.labels`
(``registry.counter("service.degraded").labels(source="static")``);
children share the parent's name and appear in the snapshot under a
canonical ``key=value`` label string.

Invariants the property suite pins down (``tests/obs/test_metrics.py``):

- a histogram's per-bucket counts always sum to its observation count;
- snapshots are immutable copies — mutating one never changes the
  registry, and two consecutive snapshots of an idle registry are equal;
- counters reject negative increments.

Concurrency: every instrument mutation (``inc``/``set``/``observe``,
labelled-child creation, registry create-or-get) takes a per-object
lock, so one registry can be shared by the concurrent serving path
(:class:`~repro.app.service.RecommendationService` under a thread pool)
without lost updates — the audit lives in
``tests/app/test_service_concurrency.py``. Worker processes cannot share
a registry at all; they snapshot their private registry and the parent
folds it in with :meth:`MetricsRegistry.merge_snapshot`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError

#: Default histogram buckets for request/stage latencies, in seconds.
#: Geometric from 100 µs to ~10 s; observations above the last bound land
#: in the implicit +inf overflow bucket.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default raw-observation window retained for exact percentiles.
DEFAULT_WINDOW = 10_000


def _label_key(labels: Mapping[str, str]) -> str:
    """Canonical, order-independent string form of a label set."""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def _parse_label_key(key: str) -> dict[str, str]:
    """Invert :func:`_label_key` (labels must not contain ``,`` or ``=``)."""
    labels: dict[str, str] = {}
    for part in key.split(","):
        name, _, value = part.partition("=")
        labels[name] = value
    return labels


class _Instrument:
    """Shared labelled-children machinery."""

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ConfigurationError("instrument name must be non-empty")
        self.name = name
        self.help = help
        self._children: dict[str, "_Instrument"] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child instrument for one label combination (created lazily)."""
        if not labels:
            raise ConfigurationError(
                f"labels() on {self.name!r} needs at least one label"
            )
        key = _label_key({k: str(v) for k, v in labels.items()})
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically non-decreasing count."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the count by ``amount`` (thread-safe, must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def _reset(self) -> None:
        # Under the instrument lock: a reset racing a concurrent inc()
        # must not resurrect a half-applied increment.
        with self._lock:
            self._value = 0.0
        for child in self._children.values():
            child._reset()

    def _snapshot(self) -> dict:
        out: dict = {"value": self._value}
        if self._children:
            out["labels"] = {
                key: child._value  # type: ignore[attr-defined]
                for key, child in sorted(self._children.items())
            }
        return out


class Gauge(_Instrument):
    """A value that can move in both directions."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value (thread-safe)."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount`` (thread-safe)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current gauge value."""
        return self._value

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0
        for child in self._children.values():
            child._reset()

    def _snapshot(self) -> dict:
        out: dict = {"value": self._value}
        if self._children:
            out["labels"] = {
                key: child._value  # type: ignore[attr-defined]
                for key, child in sorted(self._children.items())
            }
        return out


class Histogram(_Instrument):
    """Fixed-bucket histogram with an exact-percentile window.

    ``buckets`` are strictly increasing finite upper bounds; an implicit
    +inf overflow bucket catches everything above the last bound, so the
    per-bucket counts always sum to the observation count.

    ``window`` bounds a deque of the most recent raw observations used by
    :meth:`percentile`; it is the single source of truth for latency
    percentiles (``ServiceStats.percentile`` and ``health()`` both read
    it, so the two can never disagree). ``window=0`` disables the raw
    window and :meth:`percentile` falls back to a bucket-upper-bound
    estimate.
    """

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
        help: str = "",
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bucket bounds must strictly increase"
            )
        if not all(np.isfinite(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} bucket bounds must be finite "
                "(the +inf overflow bucket is implicit)"
            )
        if window < 0:
            raise ConfigurationError(
                f"histogram {name!r} window must be >= 0, got {window}"
            )
        self.buckets = bounds
        self.window_size = window
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        """Record one observation into the buckets and the raw window.

        Thread-safe: bucket counts, the running sum/count, and the
        window move together under the instrument lock, so concurrent
        observers cannot break the counts-sum-to-count invariant.
        """
        value = float(value)
        # The bucket ``np.searchsorted(buckets, value, side="left")`` names;
        # bisect on the tuple is cheaper for one value, but it puts NaN
        # first, where searchsorted puts it in the overflow bucket.
        if math.isnan(value):
            index = len(self.buckets)
        else:
            index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self.window_size:
                self._window.append(value)

    @property
    def count(self) -> int:
        """Total observations recorded (window and overflow included)."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last entry is the overflow."""
        return tuple(self._counts)

    @property
    def window(self) -> tuple[float, ...]:
        """The retained raw observations, oldest first."""
        return tuple(self._window)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) over the raw window.

        Matches ``numpy.quantile``'s linear interpolation exactly. With
        the window disabled (or empty), falls back to the smallest bucket
        upper bound whose cumulative count covers ``q`` (the classic
        Prometheus-style estimate), or 0.0 with no observations at all.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        if self._window:
            return float(np.quantile(np.asarray(self._window), q))
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.buckets[-1]
        return self.buckets[-1]

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 before any observation)."""
        return self._sum / self._count if self._count else 0.0

    def _merge_entry(self, entry: dict) -> None:
        """Fold a foreign snapshot entry's buckets/sum/count into this one.

        Raises:
            ConfigurationError: when the foreign bucket bounds disagree
                with this histogram's.
        """
        if tuple(entry["buckets"]) != self.buckets:
            raise ConfigurationError(
                f"histogram {self.name!r} bucket bounds differ from the "
                "snapshot being merged"
            )
        with self._lock:
            for index, count in enumerate(entry["counts"]):
                self._counts[index] += int(count)
            self._sum += float(entry["sum"])
            self._count += int(entry["count"])
        for key, child_entry in entry.get("labels", {}).items():
            child = self.labels(**_parse_label_key(key))
            child._merge_entry(child_entry)

    def _make_child(self) -> "Histogram":
        return Histogram(
            self.name, self.buckets, window=self.window_size, help=self.help
        )

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._window.clear()
        for child in self._children.values():
            child._reset()

    def _snapshot(self) -> dict:
        out: dict = {
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
        }
        if self._children:
            out["labels"] = {
                key: child._snapshot()  # type: ignore[attr-defined]
                for key, child in sorted(self._children.items())
            }
        return out


class MetricsRegistry:
    """Create-or-get registry of named instruments.

    Asking twice for the same name returns the same instrument; asking for
    an existing name with a different kind raises
    :class:`~repro.errors.ConfigurationError` (a counter cannot silently
    become a gauge).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        """Create-or-get the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create-or-get the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
        help: str = "",
    ) -> Histogram:
        """Create-or-get the :class:`Histogram` called ``name``.

        ``buckets``/``window`` only apply on first creation; a later
        request with a different kind raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._get_or_create(
            Histogram, name, buckets=buckets, window=window, help=help
        )

    def _get_or_create(self, kind: type, name: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not kind:
                    raise ConfigurationError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"requested as {kind.__name__}"
                    )
                return existing
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def __contains__(self, name: str) -> bool:
        """Whether an instrument called ``name`` exists."""
        return name in self._instruments

    @property
    def names(self) -> tuple[str, ...]:
        """Every registered instrument name, sorted."""
        return tuple(sorted(self._instruments))

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a foreign :meth:`snapshot` into this registry.

        This is how metrics cross a process boundary: a worker records
        into its own private registry, ships ``registry.snapshot()``
        back with its result, and the parent merges every worker
        snapshot — in task-submission order, so gauge values land
        exactly as the serial path would have left them.

        Merge semantics per instrument kind (labelled children
        included, matched by their canonical label string):

        - **counters** add the foreign value;
        - **gauges** take the foreign value (last merge wins);
        - **histograms** add bucket counts, sum, and count. Raw
          percentile windows do not travel through snapshots, so
          percentiles over merged-only data fall back to the bucket
          upper-bound estimate.

        Args:
            snapshot: a dict produced by :meth:`snapshot` (possibly in
                another process).

        Raises:
            ConfigurationError: when a name collides with an existing
                instrument of a different kind, or histogram bucket
                bounds disagree.
        """
        for name, entry in snapshot.get("counters", {}).items():
            counter = self.counter(name)
            counter.inc(entry["value"])
            for key, value in entry.get("labels", {}).items():
                counter.labels(**_parse_label_key(key)).inc(value)
        for name, entry in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(entry["value"])
            for key, value in entry.get("labels", {}).items():
                gauge.labels(**_parse_label_key(key)).set(value)
        for name, entry in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, buckets=tuple(entry["buckets"]))
            histogram._merge_entry(entry)

    def reset(self) -> None:
        """Zero every instrument (labelled children included) in place."""
        for instrument in self._instruments.values():
            instrument._reset()

    def snapshot(self) -> dict:
        """A deep, JSON-serialisable copy of every instrument's state."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument._snapshot()
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument._snapshot()
            else:
                histograms[name] = instrument._snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render(self) -> str:
        """A human-readable dump of the registry (one line per series)."""
        snap = self.snapshot()
        lines: list[str] = []
        for name, entry in snap["counters"].items():
            lines.append(f"counter    {name:<36} {entry['value']:g}")
            for key, value in entry.get("labels", {}).items():
                lines.append(f"counter    {name}{{{key}}} {value:g}")
        for name, entry in snap["gauges"].items():
            lines.append(f"gauge      {name:<36} {entry['value']:g}")
            for key, value in entry.get("labels", {}).items():
                lines.append(f"gauge      {name}{{{key}}} {value:g}")
        for name, entry in snap["histograms"].items():
            lines.append(
                f"histogram  {name:<36} count={entry['count']} "
                f"sum={entry['sum']:.6g}"
            )
        return "\n".join(lines)

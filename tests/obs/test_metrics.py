"""Property and unit tests for the metrics registry.

The invariants promised in :mod:`repro.obs.metrics`'s docstring are pinned
here: bucket counts always sum to the observation count, snapshots are
immutable deep copies, counters are monotone, and the exact-percentile
window agrees with ``numpy.quantile`` bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

observations = st.lists(
    st.floats(
        min_value=0.0, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    ),
    max_size=200,
)


class TestHistogramProperties:
    @settings(deadline=None, max_examples=100)
    @given(values=observations)
    def test_bucket_counts_sum_to_observation_count(self, values):
        histogram = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in values:
            histogram.observe(value)
        assert sum(histogram.bucket_counts) == histogram.count == len(values)

    @settings(deadline=None, max_examples=100)
    @given(values=observations)
    def test_sum_and_mean_match_raw_observations(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        assert histogram.sum == pytest.approx(sum(values))
        if values:
            assert histogram.mean == pytest.approx(
                sum(values) / len(values)
            )
        else:
            assert histogram.mean == 0.0

    @settings(deadline=None, max_examples=100)
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=100,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_percentile_matches_numpy_quantile(self, values, q):
        histogram = Histogram("h", buckets=(1.0, 10.0), window=1000)
        for value in values:
            histogram.observe(value)
        assert histogram.percentile(q) == float(
            np.quantile(np.asarray(values), q)
        )

    @settings(deadline=None, max_examples=50)
    @given(values=observations)
    def test_overflow_bucket_catches_everything_above_last_bound(self, values):
        bounds = (0.5,)
        histogram = Histogram("h", buckets=bounds)
        for value in values:
            histogram.observe(value)
        overflow = sum(1 for v in values if v > bounds[-1])
        assert histogram.bucket_counts[-1] == overflow

    def test_window_is_bounded_and_oldest_first(self):
        histogram = Histogram("h", window=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.window == (2.0, 3.0, 4.0)
        assert histogram.count == 4  # buckets keep the full history

    def test_disabled_window_falls_back_to_bucket_bounds(self):
        histogram = Histogram("h", buckets=(0.1, 1.0, 10.0), window=0)
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.window == ()
        assert histogram.percentile(0.5) == 1.0
        assert histogram.percentile(1.0) == 10.0  # overflow clamps to last

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram("h").percentile(0.5) == 0.0

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ConfigurationError):
            Histogram("h").percentile(1.5)

    def test_bucket_bounds_must_strictly_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_bucket_bounds_must_be_finite(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, float("inf")))


class TestBucketRule:
    """Every value lands in the bucket ``np.searchsorted`` names, so the
    bucket indices (and the goldens) stay those of the vectorised rule."""

    @staticmethod
    def _bucket(bounds, value):
        histogram = Histogram("h", buckets=bounds)
        histogram.observe(value)
        return histogram.bucket_counts.index(1)

    @staticmethod
    def _searchsorted(bounds, value):
        return int(np.searchsorted(np.asarray(bounds), value, side="left"))

    @pytest.mark.parametrize(
        "bounds",
        [(0.5,), (0.1, 1.0, 10.0), (-1.0, 0.0, 1.0), DEFAULT_LATENCY_BUCKETS],
    )
    def test_edges_and_specials(self, bounds):
        inf, nan = float("inf"), float("nan")
        between = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
        nudged = [
            float(np.nextafter(b, toward)) for b in bounds for toward in (-inf, inf)
        ]
        values = [
            *bounds, *between, *nudged,
            0.0, -0.0, -1e-300, -3.0, 1e300, inf, -inf, nan,
        ]
        for value in values:
            assert self._bucket(bounds, value) == self._searchsorted(
                bounds, value
            ), value

    def test_nan_lands_in_the_overflow_bucket(self):
        bounds = (0.1, 1.0)
        assert self._bucket(bounds, float("nan")) == len(bounds)

    @settings(deadline=None, max_examples=200)
    @given(value=st.floats(allow_nan=True, allow_infinity=True))
    def test_any_float(self, value):
        assert self._bucket(DEFAULT_LATENCY_BUCKETS, value) == (
            self._searchsorted(DEFAULT_LATENCY_BUCKETS, value)
        )


class TestCounterAndGauge:
    def test_counter_rejects_negative_increment(self):
        counter = Counter("c")
        counter.inc(2.5)
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)
        assert counter.value == 2.5

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.inc(-3.0)
        assert gauge.value == 4.0

    def test_labelled_children_are_cached_and_order_independent(self):
        counter = Counter("c")
        counter.labels(source="static", outcome="hit").inc()
        counter.labels(outcome="hit", source="static").inc()
        assert counter.labels(source="static", outcome="hit").value == 2.0

    def test_labels_requires_at_least_one_label(self):
        with pytest.raises(ConfigurationError):
            Counter("c").labels()


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert "a" in registry
        assert registry.names == ("a",)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")
        with pytest.raises(ConfigurationError):
            registry.histogram("a")

    @settings(deadline=None, max_examples=50)
    @given(values=observations)
    def test_snapshot_is_immutable_copy(self, values):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in values:
            histogram.observe(value)

        first = registry.snapshot()
        reference = copy.deepcopy(first)
        # Mutating the snapshot must not reach back into the registry.
        first["counters"]["c"]["value"] = 999.0
        first["histograms"]["h"]["counts"][0] = 999
        assert registry.snapshot() == reference
        # An idle registry snapshots identically twice.
        assert registry.snapshot() == registry.snapshot()

    def test_snapshot_includes_labelled_series(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(source="static").inc(2)
        registry.histogram("h", buckets=(1.0,)).labels(site="a").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["c"]["labels"] == {"source=static": 2.0}
        assert snap["histograms"]["h"]["labels"]["site=a"]["count"] == 1

    def test_reset_zeroes_everything_including_children(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.counter("c").labels(source="x").inc(2)
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        registry.reset()
        assert registry.counter("c").value == 0.0
        assert registry.counter("c").labels(source="x").value == 0.0
        assert histogram.count == 0
        assert histogram.window == ()

    def test_render_lists_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        rendered = registry.render()
        for fragment in ("counter", "gauge", "histogram", "c", "g", "h"):
            assert fragment in rendered


class TestLatencyPercentilePinning:
    """Satellite: p50/p95/p99 over a known latency sequence are pinned."""

    def test_default_bucket_pinning(self):
        histogram = Histogram(
            "service.latency_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            window=1000,
        )
        latencies = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for value in latencies:
            histogram.observe(value)
        assert histogram.percentile(0.50) == pytest.approx(0.0505)
        assert histogram.percentile(0.95) == pytest.approx(0.09505)
        assert histogram.percentile(0.99) == pytest.approx(0.09901)
        assert histogram.percentile(0.0) == 0.001
        assert histogram.percentile(1.0) == 0.1


class TestConcurrentReset:
    """Regression: ``registry.reset()`` racing recorders stays consistent.

    The static lock-discipline rule caught ``_reset`` zeroing instrument
    state outside the instrument lock; these tests pin the fixed
    behaviour — a reset must never resurrect a half-applied increment or
    tear a histogram's buckets away from its count.
    """

    def test_counter_reset_under_contention(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("hits")
        stop = threading.Event()

        def resetter() -> None:
            while not stop.is_set():
                registry.reset()

        def worker() -> None:
            for _ in range(2000):
                counter.inc()

        reset_thread = threading.Thread(target=resetter)
        workers = [threading.Thread(target=worker) for _ in range(4)]
        reset_thread.start()
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
        finally:
            stop.set()
            reset_thread.join()

        # Every surviving increment is whole: a torn read-modify-write
        # would leave a fractional or negative count behind.
        assert counter.value == int(counter.value)
        assert 0 <= counter.value <= 8000
        registry.reset()
        assert counter.value == 0.0

    def test_histogram_reset_keeps_counts_consistent(self):
        import threading

        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0), window=64)
        stop = threading.Event()

        def resetter() -> None:
            while not stop.is_set():
                registry.reset()

        def worker() -> None:
            for index in range(1500):
                histogram.observe((index % 3) * 0.4)

        reset_thread = threading.Thread(target=resetter)
        workers = [threading.Thread(target=worker) for _ in range(4)]
        reset_thread.start()
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
        finally:
            stop.set()
            reset_thread.join()

        # Quiesced: buckets, sum, and count moved together or not at all.
        assert sum(histogram.bucket_counts) == histogram.count
        assert len(histogram.window) <= 64
        registry.reset()
        assert histogram.count == 0
        assert histogram.window == ()
        assert sum(histogram.bucket_counts) == 0

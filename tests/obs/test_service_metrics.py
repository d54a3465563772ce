"""Service-level metrics regressions.

The chaos-marked class is the degradation-source regression the issue
asks for: every ``served_by`` source that :class:`ServiceStats` records
under fault injection must also be visible in the shared metrics
registry — the health report and the metrics snapshot can never tell
different stories about where responses came from.
"""

from __future__ import annotations

import pytest

from repro.app.lifecycle import ModelStore
from repro.app.service import (
    SERVED_BY_MOST_READ,
    SERVED_BY_PRIMARY,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.most_read import MostReadItems
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TickingClock, Tracer
from repro.resilience.breaker import STATE_OPEN, CircuitBreaker
from tests.resilience.faults import SITE_MODEL_SCORE, FaultInjector, FaultyModel


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_service(
    tiny_bpr, tiny_split, tiny_merged,
    injector=None, with_cold_start=True, **kwargs
):
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=0.5, min_calls=4, window=8,
        cooldown_seconds=10.0, clock=clock,
    )
    cold_start = None
    if with_cold_start:
        cold_start = MostReadItems()
        cold_start.fit(tiny_split.train, tiny_merged)
    model = tiny_bpr if injector is None else FaultyModel(tiny_bpr, injector)
    metrics = MetricsRegistry()
    service = RecommendationService(
        model,
        tiny_split.train,
        tiny_merged,
        cold_start_fallback=cold_start,
        cache_size=kwargs.pop("cache_size", 0),
        breaker=breaker,
        clock=clock,
        metrics=metrics,
        **kwargs,
    )
    return service, clock, metrics


def served_counter_labels(metrics: MetricsRegistry) -> dict[str, float]:
    snap = metrics.snapshot()
    return {
        key.removeprefix("source="): value
        for key, value in
        snap["counters"]["service.served"].get("labels", {}).items()
    }


@pytest.fixture()
def users(tiny_split):
    return [str(u) for u in list(tiny_split.train.users.ids)[:12]]


@pytest.mark.chaos
class TestDegradationSourcesVisibleInMetrics:
    def test_every_stats_degradation_source_appears_in_registry(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged, injector,
            degrade_unknown_users=True,
        )
        for user in users[:4]:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        service.recommend(RecommendationRequest(user_id="nobody", k=5))

        stats_sources = set(service.stats.degradations)
        assert stats_sources  # faults guarantee at least one degradation
        snap = metrics.snapshot()
        degraded_labels = {
            key.removeprefix("source=")
            for key in
            snap["counters"]["service.degraded"].get("labels", {})
        }
        assert stats_sources <= degraded_labels
        # Counts agree series by series, not just the label sets.
        for source, count in service.stats.degradations.items():
            assert (
                snap["counters"]["service.degraded"]["labels"][
                    f"source={source}"
                ]
                == count
            )

    def test_all_four_sources_reach_the_served_counter(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        # Script: first call fails (most-read fallback), rest succeed.
        injector = FaultInjector(
            script={SITE_MODEL_SCORE: [True]}, seed=0
        )
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged, injector,
            degrade_unknown_users=True,
        )
        service.recommend(RecommendationRequest(user_id=users[0], k=5))
        service.recommend(RecommendationRequest(user_id=users[1], k=5))
        service.recommend(RecommendationRequest(user_id="stranger", k=5))

        served = served_counter_labels(metrics)
        # One scripted fault + one unknown user both land on most-read;
        # the healthy second request is served by the primary.
        assert served[SERVED_BY_MOST_READ] == 2.0
        assert served[SERVED_BY_PRIMARY] == 1.0
        assert SERVED_BY_MOST_READ in service.stats.degradations
        assert sum(served.values()) == service.stats.requests

    def test_breaker_transitions_land_in_gauge_and_counter(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        # Four scorings fail; calls beyond the script succeed.
        injector = FaultInjector(script={SITE_MODEL_SCORE: [True] * 4})
        service, clock, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        assert metrics.gauge("service.breaker_state").value == 0.0
        for user in users[:4]:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        assert service.breaker.state == STATE_OPEN
        assert metrics.gauge("service.breaker_state").value == 2.0
        transitions = metrics.counter("service.breaker_transitions")
        assert transitions.labels(to="open").value == 1.0

        # Heal: cool down, half-open probe succeeds, breaker closes.
        clock.advance(10.0)
        service.recommend(RecommendationRequest(user_id=users[5], k=5))
        assert metrics.gauge("service.breaker_state").value == 0.0
        assert transitions.labels(to="half-open").value == 1.0
        assert transitions.labels(to="closed").value == 1.0

    def test_error_counter_tracks_stats_errors(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        for user in users[:3]:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        assert metrics.counter("service.errors").value == float(
            service.stats.errors
        )
        assert service.stats.errors >= 3


class TestHealthAndSnapshotAgree:
    """Satellite: one histogram drives stats, health() and the snapshot."""

    def test_latency_percentiles_come_from_the_shared_histogram(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged
        )
        # Deterministic latencies: feed the shared histogram directly.
        histogram = metrics.histogram("service.latency_seconds")
        assert service.stats.histogram is histogram
        for user in users[:6]:
            service.recommend(RecommendationRequest(user_id=user, k=5))

        health = service.health()
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert health["latency"][key] == service.stats.percentile(q)
            assert health["latency"][key] == histogram.percentile(q)
        assert health["latency"]["mean_seconds"] == histogram.mean
        snap = service.metrics.snapshot()
        assert (
            snap["histograms"]["service.latency_seconds"]["count"]
            == service.stats.requests
            == len(users[:6])
        )

    def test_failed_refresh_counts_as_a_refresh_not_an_error(
        self, tiny_bpr, tiny_split, tiny_merged, tmp_path
    ):
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged
        )
        assert service.refresh_from_store(ModelStore(tmp_path / "empty")) is False
        health = service.health()
        assert health["refreshes"]["failed"] == 1
        assert health["errors"] == 0
        assert metrics.counter("service.errors").value == 0.0
        refreshes = metrics.counter("service.refreshes")
        assert refreshes.labels(outcome="failed").value == 1.0

    def test_pinned_percentiles_over_known_latency_sequence(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service, clock, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged
        )
        histogram = metrics.histogram("service.latency_seconds")
        # Bypass serving: record a known latency sequence through stats,
        # exactly as recommend_response does.
        for ms in range(1, 101):
            service.stats.record(ms / 1000.0)
        assert service.stats.percentile(0.50) == pytest.approx(0.0505)
        assert service.stats.percentile(0.95) == pytest.approx(0.09505)
        assert service.stats.percentile(0.99) == pytest.approx(0.09901)
        health = service.health()
        assert health["latency"]["p50"] == pytest.approx(0.0505)
        assert health["latency"]["p95"] == pytest.approx(0.09505)
        assert health["latency"]["p99"] == pytest.approx(0.09901)
        assert histogram.count == 100

    def test_cache_outcomes_split_into_hit_and_miss(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        service, _, metrics = make_service(
            tiny_bpr, tiny_split, tiny_merged, cache_size=8
        )
        request = RecommendationRequest(user_id=users[0], k=5)
        service.recommend(request)
        service.recommend(request)
        cache = metrics.counter("service.cache")
        assert cache.labels(outcome="miss").value == 1.0
        assert cache.labels(outcome="hit").value == 1.0

    def test_request_span_carries_serving_outcome(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        tracer = Tracer(
            seed=11, clock=TickingClock(), cpu_clock=TickingClock()
        )
        service, _, _ = make_service(
            tiny_bpr, tiny_split, tiny_merged, tracer=tracer
        )
        service.recommend(RecommendationRequest(user_id=users[0], k=5))
        (span,) = [s for s in tracer.spans if s.name == "service.request"]
        assert span.attrs["user_id"] == users[0]
        assert span.attrs["served_by"] == SERVED_BY_PRIMARY
        assert span.attrs["degraded"] is False

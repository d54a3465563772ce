"""Tests for the recommendation service (the GUI request path)."""

import pytest

from repro.app.service import RecommendationRequest, RecommendationService
from repro.core.bpr import BPR
from repro.core.most_read import MostReadItems
from repro.errors import ConfigurationError, UnknownUserError
from repro.obs.trace import STATUS_ERROR, Tracer

from tests.conftest import TINY_BPR


@pytest.fixture(scope="module")
def service(tiny_bpr, tiny_split, tiny_merged):
    return RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)


@pytest.fixture(scope="module")
def a_user(tiny_merged):
    return tiny_merged.bct_user_ids[0]


class TestConstruction:
    def test_requires_fitted_model(self, tiny_split, tiny_merged):
        with pytest.raises(ConfigurationError, match="fitted"):
            RecommendationService(MostReadItems(), tiny_split.train, tiny_merged)


class TestRequests:
    def test_request_validates_k(self):
        with pytest.raises(ConfigurationError):
            RecommendationRequest(user_id="u", k=0)

    def test_default_k_is_20(self):
        assert RecommendationRequest(user_id="u").k == 20

    def test_recommend_returns_ranked_cards(self, service, a_user):
        books = service.recommend(RecommendationRequest(user_id=a_user, k=5))
        assert len(books) == 5
        assert [b.rank for b in books] == [1, 2, 3, 4, 5]
        assert all(b.title and b.author for b in books)

    def test_recommendations_exclude_history(self, service, a_user):
        history_ids = {b.book_id for b in service.history(a_user)}
        recommended = service.recommend(
            RecommendationRequest(user_id=a_user, k=10)
        )
        assert not history_ids & {b.book_id for b in recommended}

    def test_unknown_user(self, service):
        with pytest.raises(UnknownUserError):
            service.recommend(RecommendationRequest(user_id="stranger"))
        assert not service.known_user("stranger")

    def test_history_unknown_user(self, service):
        with pytest.raises(UnknownUserError):
            service.history("stranger")


class TestColdStartFallback:
    def test_unknown_user_gets_most_read(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )
        books = service.recommend(RecommendationRequest("newcomer", k=5))
        expected = [
            int(tiny_split.train.items.id_of(int(i)))
            for i in fallback.top_items(5)
        ]
        assert [b.book_id for b in books] == expected

    def test_known_users_still_personalised(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )
        plain = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        with_fb = service.recommend(RecommendationRequest(a_user, k=5))
        without = plain.recommend(RecommendationRequest(a_user, k=5))
        assert [b.book_id for b in with_fb] == [b.book_id for b in without]

    def test_fallback_must_be_fitted(self, tiny_bpr, tiny_split, tiny_merged):
        with pytest.raises(ConfigurationError, match="fallback"):
            RecommendationService(
                tiny_bpr, tiny_split.train, tiny_merged,
                cold_start_fallback=MostReadItems(),
            )


class TestStats:
    def test_latency_accounting(self, tiny_bpr, tiny_split, tiny_merged, a_user):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        for _ in range(3):
            service.recommend(RecommendationRequest(user_id=a_user, k=5))
        assert service.stats.requests == 3
        assert service.stats.mean_seconds > 0
        assert service.stats.percentile(0.5) > 0
        assert len(service.stats.latencies) == 3

    def test_empty_stats(self, service):
        from repro.app.service import ServiceStats

        stats = ServiceStats()
        assert stats.mean_seconds == 0.0
        assert stats.percentile(0.9) == 0.0

    def test_latency_window_is_bounded(self):
        from repro.app.service import ServiceStats

        stats = ServiceStats(latency_window=5)
        for i in range(8):
            stats.record(float(i + 1))
        assert stats.requests == 8
        assert list(stats.latencies) == [4.0, 5.0, 6.0, 7.0, 8.0]
        # The window bounds the percentile buffer, not the running mean.
        assert stats.mean_seconds == pytest.approx(36.0 / 8)
        assert stats.percentile(1.0) == pytest.approx(8.0)


class TestCache:
    def _service(self, tiny_bpr, tiny_split, tiny_merged, **kwargs):
        return RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, **kwargs
        )

    def test_hit_and_miss_counts(self, tiny_bpr, tiny_split, tiny_merged, a_user):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        request = RecommendationRequest(user_id=a_user, k=5)
        first = service.recommend(request)
        second = service.recommend(request)
        assert first == second
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 1
        assert service.stats.cache_hit_rate == pytest.approx(0.5)

    def test_distinct_k_cached_separately(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        service.recommend(RecommendationRequest(user_id=a_user, k=5))
        service.recommend(RecommendationRequest(user_id=a_user, k=6))
        assert service.stats.cache_misses == 2
        assert service.cached_entries == 2

    def test_lru_eviction(self, tiny_bpr, tiny_split, tiny_merged):
        service = self._service(tiny_bpr, tiny_split, tiny_merged, cache_size=2)
        users = tiny_merged.bct_user_ids[:3]
        for user in users:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        assert service.cached_entries == 2
        # The oldest user was evicted: serving them again is a miss.
        service.recommend(RecommendationRequest(user_id=users[0], k=5))
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 4

    def test_cache_disabled(self, tiny_bpr, tiny_split, tiny_merged, a_user):
        service = self._service(
            tiny_bpr, tiny_split, tiny_merged, cache_size=0
        )
        request = RecommendationRequest(user_id=a_user, k=5)
        service.recommend(request)
        service.recommend(request)
        assert service.cached_entries == 0
        assert service.stats.cache_hits == 0

    def test_negative_cache_size_rejected(self, tiny_bpr, tiny_split, tiny_merged):
        with pytest.raises(ConfigurationError, match="cache_size"):
            self._service(tiny_bpr, tiny_split, tiny_merged, cache_size=-1)

    def test_invalidate_cache(self, tiny_bpr, tiny_split, tiny_merged, a_user):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        request = RecommendationRequest(user_id=a_user, k=5)
        service.recommend(request)
        service.invalidate_cache()
        assert service.cached_entries == 0
        service.recommend(request)
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 2

    def test_refresh_model_invalidates(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        request = RecommendationRequest(user_id=a_user, k=5)
        service.recommend(request)
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service.refresh_model(fallback)
        assert service.cached_entries == 0
        refreshed = service.recommend(request)
        assert service.model is fallback
        assert [b.rank for b in refreshed] == [1, 2, 3, 4, 5]

    def test_refresh_model_requires_fitted(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        with pytest.raises(ConfigurationError, match="fitted"):
            service.refresh_model(MostReadItems())


class TestRecommendMany:
    def test_matches_single_requests(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        requests = [
            RecommendationRequest(user_id=user, k=5)
            for user in tiny_merged.bct_user_ids[:4]
        ]
        batched = service.recommend_many(requests)
        singles = [service.recommend(request) for request in requests]
        assert batched == singles

    def test_mixed_ks_and_cache_reuse(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        service.recommend(RecommendationRequest(user_id=a_user, k=5))
        other = tiny_merged.bct_user_ids[1]
        results = service.recommend_many(
            [
                RecommendationRequest(user_id=a_user, k=5),
                RecommendationRequest(user_id=other, k=7),
            ]
        )
        assert len(results[0]) == 5 and len(results[1]) == 7
        assert service.stats.cache_hits == 1

    def test_unknown_user_marked_not_raised(self, service, a_user):
        """An unserveable request must not poison the rest of the batch."""
        from repro.app.service import SERVED_BY_NONE

        responses = service.recommend_many_responses(
            [
                RecommendationRequest(user_id=a_user, k=5),
                RecommendationRequest(user_id="stranger", k=5),
                RecommendationRequest(user_id=a_user, k=6),
            ]
        )
        assert len(responses[0].books) == 5
        assert len(responses[2].books) == 6
        stranger = responses[1]
        assert stranger.books == ()
        assert stranger.served_by == SERVED_BY_NONE
        assert "stranger" in stranger.error
        # recommend_many mirrors the markers as empty lists.
        lists = service.recommend_many(
            [RecommendationRequest(user_id="stranger", k=5)]
        )
        assert lists == [[]]

    def test_unknown_user_uses_fallback(self, tiny_bpr, tiny_split, tiny_merged):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )
        [books] = service.recommend_many(
            [RecommendationRequest(user_id="newcomer", k=5)]
        )
        assert books == service.recommend(
            RecommendationRequest(user_id="newcomer", k=5)
        )

    def test_empty_batch(self, service):
        assert service.recommend_many([]) == []


class TestResilience:
    """Degradation chain, health reporting, retries, and deadlines.

    The heavier fault-driven scenarios live in
    ``tests/resilience/test_chaos.py``; these cover the service-level
    wiring visible without an injector.
    """

    def _failing_service(self, tiny_bpr, tiny_split, tiny_merged, **kwargs):
        from repro.resilience.faults import SITE_MODEL_SCORE, FaultInjector, FaultyModel

        injector = kwargs.pop(
            "injector", FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        )
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            FaultyModel(tiny_bpr, injector),
            tiny_split.train,
            tiny_merged,
            cold_start_fallback=fallback,
            **kwargs,
        )
        return service, injector

    def test_health_report_shape(self, tiny_bpr, tiny_split, tiny_merged, a_user):
        clock_value = [0.0]
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            clock=lambda: clock_value[0],
        )
        clock_value[0] = 42.0
        service.recommend(RecommendationRequest(user_id=a_user, k=5))
        health = service.health()
        assert health["status"] == "ok"
        assert health["breaker"]["state"] == "closed"
        assert health["model"]["name"] == tiny_bpr.name
        assert health["model"]["staleness_seconds"] == pytest.approx(42.0)
        assert health["requests"] == 1
        assert health["degraded_requests"] == 0
        assert health["errors"] == 0
        assert health["last_error"] is None
        assert health["cache"]["entries"] == 1

    def test_degrade_unknown_users(self, tiny_bpr, tiny_split, tiny_merged):
        from repro.app.service import SERVED_BY_STATIC

        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            degrade_unknown_users=True,
        )
        response = service.recommend_response(
            RecommendationRequest(user_id="stranger", k=5)
        )
        assert response.served_by == SERVED_BY_STATIC
        assert response.degraded
        assert "stranger" in response.error
        assert len(response.books) == 5
        assert service.stats.degradations[SERVED_BY_STATIC] == 1

    def test_degraded_responses_are_not_cached(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_PRIMARY
        from repro.resilience.faults import SITE_MODEL_SCORE

        service, injector = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged
        )
        request = RecommendationRequest(user_id=a_user, k=5)
        degraded = service.recommend_response(request)
        assert degraded.degraded
        assert service.cached_entries == 0
        # Once the model recovers, the same request is served primary —
        # the cache was never poisoned with the fallback list.
        injector.set_rate(SITE_MODEL_SCORE, 0.0)
        healed = service.recommend_response(request)
        assert healed.served_by == SERVED_BY_PRIMARY
        assert not healed.from_cache
        assert service.recommend_response(request).from_cache

    def test_retry_policy_recovers_transient_fault(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_PRIMARY
        from repro.resilience.faults import SITE_MODEL_SCORE, FaultInjector
        from repro.resilience.retry import BackoffPolicy

        injector = FaultInjector(script={SITE_MODEL_SCORE: [True, False]})
        slept = []
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=injector,
            retry_policy=BackoffPolicy(max_attempts=2, base_delay=0.01),
            seed=7,
            retry_sleep=slept.append,
        )
        response = service.recommend_response(
            RecommendationRequest(user_id=a_user, k=5)
        )
        assert response.served_by == SERVED_BY_PRIMARY
        assert not response.degraded
        assert len(slept) == 1
        assert injector.checked[SITE_MODEL_SCORE] == 2

    def test_expired_deadline_degrades_before_scoring(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_MOST_READ
        from repro.resilience.faults import FaultInjector

        # Every clock() call advances a full second, so a sub-second
        # budget is already spent when the service checks the deadline.
        ticks = iter(range(10_000))
        injector = FaultInjector(seed=0)  # never fires
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=injector,
            clock=lambda: float(next(ticks)),
        )
        response = service.recommend_response(
            RecommendationRequest(user_id=a_user, k=5, timeout_seconds=0.5)
        )
        assert response.degraded
        assert response.served_by == SERVED_BY_MOST_READ
        assert "deadline" in response.error
        assert injector.checked == {}  # the primary model was never invoked

    def test_request_validates_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            RecommendationRequest(user_id="u", timeout_seconds=0.0)


class TestBatchSpan:
    def test_batch_span_closes_when_assembly_raises(
        self, tiny_bpr, tiny_split, tiny_merged, monkeypatch
    ):
        """A failure while building responses must not leave
        ``service.batch`` open, or every later span nests under it."""
        tracer = Tracer(seed=0)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, tracer=tracer
        )

        def broken(items, k):
            raise IndexError("item index past the catalogue")

        monkeypatch.setattr(service, "_serve_books", broken)
        requests = [
            RecommendationRequest(user_id=user, k=5)
            for user in tiny_merged.bct_user_ids[:3]
        ]
        with pytest.raises(IndexError):
            service.recommend_many_responses(requests)
        assert tracer.active_span is None
        [batch] = [span for span in tracer.spans if span.name == "service.batch"]
        assert batch.end is not None
        assert batch.status == STATUS_ERROR


class SwapDuringScore(BPR):
    """A model that hot-swaps the service mid-request (the race window)."""

    service = None
    replacement = None
    fired = False

    def recommend(self, user_index, k):
        items = super().recommend(user_index, k)
        if not SwapDuringScore.fired:
            SwapDuringScore.fired = True
            SwapDuringScore.service.refresh_model(
                SwapDuringScore.replacement, model_version="v2"
            )
        return items


class TestCacheSwapRace:
    def test_in_flight_response_never_enters_the_fresh_cache(
        self, tiny_split, tiny_merged
    ):
        """A response resolved against model v1 must not be cached after
        refresh_model swapped in v2 — the v(N)/v(N+1) provenance race."""
        racer = SwapDuringScore(TINY_BPR).fit(tiny_split.train, tiny_merged)
        replacement = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            racer, tiny_split.train, tiny_merged, cache_size=64,
            model_version="v1",
        )
        SwapDuringScore.service = service
        SwapDuringScore.replacement = replacement
        SwapDuringScore.fired = False
        user_id = str(tiny_split.train.users.ids[0])
        request = RecommendationRequest(user_id=user_id, k=5)

        first = service.recommend_response(request)
        # The swap happened mid-request: the response is stamped with the
        # *published* version, and the stale list was NOT cached.
        assert first.model_version == "v2"
        assert not first.from_cache
        assert service.cached_entries == 0

        second = service.recommend_response(request)
        assert second.model_version == "v2"
        assert not second.from_cache  # freshly scored by v2
        assert service.cached_entries == 1

        third = service.recommend_response(request)
        assert third.from_cache
        assert third.model_version == "v2"
        assert [b.book_id for b in third.books] == [
            b.book_id for b in second.books
        ]

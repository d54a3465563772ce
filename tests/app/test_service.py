"""Tests for the recommendation service (the GUI request path)."""

import sys

import numpy as np
import pytest

from repro.app.service import (
    SERVED_BY_MOST_READ,
    SERVED_BY_STATIC,
    RecommendationRequest,
    RecommendationService,
    ServedBook,
)
from repro.core.bpr import BPR
from repro.core.most_read import MostReadItems
from repro.errors import ConfigurationError, UnknownUserError
from repro.obs.trace import Tracer

from tests.conftest import TINY_BPR
from tests.factories import matrix_from_pairs


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
        assert all(b.title and b.author for b in books)
        # A card's rank is its position: the model's top-5, best first.
        train, model = service.train, service.model
        user = train.users.index_of(a_user)
        top = model.recommend(user, 5)
        assert [b.book_id for b in books] == [
            int(train.items.id_of(int(item))) for item in top
        ]
        scores = model.score_users(np.asarray([user]))[0][top]
        assert list(scores) == sorted(scores, reverse=True)

    def test_recommendations_exclude_history(self, service, a_user):
        history_ids = {b.book_id for b in service.history(a_user)}
        recommended = service.recommend(
            RecommendationRequest(user_id=a_user, k=10)
        )
        assert not history_ids & {b.book_id for b in recommended}

    def test_cards_are_small_immutable_values(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        users = tiny_merged.bct_user_ids[:8]
        responses = service.recommend_many_responses(
            [RecommendationRequest(user_id=user, k=20) for user in users]
        )
        shelves = [service.history(user) for user in users]
        named = [card for r in responses for card in r.books]
        named += [card for shelf in shelves for card in shelf]
        # One card per book: every response naming a book shares it.
        cards = {}
        for card in named:
            assert cards.setdefault(card.book_id, card) is card
        assert len(cards) < len(named)
        card = named[0]
        assert card == ServedBook(card.book_id, card.title, card.author)
        with pytest.raises(AttributeError):
            card.title = "changed"
        assert sys.getsizeof(card) <= 64

    def test_unknown_user(self, service):
        with pytest.raises(UnknownUserError):
            service.recommend(RecommendationRequest(user_id="stranger"))

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

    def test_unknown_user_is_answered_fresh_and_never_cached(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )
        expected = [
            int(tiny_split.train.items.id_of(int(i)))
            for i in fallback.top_items(5)
        ]
        request = RecommendationRequest("newcomer", k=5)
        responses = [
            service.recommend_response(request),
            service.recommend_response(request),
            *service.recommend_many_responses([request]),
        ]
        for response in responses:
            assert [b.book_id for b in response.books] == expected
            assert response.served_by == SERVED_BY_MOST_READ
            assert not response.from_cache and not response.degraded
        assert service.cached_entries == 0
        assert service.stats.cache_hits == 0

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
        assert len(service.stats.histogram.window) == 3

    def test_empty_stats(self, service):
        from repro.app.service import ServiceStats

        stats = ServiceStats()
        assert stats.mean_seconds == 0.0
        assert stats.percentile(0.9) == 0.0

    def test_latency_window_is_bounded(self):
        from repro.app.service import ServiceStats
        from repro.obs.metrics import Histogram

        stats = ServiceStats(histogram=Histogram("latency", window=5))
        for i in range(8):
            stats.record(float(i + 1))
        assert stats.requests == 8
        assert list(stats.histogram.window) == [4.0, 5.0, 6.0, 7.0, 8.0]
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

    def test_unknown_users_take_no_slot(self, tiny_bpr, tiny_split, tiny_merged):
        """More distinct unknown ids than the cache holds evict no known
        user's list: only primary responses are cached."""
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = self._service(
            tiny_bpr, tiny_split, tiny_merged,
            cold_start_fallback=fallback, cache_size=4,
        )
        known = [
            RecommendationRequest(user_id=user, k=5)
            for user in tiny_merged.bct_user_ids[:2]
        ]
        first = service.recommend_many_responses(known)
        strangers = [
            RecommendationRequest(user_id=f"new-{n}", k=5)
            for n in range(3 * service.cache_size)
        ]
        for start in range(0, len(strangers), 3):
            service.recommend_many_responses(strangers[start:start + 3])
        service.recommend_response(strangers[0])
        assert service.cached_entries == len(known)
        again = service.recommend_many_responses(known)
        assert all(response.from_cache for response in again)
        assert [r.books for r in again] == [r.books for r in first]
        assert service.stats.cache_hits == len(known)

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

    def test_refresh_model_invalidates(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        request = RecommendationRequest(user_id=a_user, k=5)
        service.recommend(request)
        # Every item index of the grown catalogue shifts by one, so a card
        # looked up in the old state would name the wrong book.
        grown = _grown_train(tiny_split.train)
        fallback = MostReadItems().fit(grown, tiny_merged)
        service.refresh_model(fallback, grown)
        assert service.cached_entries == 0
        refreshed = service.recommend(request)
        assert service.model is fallback
        assert [b.book_id for b in refreshed] == [
            int(grown.items.id_of(int(item))) for item in fallback.top_items(5)
        ]
        assert all(b.title != "(unknown)" for b in refreshed)

    def test_refresh_model_requires_fitted(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = self._service(tiny_bpr, tiny_split, tiny_merged)
        with pytest.raises(ConfigurationError, match="fitted"):
            service.refresh_model(MostReadItems(), service.train)


class TestRecommendMany:
    def test_matches_single_requests(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        requests = [
            RecommendationRequest(user_id=user, k=5)
            for user in tiny_merged.bct_user_ids[:4]
        ]
        batched = [
            list(response.books)
            for response in service.recommend_many_responses(requests)
        ]
        singles = [service.recommend(request) for request in requests]
        assert batched == singles

    def test_mixed_ks_and_cache_reuse(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        service = RecommendationService(tiny_bpr, tiny_split.train, tiny_merged)
        service.recommend(RecommendationRequest(user_id=a_user, k=5))
        other = tiny_merged.bct_user_ids[1]
        results = service.recommend_many_responses(
            [
                RecommendationRequest(user_id=a_user, k=5),
                RecommendationRequest(user_id=other, k=7),
            ]
        )
        assert len(results[0].books) == 5 and len(results[1].books) == 7
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
        # Alone in its batch, the stranger still comes back empty.
        lists = [
            list(response.books)
            for response in service.recommend_many_responses(
                [RecommendationRequest(user_id="stranger", k=5)]
            )
        ]
        assert lists == [[]]

    def test_unknown_user_uses_fallback(self, tiny_bpr, tiny_split, tiny_merged):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )
        [response] = service.recommend_many_responses(
            [RecommendationRequest(user_id="newcomer", k=5)]
        )
        assert list(response.books) == service.recommend(
            RecommendationRequest(user_id="newcomer", k=5)
        )

    def test_empty_batch(self, service):
        assert service.recommend_many_responses([]) == []


class TestResilience:
    """Degradation chain, health reporting, retries, and deadlines.

    The heavier fault-driven scenarios live in
    ``tests/resilience/test_chaos.py``; these cover the service-level
    wiring visible without an injector.
    """

    def _failing_service(self, tiny_bpr, tiny_split, tiny_merged, **kwargs):
        from tests.resilience.faults import SITE_MODEL_SCORE, FaultInjector, FaultyModel

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
        from tests.resilience.faults import SITE_MODEL_SCORE, FaultInjector

        # The first scoring fails; calls beyond the script succeed.
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=FaultInjector(script={SITE_MODEL_SCORE: [True]}),
        )
        request = RecommendationRequest(user_id=a_user, k=5)
        degraded = service.recommend_response(request)
        assert degraded.degraded
        assert service.cached_entries == 0
        # Once the model recovers, the same request is served primary —
        # the cache was never poisoned with the fallback list.
        healed = service.recommend_response(request)
        assert healed.served_by == SERVED_BY_PRIMARY
        assert not healed.from_cache
        assert service.recommend_response(request).from_cache

    def test_expired_deadline_degrades_before_scoring(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_MOST_READ
        from tests.resilience.faults import FaultInjector

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

    def test_expired_deadline_degrades_before_scoring_in_a_batch(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_MOST_READ, SERVED_BY_PRIMARY
        from tests.resilience.faults import SITE_MODEL_SCORE, FaultInjector

        # As above: every clock() call advances a full second.
        ticks = iter(range(10_000))
        injector = FaultInjector(seed=0)  # never fires
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=injector,
            clock=lambda: float(next(ticks)),
        )
        other = tiny_merged.bct_user_ids[1]
        expired, patient = service.recommend_many_responses([
            RecommendationRequest(user_id=a_user, k=5, timeout_seconds=0.5),
            RecommendationRequest(user_id=other, k=5),
        ])
        assert expired.degraded
        assert expired.served_by == SERVED_BY_MOST_READ
        assert "deadline" in expired.error
        # Only the request without a deadline reached the primary model.
        assert patient.served_by == SERVED_BY_PRIMARY
        assert injector.checked == {SITE_MODEL_SCORE: 1}

    @staticmethod
    def _spent_on_arrival_clock():
        """Reads 0.0 when the service is built and when it takes the
        request (or batch), and 0.6 on every later read: a 0.5 s budget
        is spent before resolution begins, for example waiting for the
        service lock."""
        reads = iter([0.0, 0.0])
        return lambda: next(reads, 0.6)

    def test_deadline_counts_from_arrival(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_MOST_READ
        from tests.resilience.faults import FaultInjector

        injector = FaultInjector(seed=0)  # never fires
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=injector, clock=self._spent_on_arrival_clock(),
        )
        response = service.recommend_response(
            RecommendationRequest(user_id=a_user, k=5, timeout_seconds=0.5)
        )
        assert response.degraded
        assert response.served_by == SERVED_BY_MOST_READ
        assert response.error == "deadline expired before primary scoring"
        assert injector.checked == {}

    def test_deadline_counts_from_batch_arrival(
        self, tiny_bpr, tiny_split, tiny_merged, a_user
    ):
        from repro.app.service import SERVED_BY_MOST_READ
        from tests.resilience.faults import FaultInjector

        injector = FaultInjector(seed=0)  # never fires
        service, _ = self._failing_service(
            tiny_bpr, tiny_split, tiny_merged,
            injector=injector, clock=self._spent_on_arrival_clock(),
        )
        [response] = service.recommend_many_responses([
            RecommendationRequest(user_id=a_user, k=5, timeout_seconds=0.5),
        ])
        assert response.degraded
        assert response.served_by == SERVED_BY_MOST_READ
        assert response.error == "deadline expired before primary scoring"
        assert injector.checked == {}

    def test_request_validates_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            RecommendationRequest(user_id="u", timeout_seconds=0.0)


class PastCatalogue(BPR):
    """A model whose best item is an index one past its catalogue."""

    def score_users(self, user_indices):
        scores = super().score_users(user_indices)
        top = np.full((len(scores), 1), scores.max() + 1.0, dtype=scores.dtype)
        return np.hstack([scores, top])


class TestBatchSpan:
    def test_batch_span_closes_when_assembly_raises(
        self, tiny_split, tiny_merged
    ):
        """A failure while building a group's responses degrades that
        group only: the batch call returns one response per request, and
        ``service.batch`` is closed, or every later span nests under it."""
        tracer = Tracer(seed=0)
        model = PastCatalogue(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            model, tiny_split.train, tiny_merged, tracer=tracer
        )
        requests = [
            RecommendationRequest(user_id=user, k=5)
            for user in tiny_merged.bct_user_ids[:3]
        ]
        responses = service.recommend_many_responses(requests)
        assert len(responses) == len(requests)
        for response in responses:
            assert response.degraded
            assert response.served_by == SERVED_BY_STATIC
            assert "IndexError" in response.error
            assert len(response.books) == 5
        assert tracer.active_span is None
        [batch] = [span for span in tracer.spans if span.name == "service.batch"]
        assert batch.end is not None


class SwapDuringScore(BPR):
    """A model that hot-swaps the service while it scores (the race
    window between a request taking its state and using it)."""

    service = None
    replacement = None
    replacement_train = None
    fired = False

    def score_users(self, user_indices):
        if not SwapDuringScore.fired:
            SwapDuringScore.fired = True
            SwapDuringScore.service.refresh_model(
                SwapDuringScore.replacement,
                SwapDuringScore.replacement_train,
                model_version="v2",
            )
        return super().score_users(user_indices)


def _racing_service(racer, replacement, train, merged, replacement_train=None):
    service = RecommendationService(
        racer, train, merged, cache_size=64, model_version="v1"
    )
    SwapDuringScore.service = service
    SwapDuringScore.replacement = replacement
    SwapDuringScore.replacement_train = (
        train if replacement_train is None else replacement_train
    )
    SwapDuringScore.fired = False
    return service


class TestCacheSwapRace:
    def test_in_flight_response_never_enters_the_fresh_cache(
        self, tiny_split, tiny_merged
    ):
        """A response resolved against model v1 must not be cached after
        refresh_model swapped in v2 — the v(N)/v(N+1) provenance race."""
        racer = SwapDuringScore(TINY_BPR).fit(tiny_split.train, tiny_merged)
        replacement = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service = _racing_service(
            racer, replacement, tiny_split.train, tiny_merged
        )
        user_id = str(tiny_split.train.users.ids[0])
        request = RecommendationRequest(user_id=user_id, k=5)

        first = service.recommend_response(request)
        # The swap happened mid-request: the response names v1, the
        # version that produced it, and the stale list was NOT cached.
        assert first.model_version == "v1"
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


def _grown_train(train):
    """``train`` plus one book whose id sorts before every other, so
    every item index shifts by one."""
    coo = train.csr.tocoo()
    pairs = [
        (train.users.id_of(int(user)), train.items.id_of(int(item)))
        for user, item, count in zip(coo.row, coo.col, coo.data)
        for _ in range(int(count))
    ]
    pairs.append((train.users.ids[0], min(train.items.ids) - 1))
    return matrix_from_pairs(pairs)


def _book_lists(model, train, k):
    """Every user's top-k as book ids, keyed by user id."""
    users = np.arange(train.n_users)
    return {
        str(train.users.id_of(int(user))): [
            int(train.items.id_of(int(item))) for item in items
        ]
        for user, items in zip(users, model.recommend_batch(users, k))
    }


class TestVersionConsistency:
    """A swap to a grown catalogue lands between a request taking its
    state and scoring: every response's books must be the list of the
    model its ``model_version`` names, and nothing resolved against the
    old state may be cached."""

    @pytest.fixture()
    def race(self, tiny_split, tiny_merged):
        grown = _grown_train(tiny_split.train)
        assert grown.n_items == tiny_split.train.n_items + 1
        racer = SwapDuringScore(TINY_BPR).fit(tiny_split.train, tiny_merged)
        replacement = BPR(TINY_BPR).fit(grown, tiny_merged)
        SwapDuringScore.fired = True  # no swap while listing v1
        lists = {
            "v1": _book_lists(racer, tiny_split.train, 5),
            "v2": _book_lists(replacement, grown, 5),
        }
        service = _racing_service(
            racer, replacement, tiny_split.train, tiny_merged, grown
        )
        return service, lists

    def _assert_consistent(self, responses, lists, users):
        for user, response in zip(users, responses):
            books = [book.book_id for book in response.books]
            assert books == lists[response.model_version][user]

    def test_single_request(self, race, tiny_split):
        service, lists = race
        user = str(tiny_split.train.users.ids[3])
        response = service.recommend_response(
            RecommendationRequest(user_id=user, k=5)
        )
        self._assert_consistent([response], lists, [user])
        assert response.model_version == "v1"
        assert service.cached_entries == 0
        again = service.recommend_response(
            RecommendationRequest(user_id=user, k=5)
        )
        assert again.model_version == "v2" and not again.from_cache
        self._assert_consistent([again], lists, [user])

    def test_batch(self, race, tiny_split):
        service, lists = race
        users = [str(user) for user in tiny_split.train.users.ids[:6]]
        requests = [RecommendationRequest(user_id=u, k=5) for u in users]
        responses = service.recommend_many_responses(requests)
        self._assert_consistent(responses, lists, users)
        assert {response.model_version for response in responses} == {"v1"}
        assert service.cached_entries == 0
        fresh = service.recommend_many_responses(requests)
        self._assert_consistent(fresh, lists, users)
        assert {response.model_version for response in fresh} == {"v2"}
        assert service.cached_entries == len(users)


class TestRefreshFallback:
    """A refresh that keeps the cold-start fallback must not map the old
    catalogue's item indices through the new one."""

    @pytest.fixture()
    def service(self, tiny_bpr, tiny_split, tiny_merged):
        fallback = MostReadItems().fit(tiny_split.train, tiny_merged)
        return RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged,
            cold_start_fallback=fallback,
        )

    def test_new_catalogue_refits_the_fallback(
        self, service, tiny_split, tiny_merged
    ):
        grown = _grown_train(tiny_split.train)
        service.refresh_model(
            BPR(TINY_BPR).fit(grown, tiny_merged), grown, model_version="v2"
        )
        books = service.recommend(RecommendationRequest("newcomer", k=5))
        assert [b.book_id for b in books] == [
            100059, 100194, 100106, 100154, 100103,
        ]
        expected = MostReadItems().fit(grown).top_items(5)
        assert [b.book_id for b in books] == [
            int(grown.items.id_of(int(item))) for item in expected
        ]

    def test_same_catalogue_keeps_the_fallback(
        self, service, tiny_bpr, tiny_split
    ):
        fallback = service.cold_start_fallback
        service.refresh_model(tiny_bpr, tiny_split.train, model_version="v2")
        assert service.cold_start_fallback is fallback

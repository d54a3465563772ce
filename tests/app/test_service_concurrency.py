"""The service's thread-safety contract under real contention.

``RecommendationService`` promises that one instance may be shared by
any number of request threads with *exact* accounting: no lost counter
increments, no torn cache state, no corrupted breaker transitions. These
tests hammer a shared instance from many threads and assert the final
counts equal the work submitted — a lost update anywhere fails the run.
"""

import threading

import pytest

from repro.app.service import (
    RecommendationRequest,
    RecommendationService,
    ServiceStats,
)
from repro.core.most_read import MostReadItems
from repro.resilience.breaker import STATE_CLOSED, STATE_OPEN, CircuitBreaker

N_THREADS = 8
REQUESTS_PER_THREAD = 60


def _run_threads(worker, n_threads=N_THREADS):
    """Start ``n_threads`` running ``worker(index)``; re-raise failures."""
    failures = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


@pytest.fixture()
def service(tiny_bpr, tiny_split, tiny_merged):
    most_read = MostReadItems().fit(tiny_split.train, tiny_merged)
    return RecommendationService(
        tiny_bpr,
        tiny_split.train,
        tiny_merged,
        cold_start_fallback=most_read,
        cache_size=32,
        degrade_unknown_users=True,
    )


class TestConcurrentServing:
    def test_exact_accounting_under_contention(self, service, tiny_split):
        users = [str(user) for user in tiny_split.train.users.ids]

        def worker(index):
            for shot in range(REQUESTS_PER_THREAD):
                user_id = users[(index * 31 + shot * 7) % len(users)]
                response = service.recommend_response(
                    RecommendationRequest(user_id=user_id, k=5)
                )
                assert response.books

        _run_threads(worker)
        total = N_THREADS * REQUESTS_PER_THREAD
        stats = service.stats
        assert stats.requests == total
        assert stats.cache_hits + stats.cache_misses == total
        assert stats.histogram.count == total
        assert stats.errors == 0
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["service.requests"]["value"] == total

    def test_cache_stays_bounded_under_contention(self, service, tiny_split):
        users = [str(user) for user in tiny_split.train.users.ids]

        def worker(index):
            for shot in range(REQUESTS_PER_THREAD):
                user_id = users[(index + shot) % len(users)]
                service.recommend_response(
                    RecommendationRequest(user_id=user_id, k=5)
                )

        _run_threads(worker)
        assert service.cached_entries <= service.cache_size

    def test_refresh_model_during_serving(
        self, service, tiny_bpr, tiny_split
    ):
        users = [str(user) for user in tiny_split.train.users.ids]
        stop = threading.Event()

        def refresher():
            while not stop.is_set():
                service.refresh_model(tiny_bpr, service.train)

        churn = threading.Thread(target=refresher)
        churn.start()
        try:
            def worker(index):
                for shot in range(REQUESTS_PER_THREAD):
                    user_id = users[(index * 13 + shot) % len(users)]
                    response = service.recommend_response(
                        RecommendationRequest(user_id=user_id, k=5)
                    )
                    assert response.books

            _run_threads(worker)
        finally:
            stop.set()
            churn.join()
        total = N_THREADS * REQUESTS_PER_THREAD
        assert service.stats.requests == total
        assert service.stats.errors == 0

    def test_batch_and_single_paths_share_accounting(
        self, service, tiny_split
    ):
        users = [str(user) for user in tiny_split.train.users.ids]
        requests = [
            RecommendationRequest(user_id=user, k=5) for user in users[:10]
        ]

        def worker(index):
            if index % 2:
                for _ in range(10):
                    service.recommend_many_responses(requests)
            else:
                for _ in range(10 * len(requests)):
                    service.recommend_response(requests[index % len(requests)])

        _run_threads(worker)
        total = N_THREADS // 2 * 10 * len(requests) * 2
        assert service.stats.requests == total
        assert service.stats.histogram.count == total


class TestServiceStatsConcurrency:
    def test_note_methods_never_lose_increments(self):
        stats = ServiceStats()
        per_thread = 500

        def worker(index):
            for shot in range(per_thread):
                stats.record(0.001)
                stats.note_lookups(int(shot % 2 == 0), int(shot % 2 != 0))
                stats.note_error("err")
                stats.note_degraded("static", error="why")

        _run_threads(worker)
        total = N_THREADS * per_thread
        assert stats.requests == total
        assert stats.cache_hits + stats.cache_misses == total
        assert stats.errors == total
        assert stats.degradations["static"] == total
        assert stats.histogram.count == total


class TestBreakerConcurrency:
    def test_concurrent_outcomes_keep_state_machine_consistent(self):
        breaker = CircuitBreaker(
            failure_threshold=0.5, min_calls=5, window=20,
            cooldown_seconds=1000.0,
        )

        def worker(index):
            for _ in range(200):
                if breaker.allow():
                    breaker.record_failure()

        _run_threads(worker)
        # Every thread fails every call: the breaker must have opened
        # exactly once and stayed open (cooldown far in the future).
        assert breaker.state == STATE_OPEN
        assert breaker.opened_count == 1

    def test_concurrent_successes_keep_breaker_closed(self):
        breaker = CircuitBreaker()

        def worker(index):
            for _ in range(200):
                assert breaker.allow()
                breaker.record_success()

        _run_threads(worker)
        assert breaker.state == STATE_CLOSED
        assert breaker.failure_rate == 0.0

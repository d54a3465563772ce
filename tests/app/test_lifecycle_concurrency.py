"""Zero-downtime hot swap under real contention.

While one thread alternates ``refresh_from_store`` between two published
versions, request threads hammer the single and batch serving paths. The
contract: zero errors, *exact* request accounting (a lost increment
anywhere fails the run), every refresh accounted, and every response's
provenance naming a version that was actually published — never a blank,
never a torn in-between state.
"""

import threading

import pytest

from repro.app.lifecycle import ModelStore
from repro.app.service import RecommendationRequest, RecommendationService

N_THREADS = 8
REQUESTS_PER_THREAD = 40


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
def store(tmp_path, tiny_bpr, tiny_split):
    """A store with two published versions to swap between."""
    store = ModelStore(tmp_path / "store")
    store.publish(tiny_bpr, tiny_split.train)
    store.publish(tiny_bpr, tiny_split.train)
    return store


@pytest.fixture()
def service(store, tiny_merged):
    model, train = store.load(1)
    service = RecommendationService(model, train, tiny_merged, cache_size=32)
    assert service.refresh_from_store(store, version=1)
    return service


class TestConcurrentHotSwap:
    def test_soak_swapping_while_serving(self, service, store, tiny_split):
        users = [str(user) for user in tiny_split.train.users.ids]
        published = {"v000001", "v000002"}
        stop = threading.Event()
        swaps = []

        def refresher():
            while not stop.is_set():
                version = 1 + len(swaps) % 2
                assert service.refresh_from_store(store, version=version)
                swaps.append(version)

        churn = threading.Thread(target=refresher)
        churn.start()
        try:
            def worker(index):
                for shot in range(REQUESTS_PER_THREAD):
                    user_id = users[(index * 31 + shot * 7) % len(users)]
                    response = service.recommend_response(
                        RecommendationRequest(user_id=user_id, k=5)
                    )
                    assert len(response.books) == 5
                    assert response.model_version in published

            _run_threads(worker)
        finally:
            stop.set()
            churn.join()

        # the initial refresh in the fixture plus every loop iteration
        assert service.stats.refreshes == 1 + len(swaps)
        assert service.stats.refresh_failed == 0
        total = N_THREADS * REQUESTS_PER_THREAD
        assert service.stats.requests == total
        assert service.stats.errors == 0
        assert service.stats.histogram.count == total
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["service.requests"]["value"] == total
        refreshes = snapshot["counters"]["service.refreshes"]
        assert refreshes["labels"]["outcome=ok"] == 1 + len(swaps)
        assert "outcome=failed" not in refreshes.get("labels", {})
        # the service settled on whichever version the last swap installed
        assert service.model_version in published
        assert service.health()["model"]["version"] in published

    def test_batch_path_carries_provenance_during_swaps(
        self, service, store, tiny_split
    ):
        users = [str(user) for user in tiny_split.train.users.ids]
        published = {"v000001", "v000002"}
        requests = [
            RecommendationRequest(user_id=user, k=5) for user in users[:10]
        ]
        stop = threading.Event()

        def refresher():
            flip = 0
            while not stop.is_set():
                flip += 1
                assert service.refresh_from_store(store, version=1 + flip % 2)

        churn = threading.Thread(target=refresher)
        churn.start()
        try:
            def worker(index):
                for _ in range(10):
                    responses = service.recommend_many_responses(requests)
                    for response in responses:
                        assert len(response.books) == 5
                        assert response.model_version in published

            _run_threads(worker)
        finally:
            stop.set()
            churn.join()

        total = N_THREADS * 10 * len(requests)
        assert service.stats.requests == total
        assert service.stats.errors == 0
        assert service.stats.refresh_failed == 0

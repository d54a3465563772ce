"""Chaos suite: deterministic fault injection across the serving stack.

Service side: with the primary model failing (up to 100% of calls), every
request must still come back as a k-length, already-read-free list served
by the fallback chain, with the degradation accounted and the circuit
breaker cycling open → half-open → closed as faults come and go.

Persistence side: a save interrupted at *any* crash point (every write and
every rename, via scripted ``io.write``/``io.rename`` faults) must leave
either the previous artefact fully loadable or a typed
:class:`~repro.errors.PersistenceError` — never silent corruption, never a
stray temp file.

Everything here is deterministic: faults come from a seeded or scripted
:class:`~tests.resilience.faults.FaultInjector` and time from a fake clock.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.app.persistence import load_bpr, save_bpr
from repro.app.service import (
    SERVED_BY_MOST_READ,
    SERVED_BY_NONE,
    SERVED_BY_PRIMARY,
    SERVED_BY_STATIC,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.most_read import MostReadItems
from repro.datasets import generate_sources
from repro.errors import PersistenceError
from repro.pipeline.merge import SourceView, load_merged_corpus, run_merge
from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_OPEN,
    CircuitBreaker,
)
from tests.conftest import TINY_MERGE, TINY_WORLD
from tests.resilience.faults import (
    SITE_IO_RENAME,
    SITE_IO_WRITE,
    SITE_MODEL_SCORE,
    FaultInjector,
    FaultyModel,
    InjectedFaultError,
)

pytestmark = pytest.mark.chaos


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_chaos_service(tiny_bpr, tiny_split, tiny_merged, injector,
                       with_cold_start=True):
    """A cache-less service over a fault-wrapped model and a fake clock."""
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=0.5, min_calls=4, window=8, cooldown_seconds=10.0,
        clock=clock,
    )
    cold_start = None
    if with_cold_start:
        cold_start = MostReadItems()
        cold_start.fit(tiny_split.train, tiny_merged)
    service = RecommendationService(
        FaultyModel(tiny_bpr, injector),
        tiny_split.train,
        tiny_merged,
        cold_start_fallback=cold_start,
        cache_size=0,
        breaker=breaker,
        clock=clock,
    )
    return service, clock


@pytest.fixture()
def users(tiny_split):
    return [str(u) for u in list(tiny_split.train.users.ids)[:12]]


class TestServiceChaos:
    def test_total_failure_still_serves_k_unread_books(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, _ = make_chaos_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        for user in users[:4]:
            response = service.recommend_response(
                RecommendationRequest(user_id=user, k=7)
            )
            assert len(response.books) == 7
            assert response.degraded
            assert response.served_by == SERVED_BY_MOST_READ
            assert response.error is not None
            history = {b.book_id for b in service.history(user)}
            assert not history & {b.book_id for b in response.books}
        assert service.stats.degradations[SERVED_BY_MOST_READ] == 4
        assert service.stats.errors >= 4
        assert "InjectedFaultError" in service.stats.last_error

    def test_breaker_opens_half_opens_and_heals(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        # Four scorings fail; calls beyond the script succeed.
        injector = FaultInjector(script={SITE_MODEL_SCORE: [True] * 4})
        service, clock = make_chaos_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        for user in users[:4]:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        assert service.breaker.state == STATE_OPEN
        assert service.health()["status"] == "degraded"

        # While open, the primary model is no longer even invoked.
        probed = injector.checked[SITE_MODEL_SCORE]
        open_response = service.recommend_response(
            RecommendationRequest(user_id=users[4], k=5)
        )
        assert injector.checked[SITE_MODEL_SCORE] == probed
        assert open_response.served_by == SERVED_BY_MOST_READ
        assert open_response.error == "circuit breaker open"

        # After the cool-down the breaker half-opens; a healed model's
        # success closes it and primary serving resumes.
        clock.advance(10.0)
        healed = service.recommend_response(
            RecommendationRequest(user_id=users[5], k=5)
        )
        assert healed.served_by == SERVED_BY_PRIMARY
        assert not healed.degraded
        assert service.breaker.state == STATE_CLOSED
        assert service.health()["status"] == "ok"

    def test_half_open_failure_reopens(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, clock = make_chaos_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        for user in users[:4]:
            service.recommend(RecommendationRequest(user_id=user, k=5))
        clock.advance(10.0)
        # Still failing: the half-open probe degrades and re-opens.
        response = service.recommend_response(
            RecommendationRequest(user_id=users[4], k=5)
        )
        assert response.degraded
        assert len(response.books) == 5
        assert service.breaker.state == STATE_OPEN
        assert service.breaker.opened_count == 2

    def test_partial_failure_is_deterministic_under_seed(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        def run():
            injector = FaultInjector(rates={SITE_MODEL_SCORE: 0.5}, seed=123)
            service, _ = make_chaos_service(
                tiny_bpr, tiny_split, tiny_merged, injector
            )
            trace = []
            for user in users:
                response = service.recommend_response(
                    RecommendationRequest(user_id=user, k=5)
                )
                trace.append(
                    (response.served_by, response.degraded,
                     tuple(b.book_id for b in response.books))
                )
            return trace

        first, second = run(), run()
        assert first == second
        served_by = {entry[0] for entry in first}
        assert SERVED_BY_MOST_READ in served_by  # some faults did fire

    def test_recommend_many_under_total_failure(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, _ = make_chaos_service(
            tiny_bpr, tiny_split, tiny_merged, injector
        )
        requests = [
            RecommendationRequest(user_id=users[0], k=5),
            RecommendationRequest(user_id="stranger", k=5),
            RecommendationRequest(user_id=users[1], k=8),
        ]
        responses = service.recommend_many_responses(requests)
        assert len(responses[0].books) == 5
        assert len(responses[2].books) == 8
        assert responses[0].degraded and responses[2].degraded
        # The stranger is a cold start, not a failure: the fallback serves
        # it directly and it is not marked degraded.
        assert responses[1].served_by == SERVED_BY_MOST_READ
        assert len(responses[1].books) == 5
        again = service.recommend_many_responses(requests)
        assert [len(response.books) for response in again] == [5, 5, 8]

    def test_static_last_link_without_cold_start(
        self, tiny_bpr, tiny_split, tiny_merged, users
    ):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=0)
        service, _ = make_chaos_service(
            tiny_bpr, tiny_split, tiny_merged, injector, with_cold_start=False
        )
        response = service.recommend_response(
            RecommendationRequest(user_id=users[0], k=6)
        )
        assert response.served_by == SERVED_BY_STATIC
        assert response.degraded
        assert len(response.books) == 6
        history = {b.book_id for b in service.history(users[0])}
        assert not history & {b.book_id for b in response.books}
        # Without any fallback, an unknown user in a batch resolves to an
        # error-marked empty response rather than aborting the batch.
        responses = service.recommend_many_responses(
            [RecommendationRequest(user_id="stranger", k=5)]
        )
        assert responses[0].served_by == SERVED_BY_NONE
        assert responses[0].books == ()


# ----------------------------------------------------------------------
# persistence chaos: crash at every write and every rename
# ----------------------------------------------------------------------


def crash_script(site, call_index):
    """A script that fires ``site`` on its ``call_index``-th invocation."""
    return {site: [False] * call_index + [True]}


def assert_no_temp_files(directory):
    leftovers = [p.name for p in directory.iterdir() if ".tmp" in p.name]
    assert leftovers == [], f"interrupted save leaked temp files: {leftovers}"


class TestSaveBprCrashPoints:
    # save_bpr's crash points, in order: write npz, rename npz, write
    # manifest, rename manifest. Interrupting before the npz lands must
    # leave the old artefact intact; interrupting after must be *detected*
    # at load time (new npz under the old manifest).
    CRASH_POINTS = [
        (SITE_IO_WRITE, 0, "old"),
        (SITE_IO_RENAME, 0, "old"),
        (SITE_IO_WRITE, 1, "detected"),
        (SITE_IO_RENAME, 1, "detected"),
    ]

    @pytest.mark.parametrize("site,call_index,expected", CRASH_POINTS)
    def test_interrupted_overwrite(
        self, tmp_path, tiny_bpr, tiny_split, site, call_index, expected
    ):
        path = tmp_path / "model.npz"
        save_bpr(tiny_bpr, tiny_split.train, path)
        old_item_factors = tiny_bpr.item_factors.copy()

        new_model = copy.deepcopy(tiny_bpr)
        new_model._user_factors = tiny_bpr.user_factors + 1.0
        new_model._item_factors = tiny_bpr.item_factors + 1.0

        injector = FaultInjector(script=crash_script(site, call_index))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                save_bpr(new_model, tiny_split.train, path)
        assert_no_temp_files(tmp_path)

        if expected == "old":
            model, _ = load_bpr(path)
            assert np.array_equal(model.item_factors, old_item_factors)
        else:
            with pytest.raises(PersistenceError):
                load_bpr(path)

    def test_crash_on_fresh_save_leaves_nothing_loadable(
        self, tmp_path, tiny_bpr, tiny_split
    ):
        path = tmp_path / "model.npz"
        injector = FaultInjector(script=crash_script(SITE_IO_WRITE, 1))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                save_bpr(tiny_bpr, tiny_split.train, path)
        assert_no_temp_files(tmp_path)
        with pytest.raises(PersistenceError):
            load_bpr(path)


class TestSaveDatasetCrashPoints:
    # The merge's writer has a (write, rename) pair for each of
    # users.npz, the two readings shards of in-memory sources, books.csv,
    # genres.csv and MANIFEST.json: twelve crash points. Only a crash
    # before users.npz lands leaves the old dataset; every later one must
    # be detected by checksum verification at load time.
    FILES = 6
    CRASH_POINTS = [
        (site, index, "old" if index == 0 else "detected")
        for index in range(FILES)
        for site in (SITE_IO_WRITE, SITE_IO_RENAME)
    ]

    @pytest.fixture(scope="class")
    def other_sources(self):
        # Another world: its user ids, readings and catalogue all differ
        # from the tiny world's, so any file that lands mid-crash is
        # guaranteed to change on disk.
        return generate_sources(replace(TINY_WORLD, seed=TINY_WORLD.seed + 1))

    @pytest.mark.parametrize("site,call_index,expected", CRASH_POINTS)
    def test_interrupted_overwrite(
        self, tiny_dataset_dir, other_sources, site, call_index, expected
    ):
        target = tiny_dataset_dir
        old_book_ids = list(load_merged_corpus(target).books["book_id"])
        other = SourceView(other_sources.bct, other_sources.anobii)

        injector = FaultInjector(script=crash_script(site, call_index))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                run_merge(other, TINY_MERGE, output_dir=target)
        assert_no_temp_files(target)

        if expected == "old":
            loaded = load_merged_corpus(target)
            assert list(loaded.books["book_id"]) == old_book_ids
        else:
            with pytest.raises(PersistenceError):
                load_merged_corpus(target)

    def test_every_crash_point_is_covered(self, tmp_path, other_sources):
        """The writer makes exactly ``FILES`` atomic writes."""
        injector = FaultInjector()
        with injector.injecting():
            run_merge(
                SourceView(other_sources.bct, other_sources.anobii),
                TINY_MERGE,
                output_dir=tmp_path / "dataset",
            )
        assert injector.checked[SITE_IO_WRITE] == self.FILES
        assert injector.checked[SITE_IO_RENAME] == self.FILES

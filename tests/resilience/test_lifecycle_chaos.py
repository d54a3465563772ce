"""Lifecycle chaos: a publish interrupted anywhere leaves the store serving.

``ModelStore.publish`` routes every byte through ``atomic_write`` and
re-verifies its own manifest, so its crash points are exactly the
``fault_check`` sites of the resilience layer. Rather than hard-coding
the crash-point list, these tests *enumerate* it with a dry-run
:class:`~tests.resilience.faults.FaultInjector` (no rates: it counts
``fault_check`` calls without firing) and then crash a fresh publish at
every (site, call-index) pair. After each crash the previously published
version must verify, ``CURRENT`` must still resolve to it, and a service
hot-swapping from the store must keep serving.

The read side is chaos-tested too: an ``io.read`` fault during
``load_bpr`` (manifest verification or archive read) must surface as a
typed error to direct callers and degrade — never raise — through
``RecommendationService.refresh_from_store``.
"""

import pytest

from repro.app.lifecycle import ModelStore
from repro.app.persistence import load_bpr
from repro.app.service import RecommendationRequest, RecommendationService
from repro.errors import PersistenceError
from tests.resilience.faults import (
    SITE_IO_READ,
    SITE_IO_RENAME,
    SITE_IO_WRITE,
    FaultInjector,
    InjectedFaultError,
)

pytestmark = pytest.mark.chaos

# publish's crash points: write+rename for the npz, the manifest, and the
# CURRENT pointer, plus the post-save manifest re-verification read. The
# enumeration test asserts the dry run finds exactly these, so adding a
# fault site to the publish path forces this table (and the crash
# matrix) to grow with it.
EXPECTED_PUBLISH_SITES = {
    SITE_IO_WRITE: 3,
    SITE_IO_RENAME: 3,
    SITE_IO_READ: 1,
}

CRASH_POINTS = [
    (site, index)
    for site, count in sorted(EXPECTED_PUBLISH_SITES.items())
    for index in range(count)
]


def crash_script(site, call_index):
    """A script that fires ``site`` on its ``call_index``-th invocation."""
    return {site: [False] * call_index + [True]}


def assert_no_temp_files(directory):
    leftovers = [
        p.relative_to(directory)
        for p in directory.rglob("*")
        if ".tmp" in p.name
    ]
    assert leftovers == [], f"interrupted publish leaked temp files: {leftovers}"


def make_service(store, dataset):
    """A service booted from the store's current version."""
    model, train = store.load()
    service = RecommendationService(model, train, dataset, cache_size=0)
    assert service.refresh_from_store(store)
    return service


class TestPublishCrashPoints:
    def test_dry_run_enumerates_every_fault_site(
        self, tmp_path, tiny_bpr, tiny_split
    ):
        store = ModelStore(tmp_path / "store")
        store.publish(tiny_bpr, tiny_split.train)
        injector = FaultInjector()
        with injector.injecting():
            store.publish(tiny_bpr, tiny_split.train)
        assert dict(injector.checked) == EXPECTED_PUBLISH_SITES

    @pytest.mark.parametrize("site,call_index", CRASH_POINTS)
    def test_interrupted_publish_leaves_previous_version_serving(
        self, tmp_path, tiny_bpr, tiny_split, tiny_merged, site, call_index
    ):
        store = ModelStore(tmp_path / "store")
        first = store.publish(tiny_bpr, tiny_split.train)

        injector = FaultInjector(script=crash_script(site, call_index))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                store.publish(tiny_bpr, tiny_split.train)

        assert_no_temp_files(store.root)
        # the predecessor is still published, intact, and loadable
        assert store.current() == first
        assert store.status(first) == "ok"
        model, _ = store.load()
        assert model.is_fitted
        # and a service refreshing from the store keeps serving it
        service = make_service(store, tiny_merged)
        user = str(tiny_split.train.users.ids[0])
        response = service.recommend_response(
            RecommendationRequest(user_id=user, k=5)
        )
        assert len(response.books) == 5
        assert response.model_version == first.name
        # gc sweeps any half-written directory the crash left behind; a
        # candidate that landed intact (crash at the CURRENT update) may
        # survive, but nothing broken does
        store.gc(keep=1)
        assert store.current() == first
        assert all(store.status(v) == "ok" for v in store.versions())

    def test_crash_on_first_ever_publish_leaves_empty_store(
        self, tmp_path, tiny_bpr, tiny_split
    ):
        store = ModelStore(tmp_path / "store")
        injector = FaultInjector(script=crash_script(SITE_IO_WRITE, 0))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                store.publish(tiny_bpr, tiny_split.train)
        assert_no_temp_files(store.root)
        assert store.current_name() is None
        with pytest.raises(PersistenceError):
            store.load()
        # the store recovers: the next publish allocates the next number
        version = store.publish(tiny_bpr, tiny_split.train)
        assert version.number == 2  # v1 is the crashed husk
        assert store.current() == version


class TestReadSideFaults:
    # load_bpr's read-side fault checks, in order: the manifest
    # verification read, then the archive read proper.
    READ_POINTS = [0, 1]

    @pytest.mark.parametrize("call_index", READ_POINTS)
    def test_load_bpr_surfaces_injected_read_fault(
        self, tmp_path, tiny_bpr, tiny_split, call_index
    ):
        store = ModelStore(tmp_path / "store")
        version = store.publish(tiny_bpr, tiny_split.train)
        injector = FaultInjector(script=crash_script(SITE_IO_READ, call_index))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                load_bpr(version.model_path)
        # the artefact itself is untouched; a clean retry succeeds
        model, _ = load_bpr(version.model_path)
        assert model.is_fitted

    @pytest.mark.parametrize("call_index", READ_POINTS)
    def test_refresh_degrades_on_read_fault(
        self, tmp_path, tiny_bpr, tiny_split, tiny_merged, call_index
    ):
        store = ModelStore(tmp_path / "store")
        store.publish(tiny_bpr, tiny_split.train)
        service = make_service(store, tiny_merged)
        before = service.model_version

        injector = FaultInjector(script=crash_script(SITE_IO_READ, call_index))
        with injector.injecting():
            # the dry-run inside make_service already consumed the store's
            # reads, so the scripted fault fires inside this refresh
            assert service.refresh_from_store(store) is False

        assert service.model_version == before
        assert service.stats.refresh_failed == 1
        assert "InjectedFaultError" in service.stats.last_error
        # and the next clean refresh heals
        assert service.refresh_from_store(store) is True
        assert service.stats.refreshes == 2


class TestRefreshDegradation:
    def test_corrupt_candidate_keeps_old_model(
        self, tmp_path, tiny_bpr, tiny_split, tiny_merged
    ):
        store = ModelStore(tmp_path / "store")
        first = store.publish(tiny_bpr, tiny_split.train)
        second = store.publish(tiny_bpr, tiny_split.train)
        data = bytearray(second.model_path.read_bytes())
        data[:16] = b"\x00" * 16
        second.model_path.write_bytes(bytes(data))

        service = RecommendationService(
            *store.load(first), tiny_merged, cache_size=0
        )
        assert service.refresh_from_store(store, version=first)
        assert service.refresh_from_store(store, version=second) is False

        assert service.model_version == first.name
        assert service.stats.refresh_failed == 1
        assert "ChecksumMismatchError" in service.stats.last_error
        user = str(tiny_split.train.users.ids[0])
        response = service.recommend_response(
            RecommendationRequest(user_id=user, k=5)
        )
        assert len(response.books) == 5
        assert response.model_version == first.name
        snapshot = service.metrics.snapshot()
        refreshes = snapshot["counters"]["service.refreshes"]
        assert refreshes["labels"]["outcome=failed"] == 1

    def test_missing_version_never_raises(
        self, tmp_path, tiny_bpr, tiny_split, tiny_merged
    ):
        store = ModelStore(tmp_path / "store")
        store.publish(tiny_bpr, tiny_split.train)
        service = make_service(store, tiny_merged)
        assert service.refresh_from_store(store, version="v000099") is False
        assert service.stats.refresh_failed == 1
        assert "PersistenceError" in service.stats.last_error

    def test_refresh_from_empty_store_degrades(
        self, tmp_path, tiny_bpr, tiny_split, tiny_merged
    ):
        store = ModelStore(tmp_path / "empty")
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
        )
        assert service.refresh_from_store(store) is False
        assert service.model_version is None
        assert service.stats.refresh_failed == 1

"""Hot swaps: publish a model, repoint the service at it, sweep old versions.

One swap is ``ModelStore.publish`` → ``RecommendationService.refresh_from_store``
→ ``ModelStore.gc`` (default retention). :class:`Swapper` runs swaps either inline (idle
swaps, no traffic) or on a thread of its own that takes one job per
trigger (serve-churn, where every slice triggers one swap while requests
flow).
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

from repro.app.lifecycle import ModelStore
from repro.obs.trace import start_span



def _bytes_of(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


class Swapper:
    """Publishes set-up models and hot-swaps the service onto them.

    ``version_model`` (shared with the :class:`~perfbench.traffic.Checker`)
    learns each new version's model key *before* the service can serve
    it. ``tracer`` must belong to the thread the swaps run on.
    """

    def __init__(self, deployment, version_model: dict, tracer=None, metrics=None):
        self.service = deployment.service
        self.train = deployment.split.train
        self.store = ModelStore(deployment.store.root, metrics=metrics, tracer=tracer)
        self.version_model = version_model
        self.tracer = tracer
        """Tracer of traced swaps; it must belong to the swapping thread."""
        self.records: list[dict] = []
        self._jobs: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    # -- inline -----------------------------------------------------------

    def swap(self, key, model, train=None, traced: bool = False) -> dict:
        """One publish + hot swap + gc on the calling thread."""
        tracer = self.tracer if traced else None
        self.store.tracer = tracer
        clock = time.perf_counter
        wall0 = clock()
        cpu0 = time.thread_time()
        with start_span(tracer, "bench.swap", model=str(key)):
            with start_span(tracer, "bench.publish"):
                version = self.store.publish(model, train if train is not None else self.train)
            self.version_model[version.name] = key
            published = clock()
            with start_span(tracer, "bench.refresh_from_store"):
                ok = self.service.refresh_from_store(self.store)
            refreshed = clock()
            with start_span(tracer, "bench.gc"):
                size = _bytes_of(version.path)
                self.store.gc()
            collected = clock()
        record = {
            "version": version.name,
            "model": str(key),
            "ok": bool(ok),
            "start": wall0,
            "publish_s": published - wall0,
            "refresh_s": refreshed - published,
            "swap_s": refreshed - wall0,
            "gc_s": collected - refreshed,
            "wait_s": (collected - wall0) - (time.thread_time() - cpu0),
            "bytes": size,
            "traced": traced,
        }
        self.records.append(record)
        return record

    # -- threaded ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, name="perfbench-swapper", daemon=True)
        self._thread.start()

    def trigger(self, key, model, traced: bool = False) -> None:
        self._jobs.put((key, model, None, traced))

    def stop(self, timeout: float = 120.0) -> None:
        """Finish queued swaps and join the thread (raises its error)."""
        if self._thread is None:
            return
        self._jobs.put(None)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("swap thread did not finish")
        self._thread = None
        if self._error is not None:
            raise self._error

    def _loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            if self._error is not None:
                continue
            try:
                self.swap(*job)
            except Exception as exc:  # surfaced by stop(); the run fails
                self._error = exc

    # -- results ----------------------------------------------------------

    def failed(self) -> int:
        return sum(1 for record in self.records if not record["ok"])

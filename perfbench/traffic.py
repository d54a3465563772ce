"""Patron traffic: seeded request streams, slice drivers and checks.

Timed traffic runs in short slices, cycled round-robin through three
phases: an open loop at the workload's low rate, one at its high rate,
and a saturating closed loop. Samples are pooled per phase over the
whole run, so a slow stretch of the host lands on every phase alike.

Open loop: request ``i`` is due at ``start + i / rate`` and is sent when
due, or as soon as the previous call returns if that is later; its
latency runs from the due time, so queueing behind a slow call counts.
Closed loop: each request is sent as the previous one returns.

Responses are kept only for the current slice and checked after it,
outside the timed loop (:class:`Checker`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.app.service import (
    SERVED_BY_MOST_READ,
    SERVED_BY_PRIMARY,
    RecommendationRequest,
)

from perfbench.common import interquartile_mean, median, percentile, wait_until
from perfbench.params import BATCH, COLD_SHARE, K, ZIPF_EXPONENT

PHASES = ("low", "high", "sat")

#: Cache-missed user indices kept per phase for the scoring replay.
MISSED_SAMPLE = 2000


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------


def zipf_stream(seed: int, user_ids, length: int) -> list[RecommendationRequest]:
    """Zipf patron ids over the known users plus unknown ids.

    A seeded permutation decides which user holds each popularity rank;
    a fixed share of requests comes from never-seen ids, which the
    cold-start link answers.
    """
    rng = np.random.default_rng([seed, 11])
    n = len(user_ids)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ranks = rng.choice(n, size=length, p=weights / weights.sum())
    holder = rng.permutation(n)
    cold = rng.random(length) < COLD_SHARE
    cold_ids = rng.integers(0, 10 * length, size=length)
    known = {}
    stream = []
    for rank, is_cold, cold_id in zip(ranks.tolist(), cold.tolist(), cold_ids.tolist()):
        if is_cold:
            stream.append(RecommendationRequest(user_id=f"new-{cold_id}", k=K))
            continue
        user = holder[rank]
        request = known.get(user)
        if request is None:
            request = known[user] = RecommendationRequest(user_id=str(user_ids[user]), k=K)
        stream.append(request)
    return stream


def uniform_stream(seed: int, user_ids, length: int) -> list[RecommendationRequest]:
    """Uniform patron ids over every known user (cache-hostile)."""
    rng = np.random.default_rng([seed, 13])
    requests = [RecommendationRequest(user_id=str(u), k=K) for u in user_ids]
    return [requests[i] for i in rng.integers(0, len(requests), size=length).tolist()]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def expected_lists(model, train, chunk: int = 256) -> list[tuple[int, ...]]:
    """Every user's top-k as book ids, from the model's own batch ranking."""
    item_ids = np.asarray(train.items.ids, dtype=np.int64)
    lists: list[tuple[int, ...]] = []
    for start in range(0, train.n_users, chunk):
        users = np.arange(start, min(start + chunk, train.n_users))
        for items in model.recommend_batch(users, K):
            lists.append(tuple(item_ids[items].tolist()))
    return lists


@dataclass
class Checker:
    """Verifies every response against the published models.

    ``lists[key]`` holds model ``key``'s expected list per user index and
    ``version_model`` maps each published version name to its model key.
    A known user's list must equal the list of the model its
    ``model_version`` names (a match) or of another published model (a
    provenance mismatch, counted); anything else fails the run, as do
    exceptions, degraded responses, empty lists for known users and
    cold-start lists other than ``MostReadItems.top_items(k)``.
    """

    user_index: dict
    lists: dict
    models: dict
    item_ids: np.ndarray
    cold_list: tuple
    version_model: dict
    failures: int = 0
    reasons: list = field(default_factory=list)
    primary: int = 0
    mismatches: int = 0
    hits: int = 0
    lookups: int = 0

    def fail(self, reason: str) -> None:
        self.failures += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, request, response) -> str:
        """Return ``"hit"``, ``"miss"``, ``"cold"`` or ``"fail"``."""
        self.lookups += 1
        if response is None:
            self.fail(f"{request.user_id}: raised")
            return "fail"
        books = tuple(book.book_id for book in response.books)
        if response.degraded or response.error:
            self.fail(f"{request.user_id}: degraded ({response.error})")
            return "fail"
        if response.from_cache:
            self.hits += 1
        user = self.user_index.get(request.user_id)
        if user is None:
            if response.served_by != SERVED_BY_MOST_READ or books != self.cold_list:
                self.fail(f"{request.user_id}: cold-start list differs")
                return "fail"
            return "hit" if response.from_cache else "cold"
        if not books or response.served_by != SERVED_BY_PRIMARY:
            self.fail(f"{request.user_id}: empty or not primary")
            return "fail"
        named = self.version_model.get(response.model_version)
        if named is None:
            self.fail(f"{request.user_id}: unpublished version {response.model_version}")
            return "fail"
        self.primary += 1
        source = self._source(user, books, named)
        if source is None:
            self.fail(f"{request.user_id}: list matches no published model")
            return "fail"
        if source != named:
            self.mismatches += 1
        return "hit" if response.from_cache else "miss"

    def _source(self, user: int, books: tuple, named) -> object | None:
        if self.lists[named][user] == books:
            return named
        for key, lists in self.lists.items():
            if lists[user] == books:
                return key
        # Scores within an ulp can order differently between GEMM shapes:
        # re-rank this one user through the single-user path before failing.
        for key in [named] + [k for k in self.models if k != named]:
            items = self.models[key].recommend(user, K)
            if tuple(self.item_ids[items].tolist()) == books:
                return key
        return None


# ----------------------------------------------------------------------
# slices
# ----------------------------------------------------------------------


@dataclass
class PhaseSamples:
    """Pooled samples of one phase over every slice of the run."""

    latency_ms: list = field(default_factory=list)
    queue_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    slice_p50_ms: list = field(default_factory=list)
    slice_p99_ms: list = field(default_factory=list)
    slice_rps: list = field(default_factory=list)
    growing: int = 0
    slices: int = 0
    requests: int = 0
    failed: int = 0
    busy_s: float = 0.0
    batch_us_per_user: list = field(default_factory=list)
    group_sizes: list = field(default_factory=list)
    missed: list = field(default_factory=list)

    def p50_ms(self) -> float:
        """Median over slices of each slice's median latency."""
        return median(self.slice_p50_ms)

    def latency_iqm_ms(self) -> float:
        """Interquartile mean of every request's latency over the run.

        A batch's latency steps with the number of its users the cache
        missed (on Zipf traffic ~0.25, 0.67 and 0.91 ms for none, one and
        two), so a median near the edge between two steps jumps by a
        whole step when the hit ratio moves by a few percent. The mean
        of the middle half moves in proportion to the hit ratio, and
        still leaves out the stalls in the top quarter.
        """
        return interquartile_mean(self.latency_ms)

    def p99_ms(self) -> float:
        """Median over slices of each slice's p99 latency.

        A host stall or a collector pause lands in one slice; the median
        over slices keeps it from deciding the run's figure, while a
        slower path, present in every slice, still moves it.
        """
        return median(self.slice_p99_ms)

    def capacity_rps(self) -> float:
        """Median over saturation slices of completions per second."""
        return median(self.slice_rps)

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "failed": self.failed,
            "slices": self.slices,
            "p50_ms": self.p50_ms(),
            "latency_iqm_ms": self.latency_iqm_ms(),
            "p99_ms": self.p99_ms(),
            "pooled_p50_ms": percentile(self.latency_ms, 50),
            "pooled_p99_ms": percentile(self.latency_ms, 99),
            "capacity_rps": self.capacity_rps(),
            "pooled_capacity_rps": self.requests / self.busy_s if self.busy_s else None,
            "slice_rps": [round(rate, 1) for rate in self.slice_rps],
            "slice_p50_ms": [round(value, 3) for value in self.slice_p50_ms],
            "slice_p99_ms": [round(value, 3) for value in self.slice_p99_ms],
            "gen_lag_p99_ms": percentile(self.lag_ms, 99),
            "queue_wait_p99_ms": percentile(self.queue_ms, 99),
            "slices_with_growing_lag": self.growing,
            "busy_s": self.busy_s,
        }


class Traffic:
    """Runs slices of one request stream against a service.

    Each call sends :data:`BATCH` consecutive stream entries through
    ``recommend_many_responses`` (one request per user; every user of a
    batch gets the batch's latency). Samples pool per key (``"low"``,
    ``"high.traced"``, ...).
    """

    def __init__(self, service, stream, checker: Checker, start: int = 0):
        self.service = service
        self.stream = stream
        self.checker = checker
        self.position = start
        self.phases: dict[str, PhaseSamples] = {}
        self.first_seen: dict = {}
        """Version name -> perf_counter time of the first response naming it."""

    def samples(self, key: str) -> PhaseSamples:
        if key not in self.phases:
            self.phases[key] = PhaseSamples()
        return self.phases[key]

    def next_batch(self) -> list:
        """The stream's next :data:`BATCH` requests (wrapping around)."""
        start = self.position % len(self.stream)
        chunk = self.stream[start:start + BATCH]
        if len(chunk) < BATCH:
            chunk = chunk + self.stream[: BATCH - len(chunk)]
        self.position += BATCH
        return chunk

    def _caller(self, tracer):
        """One batch call; ``None`` stands for a raise."""
        service = self.service

        def call(requests):
            try:
                if tracer is None:
                    return service.recommend_many_responses(requests)
                with tracer.span("bench.batch", requests=len(requests)):
                    return service.recommend_many_responses(requests)
            except Exception:  # a raising batch fails every request in it
                return None
        return call

    def run_slice(
        self, key: str, phase: str, rate: float | None, seconds: float,
        tracer=None, clock=time.perf_counter,
    ) -> None:
        """One slice: open loop at ``rate`` users/s, closed for ``"sat"``."""
        items, dues, sents, dones, results = [], [], [], [], []
        call = self._caller(tracer)
        next_item = self.next_batch
        started = clock()
        if phase == "sat":
            end = started + seconds
            while True:
                sent = clock()
                if sent >= end:
                    break
                item = next_item()
                result = call(item)
                done = clock()
                items.append(item)
                dues.append(sent)
                sents.append(sent)
                dones.append(done)
                results.append(result)
        else:
            units = rate / BATCH
            count = max(1, int(units * seconds))
            interval = 1.0 / units
            for i in range(count):
                due = started + i * interval
                sent = clock()
                if sent < due:
                    wait_until(due, clock)
                    sent = clock()
                item = next_item()
                result = call(item)
                done = clock()
                items.append(item)
                dues.append(due)
                sents.append(sent)
                dones.append(done)
                results.append(result)
        first_seen = self.first_seen
        for result, done in zip(results, dones):
            version = result[0].model_version if result else None
            if version is not None and version not in first_seen:
                first_seen[version] = done
        self._account(self.samples(key), phase, items, dues, sents, dones, results)

    def _account(self, samples, phase, items, dues, sents, dones, results) -> None:
        samples.slices += 1
        due = np.asarray(dues)
        sent = np.asarray(sents)
        done = np.asarray(dones)
        if phase == "sat":
            busy = float(done[-1] - sent[0]) if len(done) else 0.0
            samples.busy_s += busy
            if busy > 0:
                samples.slice_rps.append(len(done) * BATCH / busy)
        else:
            latency = (done - due) * 1e3
            samples.slice_p50_ms.append(float(np.percentile(latency, 50)))
            samples.slice_p99_ms.append(float(np.percentile(latency, 99)))
            queue = (sent - due) * 1e3
            previous_done = np.concatenate(([-np.inf], done[:-1]))
            idle = previous_done <= due
            samples.latency_ms.extend(np.repeat(latency, BATCH).tolist())
            samples.queue_ms.extend(queue.tolist())
            samples.lag_ms.extend(queue[idle].tolist())
            quarter = max(1, len(queue) // 4)
            if queue[-quarter:].mean() > queue[:quarter].mean() + 1.0:
                samples.growing += 1
        call_us = (done - sent) * 1e6
        checker = self.checker
        failures_before = checker.failures
        for index, (item, result) in enumerate(zip(items, results)):
            samples.requests += len(item)
            if result is None or len(result) != len(item):
                for request in item:
                    checker.check(request, None)
                continue
            misses = 0
            for request, response in zip(item, result):
                if checker.check(request, response) == "miss":
                    misses += 1
                    if len(samples.missed) < MISSED_SAMPLE:
                        samples.missed.append(checker.user_index[request.user_id])
            samples.group_sizes.append(misses)
            samples.batch_us_per_user.append(float(call_us[index]) / len(item))
        samples.failed += checker.failures - failures_before

    @property
    def requests(self) -> int:
        return sum(samples.requests for samples in self.phases.values())


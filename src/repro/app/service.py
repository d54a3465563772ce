"""The recommendation service behind the Reading&Machine GUI.

The paper's application shows each library user a list of k = 20 books
("a good trade-off between the quality of recommendations and the
prevention of users' choice overload"). This module provides that request
path over any fitted :class:`~repro.core.base.Recommender`: user id in,
book cards out, with latency accounting matching Table 2's methodology.

Every request reads one immutable :class:`ServingState` (model, training
matrix, version, cold-start fallback, cards by item index, static
popularity order), so its books and its ``model_version`` come from the
same model. A single request is a batch of one: cache misses are grouped
by k and scored exactly, one ``model.recommend_batch`` call per group,
behind a circuit breaker and per-request deadlines, above a degradation
chain (primary → fitted most-read → static popularity). An LRU cache of
primary responses answers repeat requests,
:meth:`RecommendationService.refresh_from_store` hot-swaps the state
from a model store, and every stats movement is mirrored into a metrics
registry (plus optional trace spans).
``docs/serving.md`` is the operator's guide.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.base import Recommender
from repro.core.interactions import InteractionMatrix
from repro.core.most_read import MostReadItems
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, UnknownUserError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)

#: The paper's deployed list length.
DEFAULT_K = 20

#: Served top-k lists kept in the LRU cache by default.
DEFAULT_CACHE_SIZE = 1024

#: ``served_by`` tags, in degradation-chain order.
SERVED_BY_PRIMARY = "primary"
SERVED_BY_MOST_READ = "most-read"
SERVED_BY_STATIC = "static"
SERVED_BY_NONE = "none"

#: Breaker states encoded for the ``service.breaker_state`` gauge.
_BREAKER_STATE_VALUE = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 1.0, STATE_OPEN: 2.0}

#: Title and author of a book the dataset has no card for.
_UNKNOWN = "(unknown)"


@dataclass(frozen=True)
class RecommendationRequest:
    """One GUI request.

    ``timeout_seconds`` is an optional per-request deadline budget,
    counted from the request's arrival at the service: when it runs out
    before the primary model was invoked, the service answers from the
    degradation chain instead of blocking the GUI.
    """

    user_id: str
    k: int = DEFAULT_K
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )


class ServedBook(NamedTuple):
    """One recommended book, as shown on a GUI card.

    The service builds one card per catalogue book and every response
    naming the book shares it; a card's rank is its position in the
    response's ``books``.
    """

    book_id: int
    title: str
    author: str


@dataclass(frozen=True, slots=True)
class ServedResponse:
    """One answered request, with provenance.

    ``served_by`` names the chain link that produced the list (one of the
    ``SERVED_BY_*`` tags; ``none`` when nothing could serve it).
    ``degraded`` is True when a *failure* forced a fallback — a cold-start
    user served the popularity list is not degraded. ``error`` carries the
    triggering failure, ``from_cache`` marks LRU hits (only primary
    responses are cached), and ``model_version`` names the store version
    that produced the list (``None`` for a model that did not come from a
    store).
    """

    books: tuple[ServedBook, ...]
    served_by: str
    degraded: bool = False
    error: str | None = None
    from_cache: bool = False
    model_version: str | None = None


@dataclass(frozen=True, slots=True, eq=False)
class ServingState:
    """One immutable serving snapshot: everything a request reads.

    ``cards`` holds this catalogue's card for each item index;
    ``static_order`` ranks its items by training count (the chain's last
    link); ``loaded_at`` is the service clock at build.
    """

    model: Recommender
    train: InteractionMatrix
    version: str | None
    cold_start_fallback: MostReadItems | None
    cards: tuple[ServedBook, ...]
    static_order: np.ndarray
    loaded_at: float

    def books(self, items: np.ndarray) -> tuple[ServedBook, ...]:
        """Cards for item indices of this state's catalogue, in order."""
        return tuple(map(self.cards.__getitem__, items.tolist()))

    def seen(self, user_index: int | None) -> np.ndarray:
        """The user's training items (none for an unknown user)."""
        if user_index is None:
            return np.asarray([], dtype=np.int64)
        return np.asarray(self.train.user_items(user_index), dtype=np.int64)


@dataclass
class ServiceStats:
    """Aggregate latency, cache, and degradation accounting.

    One shared :class:`~repro.obs.metrics.Histogram` drives
    :meth:`percentile` and the registry's ``service.latency_seconds``
    series, so they cannot disagree. ``degradations`` counts
    fallback-served requests per ``served_by`` source; ``errors`` counts
    underlying failures (more than degradations when several chain links
    fail for one request). Every mutation runs under one lock, so
    concurrent serving threads never lose an increment.
    """

    requests: int = 0
    total_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    last_error: str | None = None
    refreshes: int = 0
    """Successful hot swaps (:meth:`RecommendationService.refresh_from_store`)."""
    refresh_failed: int = 0
    """Rejected hot-swap candidates; each kept the previous model serving."""
    degradations: Counter = field(default_factory=Counter)
    histogram: "Histogram | None" = field(default=None, repr=False)
    """The shared latency histogram (a standalone one when omitted)."""

    def __post_init__(self) -> None:
        if self.histogram is None:
            self.histogram = Histogram("service.latency_seconds")
        self._lock = threading.Lock()

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.requests if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def degraded_requests(self) -> int:
        return int(sum(self.degradations.values()))

    def percentile(self, q: float) -> float:
        assert self.histogram is not None
        return self.histogram.percentile(q)

    def record(self, elapsed: float, requests: int = 1) -> None:
        """Account ``requests`` requests served in ``elapsed`` seconds."""
        assert self.histogram is not None
        with self._lock:
            self.requests += requests
            self.total_seconds += elapsed
        per_request = elapsed / requests if requests else 0.0
        for _ in range(requests):
            self.histogram.observe(per_request)

    def note_lookups(self, hits: int, misses: int) -> None:
        """Account a batch's cache lookups in one step."""
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses

    def note_error(self, error: BaseException | str) -> None:
        """Account one underlying failure, remembering its description."""
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        with self._lock:
            self.errors += 1
            self.last_error = error

    def note_refresh(self, ok: bool, error: BaseException | str | None = None) -> None:
        """Account one hot-swap attempt; failures remember their cause."""
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        with self._lock:
            if ok:
                self.refreshes += 1
            else:
                self.refresh_failed += 1
                if error is not None:
                    self.last_error = error

    def note_degraded(self, served_by: str, error: str | None = None) -> None:
        """Account one fallback-served request by its chain link.

        ``error`` (when given) becomes ``last_error`` only if no earlier
        failure was recorded — the first cause is the interesting one.
        """
        with self._lock:
            self.degradations[served_by] += 1
            if error is not None and self.last_error is None:
                self.last_error = error


def _require_fitted(
    model: Recommender, cold_start_fallback: "MostReadItems | None"
) -> None:
    if not model.is_fitted:
        raise ConfigurationError(f"{model.name} must be fitted before serving")
    if cold_start_fallback is not None and not cold_start_fallback.is_fitted:
        raise ConfigurationError(
            "the cold-start fallback must be fitted before serving"
        )


class RecommendationService:
    """Serve top-k recommendations for library users.

    Args:
        model: a fitted recommender (the *primary* chain link).
        train: the interaction matrix the model was fitted on.
        dataset: the merged dataset (titles and authors for the cards).
        cold_start_fallback: optional fitted
            :class:`~repro.core.most_read.MostReadItems`: unknown users get
            its top-k instead of an error, and it is the chain's second link.
        cache_size: served lists kept in the LRU cache (``0`` disables
            it); only primary responses are cached.
        breaker: the circuit breaker guarding primary scoring.
        degrade_unknown_users: an unknown user without a cold-start
            fallback gets the static list (degraded) instead of
            :class:`UnknownUserError`.
        clock: injectable monotonic clock (deadlines, staleness, latency).
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` to record
            into (a private one when omitted).
        tracer: optional :class:`~repro.obs.trace.Tracer`.
        model_version: the model's store version name, named by every
            response; :meth:`refresh_from_store` sets it.

    Thread safety: one instance may be shared by any number of request
    threads. The current :class:`ServingState` and the LRU cache sit
    behind one lock with short critical sections: a request takes the
    state with its cache lookups, and no lock is held across scoring. A
    swap replaces the state and clears the cache in one critical section.
    Stats, metrics instruments and the breaker carry their own locks.
    """

    def __init__(
        self,
        model: Recommender,
        train: InteractionMatrix,
        dataset: MergedDataset,
        cold_start_fallback: "MostReadItems | None" = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        breaker: CircuitBreaker | None = None,
        degrade_unknown_users: bool = False,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        model_version: str | None = None,
    ) -> None:
        _require_fitted(model, cold_start_fallback)
        if cache_size < 0:
            raise ConfigurationError(f"cache_size must be >= 0, got {cache_size}")
        self.dataset = dataset
        self.cache_size = cache_size
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.degrade_unknown_users = degrade_unknown_users
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        counter = self.metrics.counter
        self._m_requests = counter(
            "service.requests", help="requests answered (all paths)"
        )
        cache = counter("service.cache", help="cache lookups by outcome label")
        self._m_served = counter(
            "service.served", help="responses by served_by source label"
        )
        self._m_degraded = counter(
            "service.degraded", help="degraded responses by source label"
        )
        self._m_errors = counter(
            "service.errors", help="underlying scoring/fallback failures"
        )
        self._m_refreshes = counter(
            "service.refreshes", help="hot-swap attempts by outcome label"
        )
        self._m_breaker_transitions = counter(
            "service.breaker_transitions", help="state changes by target"
        )
        exact = counter(
            "service.retrieval.requests",
            help="primary scorings by retrieval tier label",
        )
        # The hot path's labelled children, bound once.
        self._m_hit = cache.labels(outcome="hit")
        self._m_miss = cache.labels(outcome="miss")
        self._m_primary = self._m_served.labels(source=SERVED_BY_PRIMARY)
        self._m_exact = exact.labels(tier="exact")
        self._m_breaker_state = self.metrics.gauge(
            "service.breaker_state", help="0=closed, 1=half-open, 2=open"
        )
        self.stats = ServiceStats(histogram=self.metrics.histogram(
            "service.latency_seconds", help="per-request service latency"
        ))
        self.breaker.on_transition = self._on_breaker_transition
        self._m_breaker_state.set(_BREAKER_STATE_VALUE[self.breaker.state])
        self._clock = clock
        self._lock = threading.RLock()
        self._cache: OrderedDict[tuple[str, int], ServedResponse] = OrderedDict()
        books = dataset.books
        self._cards: dict[int, ServedBook] = {
            int(book_id): ServedBook(int(book_id), str(title), str(author))
            for book_id, title, author in zip(
                books["book_id"], books["title"], books["author"]
            )
        }
        self._state = self._build_state(
            model, train, cold_start_fallback, model_version
        )

    # Read-only views of the current state.

    @property
    def model(self) -> Recommender:
        return self._state.model

    @property
    def train(self) -> InteractionMatrix:
        return self._state.train

    @property
    def model_version(self) -> str | None:
        return self._state.version

    @property
    def cold_start_fallback(self) -> "MostReadItems | None":
        return self._state.cold_start_fallback

    def _build_state(
        self,
        model: Recommender,
        train: InteractionMatrix,
        cold_start_fallback: "MostReadItems | None",
        version: str | None,
    ) -> ServingState:
        """Freeze one serving snapshot, outside the service lock; its
        cards are the service's, one per book, shared by every state."""
        cards = tuple(
            self._cards.get(book_id) or ServedBook(book_id, _UNKNOWN, _UNKNOWN)
            for book_id in map(int, train.items.ids)
        )
        counts = train.item_counts().astype(np.float64)
        return ServingState(
            model=model,
            train=train,
            version=version,
            cold_start_fallback=cold_start_fallback,
            cards=cards,
            static_order=np.argsort(-counts, kind="stable"),
            loaded_at=self._clock(),
        )

    # ------------------------------------------------------------------
    # cache management and hot swap
    # ------------------------------------------------------------------

    @property
    def cached_entries(self) -> int:
        """How many served lists the LRU cache currently holds."""
        with self._lock:
            return len(self._cache)

    def refresh_model(
        self,
        model: Recommender,
        train: InteractionMatrix,
        model_version: str | None = None,
    ) -> None:
        """Swap in a newly fitted model and invalidate the served cache.

        The new :class:`ServingState` (keeping the current cold-start
        fallback) is built outside the lock and replaces the current one
        by a single reference assignment, in the critical section that
        clears the cache and resets the breaker. A request in flight
        finishes on the state it took; its cache insert is dropped. One
        writer swaps at a time. The fallback is refitted on ``train``
        when the catalogue changed, since its item indices belong to the
        old one.
        """
        _require_fitted(model, None)
        current = self._state
        fallback = current.cold_start_fallback
        if fallback is not None and train.items != current.train.items:
            fallback = MostReadItems(personalized=fallback.exclude_seen).fit(train)
        state = self._build_state(model, train, fallback, model_version)
        with self._lock:
            self._state = state
            self._cache.clear()
            self.breaker.reset()

    def refresh_from_store(self, store, version: "str | int | None" = None) -> bool:
        """Zero-downtime hot swap from a :class:`~repro.app.lifecycle.ModelStore`.

        Resolving ``version`` (default ``CURRENT``), the checksum-verified
        load, validation (:meth:`_validate_candidate`, smoke-scoring the
        first user) and building the new state all run outside the service
        lock; only a validated candidate is swapped in. Never raises: any
        failure keeps the current model serving, counts one
        :attr:`ServiceStats.refresh_failed` and returns False.
        """
        with start_span(
            self.tracer, "service.refresh", version=str(version)
        ) as span:
            try:
                resolved = store.resolve(version)
                candidate, train = store.load(resolved)
                self._validate_candidate(candidate, train)
            except Exception as exc:  # repro: allow[exceptions] — degrade, never fail
                self.stats.note_refresh(ok=False, error=exc)
                self._m_refreshes.labels(outcome="failed").inc()
                span.set_attrs(outcome="failed", error=type(exc).__name__)
                return False
            self.refresh_model(candidate, train, model_version=resolved.name)
            self.stats.note_refresh(ok=True)
            self._m_refreshes.labels(outcome="ok").inc()
            span.set_attrs(outcome="ok", version=resolved.name)
            return True

    def _validate_candidate(
        self, model: Recommender, train: InteractionMatrix
    ) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` unless the
        candidate is fitted, its factors are finite and its first user
        gets a non-empty, in-catalogue list."""
        if not model.is_fitted:
            raise ConfigurationError("hot-swap candidate is not fitted")
        for attr in ("user_factors", "item_factors"):
            factors = getattr(model, attr, None)
            if factors is not None and not np.isfinite(factors).all():
                raise ConfigurationError(f"hot-swap candidate has non-finite {attr}")
        if train.n_users < 1 or train.n_items < 1:
            raise ConfigurationError("hot-swap candidate has an empty catalogue")
        items = np.asarray(model.recommend(0, min(DEFAULT_K, train.n_items)))
        if len(items) == 0:
            raise ConfigurationError(
                "hot-swap candidate served an empty list for the probe user"
            )
        if int(items.min()) < 0 or int(items.max()) >= train.n_items:
            raise ConfigurationError(
                "hot-swap candidate recommended items outside its catalogue"
            )

    def _cache_lookup(
        self, keys: list[tuple[str, int]]
    ) -> tuple[ServingState, list[ServedResponse | None]]:
        """Take the current state and look ``keys`` up in one critical
        section, so every hit belongs to that state."""
        with self._lock:
            found = [self._cache.get(key) for key in keys]
            for key, cached in zip(keys, found):
                if cached is not None:
                    self._cache.move_to_end(key)
            return self._state, found

    def _cache_insert(
        self,
        state: ServingState,
        entries: list[tuple[tuple[str, int], ServedResponse]],
    ) -> None:
        """Cache primary responses as their ``from_cache=True`` form (a hit
        returns the entry as is), unless ``state`` was swapped out since:
        such responses were right for their requesters, not for the cache.

        A fallback list is never cached, and neither is an unknown user's
        cold-start list: unknown ids rarely repeat, and each would evict
        a known user's list."""
        if not self.cache_size:
            return
        fresh = [
            (key, ServedResponse(
                response.books, response.served_by, from_cache=True,
                model_version=response.model_version,
            ))
            for key, response in entries
            if response.served_by == SERVED_BY_PRIMARY
        ]
        if not fresh:
            return
        with self._lock:
            if self._state is not state:
                return
            for key, response in fresh:
                self._cache[key] = response
                self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------

    def recommend(self, request: RecommendationRequest) -> list[ServedBook]:
        """The books of :meth:`recommend_response`."""
        return list(self.recommend_response(request).books)

    def recommend_response(self, request: RecommendationRequest) -> ServedResponse:
        """Handle one request: a batch of one through :meth:`_resolve`,
        except that an unknown user no chain link may serve raises
        :class:`UnknownUserError` instead of coming back error-marked."""
        started = self._clock()
        self._m_requests.inc()
        key = (request.user_id, request.k)
        state, [cached] = self._cache_lookup([key])
        self._note_lookups([cached])
        if cached is not None:
            self.stats.record(self._clock() - started)
            return cached
        with start_span(
            self.tracer, "service.request", user_id=request.user_id, k=request.k
        ) as span:
            [response] = self._resolve(state, [request], started)
            if response is None:
                self.stats.record(self._clock() - started)
                raise UnknownUserError(request.user_id)
            span.set_attrs(served_by=response.served_by, degraded=response.degraded)
        self._account(response)
        self._cache_insert(state, [(key, response)])
        self.stats.record(self._clock() - started)
        return response

    def recommend_many_responses(
        self, requests: Sequence[RecommendationRequest]
    ) -> list[ServedResponse]:
        """Batch variant of :meth:`recommend_response`; never raises.

        The batch reads one state. Misses are scored in one exact call
        per distinct k, each one breaker outcome; a failure in a group
        degrades that group only, and an unserveable unknown user comes
        back error-marked, so one bad request cannot poison the batch.
        """
        started = self._clock()
        self._m_requests.inc(len(requests))
        with start_span(self.tracer, "service.batch", requests=len(requests)):
            keys = [(request.user_id, request.k) for request in requests]
            state, results = self._cache_lookup(keys)
            self._note_lookups(results)
            misses = [i for i, cached in enumerate(results) if cached is None]
            resolved = self._resolve(
                state, [requests[i] for i in misses], started
            )
            for position, response in zip(misses, resolved):
                if response is None:
                    error = UnknownUserError(requests[position].user_id)
                    self._note_error(error)
                    response = ServedResponse(
                        (), SERVED_BY_NONE, degraded=True,
                        error=f"{type(error).__name__}: {error}",
                        model_version=state.version,
                    )
                self._account(response)
                results[position] = response
            self._cache_insert(state, [(keys[i], results[i]) for i in misses])
        if requests:
            self.stats.record(self._clock() - started, len(requests))
        return results

    def history(self, user_id: str) -> list[ServedBook]:
        """The user's training history as cards (for the GUI's shelf view)."""
        state = self._state
        if user_id not in state.train.users:
            raise UnknownUserError(user_id)
        return list(state.books(state.seen(state.train.users.index_of(user_id))))

    def health(self) -> dict:
        """A service health report (breaker, cache, latency, errors).

        The ``latency`` percentiles read the same shared histogram as
        :meth:`ServiceStats.percentile` and the metrics snapshot — one
        source of truth for all three views.
        """
        stats = self.stats
        state = self._state
        breaker = self.breaker.snapshot()
        return {
            "status": "ok" if breaker["state"] == STATE_CLOSED else "degraded",
            "breaker": breaker,
            "cache": {
                "entries": self.cached_entries,
                "capacity": self.cache_size,
                "hit_rate": round(stats.cache_hit_rate, 4),
            },
            "latency": {
                "mean_seconds": stats.mean_seconds,
                "p50": stats.percentile(0.50),
                "p95": stats.percentile(0.95),
                "p99": stats.percentile(0.99),
            },
            "model": {
                "name": state.model.name,
                "version": state.version,
                "staleness_seconds": round(self._clock() - state.loaded_at, 3),
            },
            "refreshes": {"ok": stats.refreshes, "failed": stats.refresh_failed},
            "requests": stats.requests,
            "degraded_requests": stats.degraded_requests,
            "degradations": dict(stats.degradations),
            "errors": stats.errors,
            "last_error": stats.last_error,
        }

    # ------------------------------------------------------------------
    # resolution: primary -> most-read -> static
    # ------------------------------------------------------------------

    def _resolve(
        self,
        state: ServingState,
        requests: Sequence[RecommendationRequest],
        started: float,
    ) -> list[ServedResponse | None]:
        """Resolve cache-missed requests against one state; never raises.

        Known users whose budget, counted from ``started`` (when the
        service took the request or its batch), is not spent are grouped
        by k for :meth:`_score_group` while the breaker allows; the others
        take the fallback chain. ``None`` marks an unserveable unknown
        user.
        """
        results: list[ServedResponse | None] = [None] * len(requests)
        groups: dict[int, list[tuple[int, int]]] = {}
        users = state.train.users
        for position, request in enumerate(requests):
            if request.user_id not in users:
                results[position] = self._cold_start(state, request)
                continue
            user_index = users.index_of(request.user_id)
            if (
                request.timeout_seconds is not None
                and self._clock() - started >= request.timeout_seconds
            ):
                error = "deadline expired before primary scoring"
            elif self.breaker.allow():
                groups.setdefault(request.k, []).append((position, user_index))
                continue
            else:
                error = "circuit breaker open"
            results[position] = self._fallback(state, user_index, request.k, error)
        for k, members in groups.items():
            self._score_group(state, k, members, results)
        return results

    def _score_group(
        self,
        state: ServingState,
        k: int,
        members: list[tuple[int, int]],
        results: list[ServedResponse | None],
    ) -> None:
        """Score one k-group exactly and build its responses, as one
        guarded call: a failure in either counts one breaker failure and
        degrades this group only. Scorings count on
        ``service.retrieval.requests``."""
        indices = np.asarray([user for _, user in members], dtype=np.int64)
        try:
            lists = state.model.recommend_batch(indices, k)
            self._m_exact.inc(len(indices))
            served = [
                (position, ServedResponse(
                    state.books(items), SERVED_BY_PRIMARY,
                    model_version=state.version,
                ))
                for (position, _), items in zip(members, lists, strict=True)
            ]
        except Exception as exc:  # repro: allow[exceptions] — degrade, never fail
            self.breaker.record_failure()
            self._note_error(exc)
            error = f"{type(exc).__name__}: {exc}"
            for position, user_index in members:
                results[position] = self._fallback(state, user_index, k, error)
            return
        self.breaker.record_success()
        for position, response in served:
            results[position] = response

    def _cold_start(
        self, state: ServingState, request: RecommendationRequest
    ) -> ServedResponse | None:
        """An unknown user: the cold-start link, then (optionally) static."""
        fallback = state.cold_start_fallback
        if fallback is not None:
            try:
                return ServedResponse(
                    state.books(fallback.top_items(request.k)),
                    SERVED_BY_MOST_READ, model_version=state.version,
                )
            except Exception as exc:  # repro: allow[exceptions] — cold-start chain degrades
                self._note_error(exc)
                error = f"{type(exc).__name__}: {exc}"
        elif self.degrade_unknown_users:
            error = f"unknown user: {request.user_id!r}"
        else:
            return None
        return self._fallback(state, None, request.k, error, most_read=False)

    def _fallback(
        self,
        state: ServingState,
        user_index: int | None,
        k: int,
        error: str,
        most_read: bool = True,
    ) -> ServedResponse:
        """A response from the chain below the primary model; never raises.

        The fitted most-read list, else the static order (pure numpy, it
        cannot fail), without the user's already-read books; error-marked
        should even the cards fail.
        """
        seen = state.seen(user_index)
        items, source = state.static_order, SERVED_BY_STATIC
        if most_read and state.cold_start_fallback is not None:
            try:
                items = state.cold_start_fallback.top_items(k + len(seen))
                source = SERVED_BY_MOST_READ
            except Exception as exc:  # repro: allow[exceptions] — fall further down the chain
                self._note_error(exc)
        if len(seen):
            items = items[~np.isin(items, seen)]
        try:
            books = state.books(items[:k])
        except Exception as exc:  # repro: allow[exceptions] — error-mark, never fail
            self._note_error(exc)
            books, source = (), SERVED_BY_NONE
        return ServedResponse(
            books, source, degraded=True, error=error,
            model_version=state.version,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _note_error(self, error: BaseException | str) -> None:
        """Record a failure in both the stats and the metrics registry."""
        self.stats.note_error(error)
        self._m_errors.inc()

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self._m_breaker_state.set(_BREAKER_STATE_VALUE.get(new, -1.0))
        self._m_breaker_transitions.labels(to=new).inc()

    def _served(self, source: str):
        """The ``service.served`` child of one source."""
        if source == SERVED_BY_PRIMARY:
            return self._m_primary
        return self._m_served.labels(source=source)

    def _note_lookups(self, found: Sequence[ServedResponse | None]) -> None:
        """Account cache lookups: a hit is answered (and served) as is."""
        hits = [response for response in found if response is not None]
        misses = len(found) - len(hits)
        self.stats.note_lookups(len(hits), misses)
        if hits:
            self._m_hit.inc(len(hits))
            for response in hits:
                self._served(response.served_by).inc()
        if misses:
            self._m_miss.inc(misses)

    def _account(self, response: ServedResponse) -> None:
        """Mirror one resolved response into stats and metrics."""
        self._served(response.served_by).inc()
        if response.degraded:
            self.stats.note_degraded(response.served_by, error=response.error)
            self._m_degraded.labels(source=response.served_by).inc()

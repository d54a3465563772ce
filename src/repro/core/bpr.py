"""Bayesian Personalised Ranking with WARP sampling (paper Section 4).

Matrix factorisation for implicit feedback: user factors ``V`` (U × L) and
item factors ``P`` (L × B) are learned so that every read book outranks the
unread ones (Equation 3 of the paper, after Rendle et al. 2012). Training
follows the paper's choice of the WARP variant (Weston et al. 2011): for
each positive (u, i), negatives are drawn until one *violates* the ranking
(scores within a unit margin of the positive), and the update magnitude
decreases with the number of draws needed — a violator found immediately
implies the positive is badly ranked and earns a large step.

The update weight uses the WARP rank estimate ``rank ≈ (B - 1) / trials``
normalised to (0, 1] by ``log1p(rank) / log1p(B - 1)``, which keeps the
paper's best learning rate (0.2) numerically stable.

A plain-BPR alternative (uniform negative sampling with the sigmoid
gradient of Equation 3) is available via ``sampler="uniform"`` and is used
by the sampler ablation bench.

Warm start keeps the model a living artefact:
``fit(train, warm_start=previous_model)`` seeds the factor matrices from
an earlier fitted model through the expanding
:class:`~repro.core.interactions.Indexer`\\ s: users/items present in
both catalogues continue training from their learned rows, brand-new
ones keep their fresh random initialisation. The catalogue can grow,
shrink, and reorder between fits — rows are matched by external id,
never by index.

Training runs in-process on the float32 kernel in
:mod:`repro.core.bpr_kernel` (pre-drawn negative sampling against a
seen-interaction bitset, segment-sum updates). Its determinism contract
is tabulated in ``docs/determinism.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.base import Recommender
from repro.core.bpr_kernel import seen_bitset, train_batch
from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.rng import derive_rng

#: Fixed buckets for the per-epoch / per-batch training-time histograms.
_TRAIN_TIME_BUCKETS = (
    0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)

SAMPLERS = ("warp", "uniform")


@dataclass(frozen=True)
class BPRConfig:
    """Hyper-parameters of the BPR recommender.

    Defaults are this implementation's grid-search winners (see the
    ``gridsearch`` experiment): 20 latent factors — matching the paper's
    winner — and a 0.05 learning rate. The paper reports 0.2, but its
    LightFM-style trainer uses adagrad step scaling; on plain SGD the
    equivalent optimum lands at a smaller nominal rate.
    """

    n_factors: int = 20
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 2048
    regularization: float = 0.002
    """The paper's lambda_V = lambda_P (applied to both factor matrices)."""
    sampler: str = "warp"
    max_trials: int = 20
    """WARP: negative draws per positive before giving up on the update."""
    margin: float = 1.0
    """WARP hinge margin: a negative within this of the positive violates."""
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_factors < 1:
            raise ConfigurationError(f"n_factors must be >= 1, got {self.n_factors}")
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.regularization < 0:
            raise ConfigurationError("regularization must be non-negative")
        if self.sampler not in SAMPLERS:
            raise ConfigurationError(
                f"sampler must be one of {SAMPLERS}, got {self.sampler!r}"
            )
        if self.max_trials < 1:
            raise ConfigurationError(f"max_trials must be >= 1, got {self.max_trials}")


@dataclass
class EpochStats:
    """Diagnostics recorded after each training epoch."""

    epoch: int
    mean_violation_trials: float
    updated_fraction: float
    seconds: float
    samples_per_second: float = 0.0
    """Positive pairs processed divided by the epoch's wall-clock seconds
    — the definition of training throughput behind the
    ``bpr.samples_per_second`` gauge and span attribute."""


class BPR(Recommender):
    """The collaborative-filtering recommender of the paper.

    Observability hooks (all optional, all inert by default — fitting with
    none of them set is bit-identical to the uninstrumented model because
    the tracer/metrics draw no randomness from the training stream):

    - ``callbacks``: called with each epoch's :class:`EpochStats` as it
      completes (progress bars, early-stopping monitors, ...);
    - ``tracer``: emits one ``bpr.fit`` span wrapping per-epoch
      ``bpr.epoch`` child spans with trial/update diagnostics as attrs;
    - ``metrics``: gauges ``bpr.updated_fraction``/``bpr.mean_violation_trials``,
      an epoch counter, and ``bpr.epoch_seconds``/``bpr.batch_seconds``
      histograms.
    """

    exclude_seen = True

    def __init__(
        self,
        config: BPRConfig | None = None,
        callbacks: "Sequence[Callable[[EpochStats], None]] | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__()
        self.config = config or BPRConfig()
        self.callbacks = tuple(callbacks or ())
        self.tracer = tracer
        self.metrics = metrics
        self._user_factors: np.ndarray | None = None
        self._item_factors: np.ndarray | None = None
        self._scoring_factors: np.ndarray | None = None
        self._warm_start: "BPR | None" = None
        self.history: list[EpochStats] = []

    @property
    def name(self) -> str:
        return "BPR"

    @property
    def user_factors(self) -> np.ndarray:
        """The fitted ``V`` matrix (n_users × L)."""
        if self._user_factors is None:
            raise NotFittedError(self.name)
        return self._user_factors

    @property
    def item_factors(self) -> np.ndarray:
        """The fitted ``P^T`` matrix (n_items × L)."""
        if self._item_factors is None:
            raise NotFittedError(self.name)
        return self._item_factors

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(
        self,
        train: InteractionMatrix,
        dataset: MergedDataset | None = None,
        warm_start: "BPR | None" = None,
    ) -> "BPR":
        """Fit on the training interactions, optionally warm-started.

        ``warm_start`` (a previously fitted BPR with the same
        ``n_factors``) seeds the factor matrices: rows for users/items
        shared with the earlier catalogue are copied from the old model
        before SGD begins, rows for new users/items keep the fresh seeded
        initialisation. The RNG stream is identical to a cold fit —
        warm-starting only overwrites initial values, so the run stays a
        pure function of ``(seed, train, warm_start factors)`` (see
        ``docs/determinism.md``).
        """
        if warm_start is not None:
            if not warm_start.is_fitted:
                raise NotFittedError(warm_start.name)
            if warm_start.config.n_factors != self.config.n_factors:
                raise ConfigurationError(
                    f"warm-start model has {warm_start.config.n_factors} "
                    f"factors, this config wants {self.config.n_factors}; "
                    "factor dimensionality cannot change across a warm start"
                )
        self._warm_start = warm_start
        try:
            super().fit(train, dataset)
        finally:
            self._warm_start = None
        return self

    def _fit(self, train: InteractionMatrix, dataset: MergedDataset | None) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "bpr", "sgd")
        n_users, n_items = train.n_users, train.n_items
        if n_items < 2:
            raise ConfigurationError("BPR needs at least two items")
        scale = 1.0 / np.sqrt(cfg.n_factors)
        # Float64 normal draws rounded to float32, so the initialisation
        # consumes the same RNG stream as the float64 trainer did.
        V = rng.normal(0.0, scale, size=(n_users, cfg.n_factors))
        P = rng.normal(0.0, scale, size=(n_items, cfg.n_factors))
        V, P = V.astype(np.float32), P.astype(np.float32)
        if self._warm_start is not None:
            _seed_from_model(self._warm_start, train, V, P)

        pos_users, pos_items = train.positive_pairs()
        seen = seen_bitset(train.interaction_keys(), n_users * n_items)
        self.history = []
        self._run_epochs(V, P, pos_users, pos_items, seen, n_items, rng)
        self._set_factors(V, P)

    def _set_factors(
        self, user_factors: np.ndarray, item_factors: np.ndarray
    ) -> None:
        """Install fitted or loaded factors with their scoring copy: a
        C-contiguous ``(L, n_items)`` transpose, against which a batch
        product runs several times faster than against the ``.T`` view."""
        self._user_factors = user_factors
        self._item_factors = item_factors
        self._scoring_factors = np.ascontiguousarray(item_factors.T)

    def _run_epochs(
        self,
        V: np.ndarray,
        P: np.ndarray,
        pos_users: np.ndarray,
        pos_items: np.ndarray,
        seen: np.ndarray,
        n_items: int,
        rng: np.random.Generator,
    ) -> None:
        """The epoch loop: :func:`~repro.core.bpr_kernel.train_batch` over
        each epoch's permutation of the positive pairs, in batches."""
        cfg = self.config
        metrics = self.metrics
        batch_histogram = (
            metrics.histogram("bpr.batch_seconds", buckets=_TRAIN_TIME_BUCKETS)
            if metrics is not None
            else None
        )
        with start_span(
            self.tracer, "bpr.fit",
            n_users=V.shape[0], n_items=n_items, n_pairs=len(pos_users),
            epochs=cfg.epochs, sampler=cfg.sampler,
        ):
            for epoch in range(cfg.epochs):
                started = time.perf_counter()
                with start_span(self.tracer, "bpr.epoch", epoch=epoch) as span:
                    order = rng.permutation(len(pos_users))
                    users, items = pos_users.take(order), pos_items.take(order)
                    trial_total, updated_total = 0.0, 0
                    for start in range(0, len(order), cfg.batch_size):
                        stop = start + cfg.batch_size
                        batch_started = (
                            time.perf_counter()
                            if batch_histogram is not None
                            else 0.0
                        )
                        stats = train_batch(
                            V, P, users[start:stop], items[start:stop],
                            seen, n_items, rng, cfg,
                        )
                        if batch_histogram is not None:
                            batch_histogram.observe(
                                time.perf_counter() - batch_started
                            )
                        trial_total += stats[0]
                        updated_total += stats[1]
                    n_pairs = len(order)
                    seconds = time.perf_counter() - started
                    epoch_stats = EpochStats(
                        epoch=epoch,
                        mean_violation_trials=(
                            trial_total / max(updated_total, 1)
                        ),
                        updated_fraction=updated_total / max(n_pairs, 1),
                        seconds=seconds,
                        samples_per_second=(
                            n_pairs / seconds if seconds > 0 else 0.0
                        ),
                    )
                    span.set_attrs(
                        mean_violation_trials=epoch_stats.mean_violation_trials,
                        updated_fraction=epoch_stats.updated_fraction,
                        samples_per_second=epoch_stats.samples_per_second,
                    )
                self.history.append(epoch_stats)
                if metrics is not None:
                    metrics.counter("bpr.epochs").inc()
                    metrics.gauge("bpr.updated_fraction").set(
                        epoch_stats.updated_fraction
                    )
                    metrics.gauge("bpr.mean_violation_trials").set(
                        epoch_stats.mean_violation_trials
                    )
                    metrics.gauge("bpr.samples_per_second").set(
                        epoch_stats.samples_per_second
                    )
                    metrics.histogram(
                        "bpr.epoch_seconds", buckets=_TRAIN_TIME_BUCKETS
                    ).observe(epoch_stats.seconds)
                for callback in self.callbacks:
                    callback(epoch_stats)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(user_indices, dtype=np.int64)
        return self.user_factors.take(indices, axis=0) @ self._scoring_factors


def _seed_from_model(
    warm: BPR, train: InteractionMatrix, V: np.ndarray, P: np.ndarray
) -> None:
    """Overwrite factor rows shared with an earlier model's catalogue.

    Matching is by external id through the old and new indexers, so the
    catalogue may grow, shrink, or reorder between fits; rows for ids the
    old model never saw keep their fresh initialisation in ``V``/``P``.
    """
    old_train = warm.train
    for old_indexer, new_indexer, old_factors, target in (
        (old_train.users, train.users, warm.user_factors, V),
        (old_train.items, train.items, warm.item_factors, P),
    ):
        shared = [value for value in new_indexer.ids if value in old_indexer]
        if not shared:
            continue
        new_rows = new_indexer.indices_of(shared)
        old_rows = old_indexer.indices_of(shared)
        target[new_rows] = old_factors[old_rows].astype(
            target.dtype, copy=False
        )

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

Online-learning extensions (the model as a living artefact):

- **warm start** — ``fit(train, warm_start=previous_model)`` seeds the
  factor matrices from an earlier fitted model through the expanding
  :class:`~repro.core.interactions.Indexer`\\ s: users/items present in
  both catalogues continue training from their learned rows, brand-new
  ones keep their fresh random initialisation. The catalogue can grow,
  shrink, and reorder between fits — rows are matched by external id,
  never by index.
- **fold-in** — :meth:`BPR.fold_in` solves a single new user's factor
  vector against the *frozen* item factors (a ridge least-squares fit to
  their read items), and :func:`fold_in_users` grafts a batch of such
  users into an expanded model + interaction matrix so they get
  personalised, seen-item-masked lists without any retraining.

Training runs on the float32 kernel in :mod:`repro.core.bpr_kernel`
(pre-drawn negative sampling against a seen-interaction bitset,
segment-sum updates); ``config.workers > 1`` additionally shards each
epoch HogWild-style across worker processes over shared-memory factors.
The contract of each mode is tabulated in ``docs/determinism.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.base import Recommender
from repro.core.bpr_kernel import (
    fork_sharing_available,
    hogwild_epoch,
    hogwild_pool,
    seen_bitset,
    shared_empty,
    train_batch,
)
from repro.core.interactions import Indexer, InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.parallel.pool import resolve_n_jobs
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
    workers: int = 1
    """Worker processes for HogWild training (``-1`` = all CPUs). Values
    above 1 relax the determinism contract to converges-to-the-same-KPIs
    (``docs/determinism.md``); on platforms without the ``fork`` start
    method training transparently stays in-process."""

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
        if self.workers != -1 and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1 or -1 (all CPUs), got {self.workers}"
            )


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

        n_workers = resolve_n_jobs(cfg.workers)
        hogwild = n_workers > 1 and fork_sharing_available()
        pool = None
        if hogwild:
            shared_V = shared_empty(V.shape, np.float32)
            shared_V[:] = V
            shared_P = shared_empty(P.shape, np.float32)
            shared_P[:] = P
            V, P = shared_V, shared_P
            pool = hogwild_pool(
                V, P, pos_users, pos_items, seen, n_items, cfg, n_workers
            )
        try:
            self._run_epochs(
                V, P, pos_users, pos_items, seen, n_items, rng, pool,
                n_workers,
            )
        finally:
            if pool is not None:
                pool.close()
        # Copy shared-buffer factors into plain arrays so the fitted model
        # holds no reference to the (now worker-free) shared mappings.
        self._user_factors = np.array(V) if hogwild else V
        self._item_factors = np.array(P) if hogwild else P

    def _run_epochs(
        self,
        V: np.ndarray,
        P: np.ndarray,
        pos_users: np.ndarray,
        pos_items: np.ndarray,
        seen: np.ndarray,
        n_items: int,
        rng: np.random.Generator,
        pool,
        n_workers: int,
    ) -> None:
        """The epoch loop, in-process or HogWild.

        ``pool`` is the HogWild worker pool, or ``None`` for in-process
        training with :func:`~repro.core.bpr_kernel.train_batch`.
        """
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
            workers=(n_workers if pool is not None else 1),
        ):
            for epoch in range(cfg.epochs):
                started = time.perf_counter()
                with start_span(self.tracer, "bpr.epoch", epoch=epoch) as span:
                    order = rng.permutation(len(pos_users))
                    if pool is not None:
                        trial_total, updated_total = hogwild_epoch(
                            pool, order, epoch, cfg.seed, n_workers
                        )
                    else:
                        trial_total, updated_total = 0.0, 0
                        for start in range(0, len(order), cfg.batch_size):
                            batch = order[start:start + cfg.batch_size]
                            batch_started = (
                                time.perf_counter()
                                if batch_histogram is not None
                                else 0.0
                            )
                            stats = train_batch(
                                V, P, pos_users[batch], pos_items[batch],
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
        return self.user_factors[np.asarray(user_indices, dtype=np.int64)] @ (
            self.item_factors.T
        )

    # ------------------------------------------------------------------
    # fold-in: new users without a retrain
    # ------------------------------------------------------------------

    def fold_in(
        self,
        item_indices: Sequence[int] | np.ndarray,
        regularization: float | None = None,
    ) -> np.ndarray:
        """Solve one new user's factor vector against frozen item factors.

        Ridge least squares on the user's read items: minimise
        ``sum_i (1 - x · p_i)^2 + lambda * |N_u| * |x|^2`` over the items
        ``i`` the user has read, with the item factors ``p_i`` held fixed.
        The closed form is one ``(L × L)`` solve, so a brand-new user gets
        a personalised factor vector in microseconds instead of an epoch
        of SGD. Deterministic: a pure function of the item factors and the
        item set (no randomness).

        Args:
            item_indices: matrix indices of the items the user read (at
                least one, all within the fitted catalogue).
            regularization: ridge strength per read item; defaults to the
                training ``config.regularization``.
        """
        P = self.item_factors
        idx = np.asarray(item_indices, dtype=np.int64)
        if idx.ndim != 1 or len(idx) == 0:
            raise ConfigurationError(
                "fold_in needs a non-empty 1-D array of item indices"
            )
        if len(idx) and (int(idx.min()) < 0 or int(idx.max()) >= len(P)):
            raise ConfigurationError(
                f"fold_in item indices must lie in [0, {len(P)}), got "
                f"[{int(idx.min())}, {int(idx.max())}]"
            )
        lam = (
            self.config.regularization if regularization is None
            else regularization
        )
        if lam < 0:
            raise ConfigurationError("regularization must be non-negative")
        sub = P[idx].astype(np.float64)
        n_factors = sub.shape[1]
        # A tiny absolute floor keeps the system well-posed even at
        # lambda = 0 with rank-deficient histories.
        ridge = lam * len(idx) + 1e-9
        gram = sub.T @ sub + ridge * np.eye(n_factors)
        rhs = sub.sum(axis=0)
        solution = np.linalg.solve(gram, rhs)
        return solution.astype(self.user_factors.dtype, copy=False)


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


def fold_in_users(
    model: BPR,
    train: InteractionMatrix,
    new_user_items: "dict[str, Sequence[int]]",
    regularization: float | None = None,
) -> tuple[BPR, InteractionMatrix]:
    """Graft brand-new users into a fitted model without retraining.

    Each new user's factor vector is solved with :meth:`BPR.fold_in`
    against the frozen item factors; the returned ``(model, train)`` pair
    has an expanded user :class:`~repro.core.interactions.Indexer`,
    factor rows for every old user byte-identical to the input model, and
    interaction rows for the new users so seen-item masking applies to
    their histories. Item factors and the item indexer are untouched.

    Args:
        model: a fitted :class:`BPR`.
        train: the interaction matrix the model was fitted on.
        new_user_items: new user id → external book ids they have read.
            Ids already in the catalogue, unknown books, or empty
            histories raise :class:`~repro.errors.ConfigurationError`.
        regularization: forwarded to :meth:`BPR.fold_in`.

    Returns:
        ``(folded_model, expanded_train)`` ready for
        :meth:`~repro.app.service.RecommendationService.refresh_model`.
    """
    if not model.is_fitted:
        raise NotFittedError(model.name)
    if not new_user_items:
        raise ConfigurationError("fold_in_users needs at least one new user")
    from scipy import sparse

    old_users = train.users
    items = train.items
    new_ids = sorted(new_user_items)
    for user_id in new_ids:
        if user_id in old_users:
            raise ConfigurationError(
                f"user {user_id!r} is already in the catalogue; fold-in is "
                "for brand-new users (retrain to update existing ones)"
            )
    rows_of_items: list[np.ndarray] = []
    for user_id in new_ids:
        books = list(new_user_items[user_id])
        if not books:
            raise ConfigurationError(
                f"new user {user_id!r} has an empty history; fold-in needs "
                "at least one read item"
            )
        try:
            rows_of_items.append(items.indices_of(books))
        except KeyError as exc:
            raise ConfigurationError(
                f"new user {user_id!r} references unknown book {exc.args[0]!r}"
            ) from exc

    # Solve the new rows, then splice everything into the sorted order the
    # expanded indexer assigns (same permutation trick as restrict_users).
    new_factors = np.stack(
        [
            model.fold_in(item_rows, regularization=regularization)
            for item_rows in rows_of_items
        ]
    )
    users = Indexer(list(old_users.ids) + new_ids)
    concat_ids = list(old_users.ids) + new_ids
    order = users.indices_of(concat_ids)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))

    V = np.concatenate([model.user_factors, new_factors])[inverse]
    new_rows = sparse.csr_matrix(
        (
            np.ones(sum(len(rows) for rows in rows_of_items), dtype=np.float64),
            np.concatenate(rows_of_items),
            np.cumsum([0] + [len(rows) for rows in rows_of_items]),
        ),
        shape=(len(new_ids), len(items)),
    )
    stacked = sparse.vstack([train.csr, new_rows]).tocsr()[inverse]
    expanded = InteractionMatrix(users, items, stacked)

    folded = BPR(model.config)
    folded._train = expanded
    folded._user_factors = V
    folded._item_factors = model.item_factors
    return folded, expanded

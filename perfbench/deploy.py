"""Set-up: from a seed to a serving deployment.

One :func:`deploy` call is one set-up: it writes the seeded sharded
corpus, merges and splits it, trains the set-up models briefly, publishes
the first one to a :class:`~repro.app.lifecycle.ModelStore`, starts a
:class:`~repro.app.service.RecommendationService` on the published
version and warms both request paths and the cache.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.app.lifecycle import ModelStore
from repro.app.service import RecommendationRequest, RecommendationService
from repro.core.bpr import BPR, BPRConfig
from repro.core.most_read import MostReadItems
from repro.datasets.corpus import CorpusConfig, ShardedCorpus, ShardedCorpusWriter
from repro.datasets.merged import MergedDataset
from repro.eval.split import DatasetSplit, split_readings
from repro.obs.trace import start_span
from repro.perf.rss import measure_phase_rss
from repro.pipeline.merge import MergeConfig
from repro.pipeline.streaming import merge_sharded_corpus

from perfbench.params import (
    BATCH, BRIEF_EPOCHS, CORPUS_SEED, K, MIN_BOOK_READINGS, MIN_USER_READINGS,
    N_ANOBII_USERS, N_AUTHORS, N_BCT_USERS, N_BOOKS, N_LOANS, N_RATINGS,
    N_SHARDS, ROWS_PER_CHUNK, STREAM_LENGTH, USER_ACTIVITY_SIGMA, WARMUP_USERS,
)
from perfbench.traffic import uniform_stream, zipf_stream

#: Stream requests sent at set-up so timed traffic meets a warm cache.
WARM_REQUESTS = 2048


def corpus_config() -> CorpusConfig:
    """The sharded corpus every workload reads (see :data:`CORPUS_SEED`)."""
    return CorpusConfig(
        n_books=N_BOOKS,
        n_authors=N_AUTHORS,
        n_bct_users=N_BCT_USERS,
        n_anobii_users=N_ANOBII_USERS,
        n_loans=N_LOANS,
        n_ratings=N_RATINGS,
        n_shards=N_SHARDS,
        rows_per_chunk=ROWS_PER_CHUNK,
        seed=CORPUS_SEED,
        user_activity_sigma=USER_ACTIVITY_SIGMA,
    )


def merge_config() -> MergeConfig:
    return MergeConfig(
        min_user_readings=MIN_USER_READINGS,
        min_book_readings=MIN_BOOK_READINGS,
    )


def model_seed(seed: int, index: int) -> int:
    """Seed of set-up model ``index`` (0 = v1, 1 = serve-churn's other)."""
    return seed * 7 + 1 + index


@dataclass
class Deployment:
    """A running deployment plus the inputs it was built from."""

    root: Path
    corpus: ShardedCorpus
    merged: MergedDataset
    split: DatasetSplit
    store: ModelStore
    models: list[BPR]
    """Set-up models, as trained (``models[0]`` is published as v1)."""
    service: RecommendationService
    mostread: MostReadItems
    stream: list
    """The workload's seeded request stream; timed traffic starts at
    :data:`WARM_REQUESTS`."""
    warmup: dict = field(default_factory=dict)
    """Per-path call times of the warm-up (µs lists), see :func:`warm_up`."""

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def deploy(
    seed: int,
    root: Path,
    n_models: int,
    stream_kind: str,
    tracer=None,
    metrics=None,
    service_tracer=None,
) -> Deployment:
    """Build one deployment under ``root`` (see the module docstring).

    ``stream_kind`` is ``"zipf"`` or ``"uniform"``. ``service_tracer`` is
    handed to the service (serve-churn hands it none: its requests and
    swaps run on two threads and a tracer keeps one span stack).
    """
    root.mkdir(parents=True, exist_ok=True)
    with start_span(tracer, "bench.setup", seed=seed):
        with start_span(tracer, "bench.corpus_write") as span:
            config = corpus_config()
            corpus = ShardedCorpusWriter(root / "corpus", config).write()
            span.set_attrs(events=config.n_loans + config.n_ratings)
        with start_span(tracer, "bench.merge"):
            merged = merge_sharded_corpus(
                corpus, merge_config(), tracer=tracer, metrics=metrics
            ).dataset
        with start_span(tracer, "bench.split"):
            split = split_readings(merged)
        models = []
        for index in range(n_models):
            with start_span(tracer, "bench.fit", model=index) as span:
                config = BPRConfig(epochs=BRIEF_EPOCHS, seed=model_seed(seed, index))
                model = BPR(config, tracer=tracer, metrics=metrics)
                _, rss = measure_phase_rss(lambda: model.fit(split.train))
                span.set_attrs(rss_delta_bytes=rss.delta_bytes)
                models.append(model)
        store = ModelStore(root / "store", metrics=metrics, tracer=tracer)
        with start_span(tracer, "bench.publish"):
            version = store.publish(models[0], split.train)
        with start_span(tracer, "bench.load"):
            model, train = store.load(version)
        with start_span(tracer, "bench.service_start"):
            mostread = MostReadItems().fit(train)
            service = RecommendationService(
                model, train, merged,
                cold_start_fallback=mostread,
                model_version=version.name,
                tracer=service_tracer,
                metrics=metrics,
            )
        with start_span(tracer, "bench.streams"):
            if stream_kind == "zipf":
                stream = zipf_stream(seed, train.users.ids, STREAM_LENGTH)
            else:
                stream = uniform_stream(seed, train.users.ids, STREAM_LENGTH)
        deployment = Deployment(
            root=root, corpus=corpus, merged=merged, split=split, store=store,
            models=models, service=service, mostread=mostread, stream=stream,
        )
        with start_span(tracer, "bench.warm_up"):
            deployment.warmup = warm_up(service, train, seed, stream[:WARM_REQUESTS])
    return deployment


def warm_up(
    service: RecommendationService,
    train,
    seed: int,
    warm_stream: list[RecommendationRequest],
) -> dict:
    """Exercise every request path once, then fill the cache.

    Single requests for a seeded sample of known users (a miss, then a
    hit), unknown ids (the cold-start link), and batch requests for
    another sample (the coalescing path); then the workload's own stream
    prefix, so timed traffic starts from a warm cache. Returns the call
    times per path in µs: the per-layer single-call timings.
    """
    rng = np.random.default_rng([seed, 97])
    ids = train.users.ids
    sample = rng.choice(len(ids), size=min(2 * WARMUP_USERS, len(ids)), replace=False)
    single = [RecommendationRequest(user_id=str(ids[i]), k=K) for i in sample[: len(sample) // 2]]
    batched = [RecommendationRequest(user_id=str(ids[i]), k=K) for i in sample[len(sample) // 2:]]
    cold = [RecommendationRequest(user_id=f"warmup-new-{i}", k=K) for i in range(20)]
    clock = time.perf_counter
    times: dict[str, list[float]] = {"miss": [], "hit": [], "cold": [], "batch_per_user": []}
    for label, requests in (("miss", single), ("hit", single), ("cold", cold)):
        for request in requests:
            started = clock()
            service.recommend_response(request)
            times[label].append((clock() - started) * 1e6)
    for start in range(0, len(batched), BATCH):
        chunk = batched[start:start + BATCH]
        started = clock()
        service.recommend_many_responses(chunk)
        times["batch_per_user"].append((clock() - started) * 1e6 / len(chunk))
    for start in range(0, len(warm_stream), BATCH):
        service.recommend_many_responses(warm_stream[start:start + BATCH])
    return times

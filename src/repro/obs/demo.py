"""An instrumented end-to-end run over the synthetic world.

This is the observability layer's reference workload: generate the
synthetic sources, run the merge pipeline, fit BPR, evaluate it, and
serve a handful of requests (cache hits, a cold-start user, a batch) —
all through one :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry`.

``python -m repro metrics`` runs it to produce a metrics snapshot and an
optional JSONL trace; ``tests/obs/test_golden.py`` runs it with
``deterministic=True`` (seeded ids + :class:`~repro.obs.trace.TickingClock`)
and pins the outputs against committed goldens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.bpr import BPR, BPRConfig
from repro.core.most_read import MostReadItems
from repro.datasets.synthetic import generate_sources
from repro.datasets.world import WorldConfig
from repro.eval.evaluator import EvaluationResult, fit_and_evaluate
from repro.eval.split import split_readings
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TickingClock, Tracer
from repro.pipeline.merge import MergeConfig, MergeReport, build_merged_dataset
from repro.rng import DEFAULT_SEED

#: The demo's fixed world (mirrors the test suite's tiny world: fast to
#: generate, survives the activity floors below).
DEMO_WORLD = WorldConfig(
    n_books=220, n_authors=90, n_bct_users=90, n_anobii_users=380,
)

DEMO_MERGE = MergeConfig(min_user_readings=10, min_book_readings=5)

DEMO_EPOCHS = 4
DEMO_KS = (5, 20)
DEMO_SERVE_K = 5


@dataclass
class DemoRun:
    """Everything the instrumented demo produced."""

    tracer: Tracer
    metrics: MetricsRegistry
    merge_report: MergeReport
    evaluation: EvaluationResult
    health: dict
    served_by: dict = field(default_factory=dict)
    """``served_by`` tag -> count over the demo's requests."""


def run_instrumented_demo(
    seed: int = DEFAULT_SEED,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    deterministic: bool = False,
) -> DemoRun:
    """Run pipeline → fit → evaluate → serve under full instrumentation.

    Args:
        seed: world/model/tracer seed — the whole run is a function of it.
        tracer: tracer to record into (one is built when omitted).
        metrics: registry to record into (one is built when omitted).
        deterministic: replace the tracer's and the service's clocks with
            :class:`TickingClock`, making every timing field (and thus
            the exported trace and latency-histogram placements) a pure
            function of call order — the golden-test mode.
    """
    # Service-level imports are deferred so ``repro.obs`` never imports
    # ``repro.app`` at module load (the service itself imports obs).
    from repro.app.service import (
        RecommendationRequest,
        RecommendationService,
    )

    if tracer is None:
        if deterministic:
            tracer = Tracer(
                seed=seed,
                clock=TickingClock(start=1_000.0, step=0.001),
                cpu_clock=TickingClock(start=0.0, step=0.0005),
            )
        else:
            tracer = Tracer(seed=seed)
    metrics = metrics if metrics is not None else MetricsRegistry()

    with tracer.span("demo.run", seed=seed):
        world = WorldConfig(
            n_books=DEMO_WORLD.n_books,
            n_authors=DEMO_WORLD.n_authors,
            n_bct_users=DEMO_WORLD.n_bct_users,
            n_anobii_users=DEMO_WORLD.n_anobii_users,
            seed=seed,
        )
        with tracer.span("demo.generate"):
            sources = generate_sources(world)
        merged, merge_report = build_merged_dataset(
            sources.bct, sources.anobii, DEMO_MERGE,
            tracer=tracer, metrics=metrics,
        )
        with tracer.span("demo.split"):
            split = split_readings(merged)

        model = BPR(
            BPRConfig(epochs=DEMO_EPOCHS, seed=seed),
            tracer=tracer, metrics=metrics,
        )
        evaluation = fit_and_evaluate(
            model, split, merged, ks=DEMO_KS,
            tracer=tracer, metrics=metrics,
        )

        most_read = MostReadItems().fit(split.train, merged)
        service = RecommendationService(
            model,
            split.train,
            merged,
            cold_start_fallback=most_read,
            degrade_unknown_users=True,
            metrics=metrics,
            tracer=tracer,
            clock=(
                TickingClock(start=0.0, step=0.0005)
                if deterministic
                else time.monotonic
            ),
        )
        served_by: dict[str, int] = {}
        with tracer.span("demo.serve"):
            users = [str(u) for u in merged.bct_user_ids[:3]]
            requests = [
                RecommendationRequest(user_id=user, k=DEMO_SERVE_K)
                for user in users
            ]
            # Twice each: the second pass answers from the LRU cache.
            for _ in range(2):
                for request in requests:
                    response = service.recommend_response(request)
                    served_by[response.served_by] = (
                        served_by.get(response.served_by, 0) + 1
                    )
            # A cold-start user gets the most-read list, which is not cached.
            response = service.recommend_response(
                RecommendationRequest(user_id="cold-start-user", k=DEMO_SERVE_K)
            )
            served_by[response.served_by] = (
                served_by.get(response.served_by, 0) + 1
            )
            # One batched pass (all cache hits).
            for response in service.recommend_many_responses(requests):
                served_by[response.served_by] = (
                    served_by.get(response.served_by, 0) + 1
                )
        health = service.health()
    return DemoRun(
        tracer=tracer,
        metrics=metrics,
        merge_report=merge_report,
        evaluation=evaluation,
        health=health,
        served_by=served_by,
    )

"""Measure the serving retrieval tiers: recall@k versus latency.

One synthetic catalogue, one fitted BPR model, and the
:class:`~repro.app.service.RecommendationService` driven through each
retrieval configuration (see ``docs/serving.md`` for the operator's
view of the knobs):

- **equivalence** — the bit-compatibility contract of
  ``docs/determinism.md``: IVF with ``probe_cells >= n_cells`` and the
  mmap shard store must both reproduce the exact scorer's lists
  identically, checked list-for-list on sampled users.
- **frontier** — recall@k and seconds/request at a sweep of probe
  widths, each versus the exact tier's latency, so the recall-vs-speed
  trade is a measured curve rather than folklore. The default width's
  point is called out separately (the ``bench-serve`` CI smoke job
  asserts its recall@10 stays >= 0.95).
- **zipf replay** — a seeded Zipf-popularity request stream served in
  batches through the default IVF tier with the shard store and cache
  on: p50/p95/p99 per-request latency, cache hit rate, coalesced group
  counts, and shard residency, i.e. the numbers a capacity plan needs.
- **synthetic scale** — the same index over a large seeded random
  catalogue (where the full GEMM actually dominates a request), probed
  at the default width against exact top-k: the honest demonstration
  that the IVF trade pays off once ``n_items`` is big enough. The bench
  corpus above is deliberately small; its ``speedup_vs_exact`` column
  mostly shows the probing overhead.

Latency numbers are wall-clock and environment-dependent; recall and
the equivalence booleans are deterministic for a given config.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.app.service import (
    RETRIEVAL_IVF,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.bpr import BPR, BPRConfig
from repro.datasets.synthetic import generate_sources
from repro.datasets.world import WorldConfig
from repro.eval.split import split_readings
from repro.perf.timer import Timer
from repro.pipeline.merge import MergeConfig, build_merged_dataset
from repro.resilience.artefacts import atomic_write
from repro.retrieval.ivf import IVFIndex, default_probe_cells, recall_at_k
from repro.retrieval.shards import UserShardStore, write_user_shards
from repro.rng import derive_rng

DEFAULT_OUTPUT = "BENCH_serve.json"


@dataclass(frozen=True)
class ServeBenchConfig:
    """Shape and sweep knobs for the serving bench.

    The default catalogue is sized so the IVF index gets a meaningful
    cell count (~26 cells) while the whole sweep stays under a minute on
    a 2-vCPU host; :meth:`quick` shrinks it for CI smoke runs while
    keeping enough cells that the default probe width is a real subset.
    """

    n_books: int = 1200
    n_authors: int = 300
    n_bct_users: int = 400
    n_anobii_users: int = 1600
    min_user_readings: int = 10
    min_book_readings: int = 5
    seed: int = 20260808
    epochs: int = 6
    k: int = 10
    """List length requested during latency loops and the replay."""
    recall_k: int = 10
    """k for the recall@k measurements."""
    sample_users: int = 128
    """Users sampled for equivalence, recall, and latency loops."""
    probe_widths: "tuple[int, ...] | None" = None
    """Probe widths to sweep (default: derived from the cell count)."""
    n_shards: int = 8
    max_resident: int = 2
    repeats: int = 3
    """Best-of repeats for each latency loop."""
    replay_requests: int = 600
    replay_batch: int = 32
    zipf_exponent: float = 1.1
    cache_size: int = 512
    synthetic_items: int = 50_000
    """Catalogue size for the synthetic large-scale index sweep."""
    synthetic_dim: int = 32
    synthetic_queries: int = 64

    @classmethod
    def quick(cls) -> "ServeBenchConfig":
        """A CI-sized config: smaller world, fewer requests, same gates."""
        return cls(
            n_books=600,
            n_authors=200,
            n_bct_users=200,
            n_anobii_users=800,
            epochs=5,
            sample_users=64,
            repeats=2,
            replay_requests=200,
            synthetic_items=20_000,
            synthetic_queries=32,
        )


def run_serve_bench(
    config: ServeBenchConfig | None = None,
    output_path: "str | Path | None" = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the serving bench and (optionally) write ``BENCH_serve.json``.

    Returns the report dict; see the module docstring for its sections.
    """
    config = config or ServeBenchConfig()
    report: dict[str, Any] = {
        "bench": "serve",
        "config": asdict(config),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }

    with Timer("dataset build") as build_timer:
        world = WorldConfig(
            n_books=config.n_books,
            n_authors=config.n_authors,
            n_bct_users=config.n_bct_users,
            n_anobii_users=config.n_anobii_users,
            seed=config.seed,
        )
        sources = generate_sources(world)
        merged, _ = build_merged_dataset(
            sources.bct,
            sources.anobii,
            MergeConfig(
                min_user_readings=config.min_user_readings,
                min_book_readings=config.min_book_readings,
            ),
        )
        split = split_readings(merged)
        model = BPR(
            BPRConfig(epochs=config.epochs, seed=config.seed)
        ).fit(split.train, merged)
    train = split.train
    report["dataset"] = {
        "books": merged.books.num_rows,
        "n_users": int(train.n_users),
        "n_items": int(train.n_items),
        "build_seconds": build_timer.seconds,
    }

    rng = derive_rng(config.seed, "perf", "servebench", "users")
    sample = np.sort(
        rng.choice(
            train.n_users,
            size=min(config.sample_users, train.n_users),
            replace=False,
        )
    )
    user_ids = [str(train.users.id_of(int(index))) for index in sample]

    def make_service(
        cache_size: int = 0, **kwargs: Any
    ) -> RecommendationService:
        return RecommendationService(
            model, train, merged, seed=config.seed, cache_size=cache_size,
            **kwargs,
        )

    exact = make_service()
    exact_lists = _serve_lists(exact, user_ids, config.k)

    with tempfile.TemporaryDirectory(prefix="servebench-shards-") as tmp:
        store_root = write_user_shards(
            Path(tmp) / "user-shards",
            model.user_factors,
            n_shards=config.n_shards,
        )

        # -- equivalence: probe-all IVF and the shard store vs exact ----
        probe_all = make_service(
            retrieval=RETRIEVAL_IVF, probe_cells=train.n_items
        )
        sharded = make_service(
            user_shards=UserShardStore(
                store_root, max_resident=config.max_resident
            )
        )
        report["equivalence"] = {
            "users_checked": len(user_ids),
            "ivf_probe_all_bit_identical": (
                _serve_lists(probe_all, user_ids, config.k) == exact_lists
            ),
            "shard_store_bit_identical": (
                _serve_lists(sharded, user_ids, config.k) == exact_lists
            ),
        }

        # -- frontier: recall@k vs seconds/request across probe widths --
        exact_spr = _seconds_per_request(
            exact, user_ids, config.k, config.repeats
        )
        report["exact"] = {"seconds_per_request": exact_spr}
        n_cells = probe_all.health()["retrieval"]["cells"]
        default_probe = default_probe_cells(n_cells)
        widths = config.probe_widths or _derived_widths(n_cells)
        frontier = []
        for width in widths:
            service = make_service(
                retrieval=RETRIEVAL_IVF, probe_cells=width
            )
            recall = service.measure_retrieval_recall(
                k=config.recall_k, sample_users=config.sample_users
            )
            spr = _seconds_per_request(
                service, user_ids, config.k, config.repeats
            )
            point = {
                "probe_cells": int(width),
                "recall_at_k": recall,
                "seconds_per_request": spr,
                "speedup_vs_exact": exact_spr / spr if spr > 0 else None,
                "mean_candidates": _mean_candidates(service),
            }
            frontier.append(point)
            if width == default_probe:
                report["default"] = dict(point, n_cells=int(n_cells))
        report["frontier"] = frontier

        # -- zipf replay: batched, cached, shard-backed serving ---------
        replay = make_service(
            cache_size=config.cache_size,
            retrieval=RETRIEVAL_IVF,
            user_shards=UserShardStore(
                store_root, max_resident=config.max_resident
            ),
        )
        report["zipf_replay"] = _zipf_replay(replay, train, config)

    report["synthetic_scale"] = _synthetic_scale(config)

    if output_path is not None:
        path = Path(output_path)
        with atomic_write(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report, indent=2) + "\n")
        report["output_path"] = str(path)
    return report


def render_serve_report(report: dict) -> str:
    """A human-readable summary of a serving bench report."""
    dataset = report["dataset"]
    equivalence = report["equivalence"]
    lines = [
        "serve bench "
        f"({dataset['n_users']} users x {dataset['n_items']} items, "
        f"k={report['config']['k']})",
        "  exact tier  "
        f"{report['exact']['seconds_per_request'] * 1e3:8.3f} ms/request, "
        "probe-all "
        + (
            "bit-identical"
            if equivalence["ivf_probe_all_bit_identical"]
            else "MISMATCH"
        )
        + ", shard store "
        + (
            "bit-identical"
            if equivalence["shard_store_bit_identical"]
            else "MISMATCH"
        ),
    ]
    for point in report["frontier"]:
        marker = (
            "  <- default"
            if point["probe_cells"] == report["default"]["probe_cells"]
            else ""
        )
        lines.append(
            f"  probe {point['probe_cells']:3d}  "
            f"recall@{report['config']['recall_k']} "
            f"{point['recall_at_k']:.4f}  "
            f"{point['seconds_per_request'] * 1e3:8.3f} ms/request "
            f"({point['speedup_vs_exact']:.2f}x vs exact){marker}"
        )
    synthetic = report["synthetic_scale"]
    lines.append(
        f"  synthetic {synthetic['n_items']} items "
        f"({synthetic['n_cells']} cells, exact "
        f"{synthetic['exact_seconds_per_query'] * 1e3:.3f} ms/query):"
    )
    for point in synthetic["frontier"]:
        marker = (
            "  <- default"
            if point["probe_cells"] == synthetic["probe_cells"]
            else ""
        )
        lines.append(
            f"    probe {point['probe_cells']:3d}  "
            f"recall@{report['config']['recall_k']} "
            f"{point['recall_at_k']:.4f}  "
            f"{point['seconds_per_query'] * 1e3:8.3f} ms/query "
            f"({point['speedup_vs_exact']:.2f}x vs exact){marker}"
        )
    replay = report["zipf_replay"]
    lines.append(
        f"  zipf replay {replay['requests']} requests: "
        f"p50 {replay['latency']['p50'] * 1e3:.3f} ms, "
        f"p95 {replay['latency']['p95'] * 1e3:.3f} ms, "
        f"p99 {replay['latency']['p99'] * 1e3:.3f} ms, "
        f"cache hit rate {replay['cache_hit_rate']:.2f}, "
        f"{replay['shards']['resident']}/{replay['shards']['n_shards']} "
        "shards resident"
    )
    if "output_path" in report:
        lines.append(f"  written to {report['output_path']}")
    return "\n".join(lines)


def _derived_widths(n_cells: int) -> tuple[int, ...]:
    """The default probe sweep: octave steps plus the default and all."""
    candidates = {
        1,
        max(1, n_cells // 8),
        max(1, n_cells // 4),
        max(1, n_cells // 3),
        default_probe_cells(n_cells),
        n_cells,
    }
    return tuple(sorted(candidates))


def _serve_lists(
    service: RecommendationService, user_ids: list[str], k: int
) -> list[list[int]]:
    """Each user's served book-id list (the bit-identity comparand)."""
    return [
        [
            book.book_id
            for book in service.recommend(
                RecommendationRequest(user_id=user_id, k=k)
            )
        ]
        for user_id in user_ids
    ]


def _seconds_per_request(
    service: RecommendationService,
    user_ids: list[str],
    k: int,
    repeats: int,
) -> float:
    """Best-of-``repeats`` mean seconds per single (uncached) request."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        with Timer("request loop") as timer:
            for user_id in user_ids:
                service.recommend_response(
                    RecommendationRequest(user_id=user_id, k=k)
                )
        best = min(best, timer.seconds)
    return best / len(user_ids)


def _mean_candidates(service: RecommendationService) -> "float | None":
    """Mean IVF candidates per scored request, from the service counters."""
    counters = service.metrics_snapshot()["counters"]
    candidates = counters.get("service.retrieval.candidates", {}).get(
        "value", 0.0
    )
    scored = (
        counters.get("service.retrieval.requests", {})
        .get("labels", {})
        .get(f"tier={RETRIEVAL_IVF}", 0.0)
    )
    return candidates / scored if scored else None


def _synthetic_scale(config: ServeBenchConfig) -> dict[str, Any]:
    """Exact vs default-probe IVF over a large seeded random catalogue."""
    rng = derive_rng(config.seed, "perf", "servebench", "synthetic")
    vectors = rng.normal(size=(config.synthetic_items, config.synthetic_dim))
    with Timer("synthetic build") as build_timer:
        index = IVFIndex.build(vectors, seed=config.seed)
    probe = default_probe_cells(index.n_cells)
    queries = rng.normal(size=(config.synthetic_queries, config.synthetic_dim))

    def per_query(run: "Any") -> float:
        best = float("inf")
        for _ in range(max(config.repeats, 1)):
            with Timer("query loop") as timer:
                for query in queries:
                    run(query)
            best = min(best, timer.seconds)
        return best / len(queries)

    exact_spq = per_query(lambda q: index.exact_top_k(q, config.recall_k))
    frontier = []
    for width in sorted({max(1, probe // 4), max(1, probe // 2), probe}):
        spq = per_query(
            lambda q, w=width: index.search(q, config.recall_k, probe_cells=w)
        )
        frontier.append({
            "probe_cells": int(width),
            "recall_at_k": recall_at_k(
                index, queries, config.recall_k, probe_cells=width
            ),
            "seconds_per_query": spq,
            "speedup_vs_exact": exact_spq / spq if spq > 0 else None,
        })
    default = frontier[-1]
    return {
        "n_items": config.synthetic_items,
        "dim": config.synthetic_dim,
        "queries": config.synthetic_queries,
        "n_cells": int(index.n_cells),
        "probe_cells": int(probe),
        "build_seconds": build_timer.seconds,
        "recall_at_k": default["recall_at_k"],
        "exact_seconds_per_query": exact_spq,
        "ivf_seconds_per_query": default["seconds_per_query"],
        "speedup_vs_exact": default["speedup_vs_exact"],
        "frontier": frontier,
    }


def _zipf_replay(
    service: RecommendationService, train, config: ServeBenchConfig
) -> dict[str, Any]:
    """Serve a seeded Zipf-popularity stream in coalesced batches."""
    rng = derive_rng(config.seed, "perf", "servebench", "zipf")
    n_users = train.n_users
    ranks = rng.permutation(n_users)
    weights = 1.0 / np.arange(1, n_users + 1) ** config.zipf_exponent
    probabilities = np.empty(n_users)
    probabilities[ranks] = weights / weights.sum()
    draws = rng.choice(n_users, size=config.replay_requests, p=probabilities)
    user_ids = [str(train.users.id_of(int(index))) for index in draws]
    with Timer("zipf replay") as timer:
        for start in range(0, len(user_ids), config.replay_batch):
            batch = user_ids[start:start + config.replay_batch]
            service.recommend_many(
                [
                    RecommendationRequest(user_id=user_id, k=config.k)
                    for user_id in batch
                ]
            )
    stats = service.stats
    counters = service.metrics_snapshot()["counters"]
    groups = sum(
        counters.get("service.retrieval.groups", {})
        .get("labels", {})
        .values()
    )
    return {
        "requests": config.replay_requests,
        "batch": config.replay_batch,
        "exponent": config.zipf_exponent,
        "seconds": timer.seconds,
        "throughput_rps": (
            config.replay_requests / timer.seconds if timer.seconds else None
        ),
        "latency": {
            "mean_seconds": stats.mean_seconds,
            "p50": stats.percentile(0.50),
            "p95": stats.percentile(0.95),
            "p99": stats.percentile(0.99),
        },
        "cache_hit_rate": stats.cache_hit_rate,
        "coalesced_groups": groups,
        "distinct_users": int(len(np.unique(draws))),
        "shards": service.user_shards.stats(),
    }

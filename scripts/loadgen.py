#!/usr/bin/env python
"""Concurrent load generator for the :class:`RecommendationService`.

Builds the demo world (the same fixture ``python -m repro metrics`` uses),
fits BPR, stands up one shared service instance, and hammers it from N
threads at once. Every thread draws a seeded stream of user ids — mostly
known users, a slice of cold-start ones — so the run exercises the cache,
the primary scoring path, and the degradation chain under real contention.

When the storm settles the script audits the shared accounting: the
request counter, the cache hit/miss tally, and the latency histogram
(the single source behind ``ServiceStats.percentile`` and ``health()``)
must all equal the number of requests issued — a lost increment anywhere
fails the run. The cache must hold no more lists than the distinct known
ids issued: an unknown id's cold-start list takes no slot. It then
prints throughput and p50/p95/p99 latency and exits non-zero if any
request errored.

Usage::

    python scripts/loadgen.py [--threads 8] [--requests 2000] [--seed 0]
    python scripts/loadgen.py --zipf 1.1

``--zipf S`` draws users from a seeded Zipf popularity distribution
(p ∝ 1/rank^S) instead of uniformly, so the cache sees realistic
head/tail skew.
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.app.service import (  # noqa: E402
    RecommendationRequest,
    RecommendationService,
)
from repro.core.bpr import BPR, BPRConfig  # noqa: E402
from repro.core.most_read import MostReadItems  # noqa: E402
from repro.datasets.synthetic import generate_sources  # noqa: E402
from repro.datasets.world import WorldConfig  # noqa: E402
from repro.eval.split import split_readings  # noqa: E402
from repro.obs.demo import DEMO_EPOCHS, DEMO_MERGE, DEMO_WORLD  # noqa: E402
from repro.pipeline.merge import build_merged_dataset  # noqa: E402
from repro.rng import derive_rng, make_rng  # noqa: E402

#: One in this many requests targets an unknown (cold-start) user.
COLD_START_EVERY = 10


def build_service(seed: int, cache_size: int) -> RecommendationService:
    """Stand up a demo-world service (mirrors ``repro.obs.demo``)."""
    world = WorldConfig(
        n_books=DEMO_WORLD.n_books,
        n_authors=DEMO_WORLD.n_authors,
        n_bct_users=DEMO_WORLD.n_bct_users,
        n_anobii_users=DEMO_WORLD.n_anobii_users,
        seed=seed,
    )
    sources = generate_sources(world)
    merged, _ = build_merged_dataset(sources.bct, sources.anobii, DEMO_MERGE)
    split = split_readings(merged)
    model = BPR(BPRConfig(epochs=DEMO_EPOCHS, seed=seed)).fit(split.train)
    most_read = MostReadItems().fit(split.train, merged)
    return RecommendationService(
        model,
        split.train,
        merged,
        cold_start_fallback=most_read,
        cache_size=cache_size,
        degrade_unknown_users=True,
    )


def run_load(
    service: RecommendationService,
    threads: int,
    requests: int,
    k: int,
    seed: int,
    zipf: float | None = None,
) -> dict:
    """Fire ``requests`` requests from ``threads`` threads; return a report.

    Each worker thread gets its own seeded stream
    (``make_rng(seed + thread index)``) and an equal share of the
    request budget, so a run is reproducible up to scheduling order —
    which is exactly the order the shared accounting must be indifferent
    to. With ``zipf`` set, user draws follow a Zipf popularity law over
    a seeded rank permutation (p ∝ 1/rank^zipf) instead of the uniform
    default.
    """
    users = [str(user) for user in service.train.users.ids]
    cum_weights: list[float] | None = None
    if zipf is not None:
        ranks = derive_rng(seed, "loadgen", "ranks").permutation(len(users))
        users = [users[index] for index in ranks]
        total = 0.0
        cum_weights = []
        for rank in range(1, len(users) + 1):
            total += 1.0 / rank ** zipf
            cum_weights.append(total)
    per_thread = [requests // threads] * threads
    for index in range(requests % threads):
        per_thread[index] += 1
    errors: list[str] = []
    errors_lock = threading.Lock()
    known_issued: list[set[str]] = [set() for _ in per_thread]

    def worker(thread_index: int, budget: int) -> None:
        rng = make_rng(seed + thread_index)
        known = known_issued[thread_index]
        for shot in range(budget):
            if shot % COLD_START_EVERY == COLD_START_EVERY - 1:
                user_id = f"cold-start-{thread_index}-{shot}"
            elif cum_weights is not None:
                draw = rng.random() * cum_weights[-1]
                rank = bisect.bisect(cum_weights, draw, 0, len(users) - 1)
                user_id = users[rank]
                known.add(user_id)
            else:
                user_id = users[int(rng.integers(len(users)))]
                known.add(user_id)
            try:
                response = service.recommend_response(
                    RecommendationRequest(user_id=user_id, k=k)
                )
            except Exception as exc:  # noqa: BLE001 — the run must audit all
                with errors_lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if not response.books:
                with errors_lock:
                    errors.append(
                        f"empty response for {user_id!r} "
                        f"(served_by={response.served_by})"
                    )

    pool = [
        threading.Thread(target=worker, args=(index, budget))
        for index, budget in enumerate(per_thread)
    ]
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started

    stats = service.stats
    audit_failures = []
    if stats.requests != requests:
        audit_failures.append(
            f"request counter {stats.requests} != issued {requests}"
        )
    if stats.cache_hits + stats.cache_misses != requests:
        audit_failures.append(
            f"cache tally {stats.cache_hits}+{stats.cache_misses} "
            f"!= issued {requests}"
        )
    observed = stats.histogram.count
    if observed != requests:
        audit_failures.append(
            f"histogram observations {observed} != issued {requests}"
        )
    distinct_known = len(set().union(*known_issued))
    if service.cached_entries > distinct_known:
        audit_failures.append(
            f"cache holds {service.cached_entries} lists for "
            f"{distinct_known} distinct known ids issued"
        )
    return {
        "threads": threads,
        "requests": requests,
        "k": k,
        "zipf": zipf,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(requests / elapsed, 1) if elapsed else None,
        "latency": {
            "mean_seconds": round(stats.mean_seconds, 6),
            "p50": round(stats.percentile(0.50), 6),
            "p95": round(stats.percentile(0.95), 6),
            "p99": round(stats.percentile(0.99), 6),
        },
        "cache_hit_rate": round(stats.cache_hit_rate, 4),
        "distinct_known_ids": distinct_known,
        "degradations": dict(stats.degradations),
        "errors": len(errors),
        "error_samples": errors[:5],
        "audit_failures": audit_failures,
        "health": service.health(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive the recommendation service from many threads."
    )
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--requests", type=int, default=2000,
                        help="total requests across all threads")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--zipf", type=float, default=None, metavar="S",
                        help="draw users Zipf-distributed with exponent S "
                        "instead of uniformly")
    args = parser.parse_args(argv)
    if args.threads < 1 or args.requests < 1:
        parser.error("--threads and --requests must be >= 1")
    if args.zipf is not None and args.zipf <= 0:
        parser.error("--zipf must be > 0")

    print(f"building demo-world service (seed={args.seed}) ...", flush=True)
    service = build_service(args.seed, args.cache_size)
    print(
        f"firing {args.requests} requests from {args.threads} threads ...",
        flush=True,
    )
    report = run_load(
        service, args.threads, args.requests, args.k, args.seed,
        zipf=args.zipf,
    )
    print(json.dumps(report, indent=2))
    if report["audit_failures"]:
        print("ACCOUNTING AUDIT FAILED:", *report["audit_failures"],
              sep="\n  ", file=sys.stderr)
        return 1
    if report["errors"]:
        print(f"{report['errors']} request(s) errored", file=sys.stderr)
        return 1
    print(
        f"OK: {args.requests} requests, 0 errors, "
        f"p99={report['latency']['p99']}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

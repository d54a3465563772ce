"""Per-layer metrics of a traced run, derived from spans and counters.

Layers are named by the program's modules. Timings come from the spans
the benchmark opens around every call into a layer and from the spans
the program itself records once handed a tracer; counts come from the
program's metrics registry and from the benchmark's response checks.

Where a layer does not run inside a workload's timed region (the
pipeline on serve-churn, say), its numbers come from the kept set-up, which
runs every layer. Request-path timings come from the traced traffic
slices; single-call timings (hit, miss, cold start) come from the
set-up warm-up, since timed traffic is batched. ``README.md`` lists
which end-to-end metric each one should move.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.common import median, nesting_errors, percentile, self_times, span_records
from perfbench.params import BATCH, K

#: Pipeline stages whose self time is reported (children of the merge span).
PIPELINE_STAGES = (
    "quarantine", "cleaning", "genres", "match", "readings",
    "activity_filter", "emit",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("corpus.write_s", "s", "lower"),
    ("corpus.events", "count", "higher"),
    ("pipeline.merge_s", "s", "lower"),
    ("pipeline.events_per_s", "1/s", "higher"),
    ("pipeline.kept_ratio", "ratio", "higher"),
    *((f"pipeline.{stage}.self_s", "s", "lower") for stage in PIPELINE_STAGES),
    ("split.split_s", "s", "lower"),
    ("split.readings_per_s", "1/s", "higher"),
    ("bpr.fit_s", "s", "lower"),
    ("bpr.pairs_per_s", "1/s", "higher"),
    ("bpr.epoch_s.p50", "s", "lower"),
    ("bpr.updated_fraction", "ratio", "higher"),
    ("bpr.mean_violation_trials", "count", "lower"),
    ("bpr.rss_delta_mb", "MB", "lower"),
    ("eval.evaluate_s", "s", "lower"),
    ("eval.users_per_s", "1/s", "higher"),
    ("lifecycle.load_s", "s", "lower"),
    ("lifecycle.publish_s", "s", "lower"),
    ("lifecycle.bytes_written", "bytes", "lower"),
    ("lifecycle.gc_s", "s", "lower"),
    ("service.refresh_s", "s", "lower"),
    ("swap.swap_s", "s", "lower"),
    ("swap.wait_s", "s", "lower"),
    ("service.refresh_failed", "count", "lower"),
    ("service.hit_us.p50", "us", "lower"),
    ("service.hit_us.p99", "us", "lower"),
    ("service.miss_us.p50", "us", "lower"),
    ("service.miss_us.p99", "us", "lower"),
    ("service.cold_us.p50", "us", "lower"),
    ("service.cold_us.p99", "us", "lower"),
    ("service.batch_us_per_user", "us", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.group_size", "count", "higher"),
    ("service.degraded", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("service.version_mismatches", "count", "lower"),
    ("service.retrieval.exact", "count", "higher"),
    ("service.retrieval.ivf", "count", "lower"),
    ("parallel.merge_workers", "count", "lower"),
    ("parallel.bpr_workers", "count", "lower"),
    ("core.recommend_us", "us", "lower"),
    ("core.recommend_batch_us_per_user", "us", "lower"),
    ("service.overhead_us", "us", "lower"),
    ("gen.p50_ms.low", "ms", "lower"),
    ("gen.p50_ms.high", "ms", "lower"),
    ("gen.p99_ms.low", "ms", "lower"),
    ("gen.p99_ms.high", "ms", "lower"),
    ("gen.capacity_rps", "req/s", "higher"),
    ("gen.lag_ms.low", "ms", "lower"),
    ("gen.lag_ms.high", "ms", "lower"),
    ("queue_wait_ms.low", "ms", "lower"),
    ("queue_wait_ms.high", "ms", "lower"),
    ("trace.overhead.setup_s", "ratio", "lower"),
    ("trace.overhead.refresh_s", "ratio", "lower"),
    ("trace.overhead.swap_s", "ratio", "lower"),
    ("trace.overhead.p50_ms.high", "ratio", "lower"),
    ("trace.overhead.capacity_rps", "ratio", "lower"),
    ("trace.layer_coverage", "ratio", "higher"),
)

#: Users replayed through the model's own scoring for the ``core.*`` metrics.
REPLAY_USERS = 400


class _Spans:
    """Lookups over one run's finished span records."""

    def __init__(self, records: list[dict]) -> None:
        self.records = records
        self.self_s = self_times(records)
        self.children: dict[str, list[dict]] = {}
        for record in records:
            self.children.setdefault(record["parent_id"], []).append(record)
        self.by_id = {record["span_id"]: record for record in records}

    def named(self, name: str) -> list[dict]:
        return [record for record in self.records if record["name"] == name]

    def last(self, name: str) -> dict | None:
        found = self.named(name)
        return found[-1] if found else None

    def child(self, parent: dict, name: str) -> dict | None:
        for record in self.children.get(parent["span_id"], []):
            if record["name"] == name:
                return record
        return None


def _seconds(record: dict | None) -> float:
    if record is None:
        return float("nan")
    return record["end"] - record["start"]


def _pooled(traffic, attribute: str) -> list:
    """``attribute`` of every traced phase's samples, concatenated."""
    values: list = []
    for key, samples in traffic.phases.items():
        if key.endswith(".traced"):
            values.extend(getattr(samples, attribute))
    return values


def _ratio_overhead(traced: float, untraced: float) -> float:
    if not untraced or np.isnan(traced) or np.isnan(untraced):
        return float("nan")
    return traced / untraced - 1.0


def _replay(model, users: list[int]) -> tuple[float, float]:
    """The model's own ``recommend``/``recommend_batch`` on served misses."""
    users = users[:REPLAY_USERS]
    singles = []
    for user in users:
        started = time.perf_counter()
        model.recommend(int(user), K)
        singles.append((time.perf_counter() - started) * 1e6)
    per_user = []
    for start in range(0, len(users), BATCH):
        chunk = np.asarray(users[start:start + BATCH], dtype=np.int64)
        started = time.perf_counter()
        model.recommend_batch(chunk, K)
        per_user.append((time.perf_counter() - started) * 1e6 / len(chunk))
    return median(singles), median(per_user)


def per_layer(context, setup_s: list[float], quality: dict) -> dict:
    """Every metric of :data:`PER_LAYER` for one traced run."""
    tracing = context["tracing"]
    traffic = context["traffic"]
    swapper = context["swapper"]
    checker = context["checker"]
    deployment = context["deployment"]
    service = deployment.service
    spans = _Spans(span_records(tracing.tracers()))
    values: dict[str, float] = {}

    write = spans.last("bench.corpus_write")
    values["corpus.write_s"] = _seconds(write)
    events = float(write["attrs"].get("events", 0)) if write else float("nan")
    values["corpus.events"] = events

    merge = spans.last("pipeline.merge_streaming")
    merge_s = _seconds(merge)
    readings = deployment.merged.readings.num_rows
    values["pipeline.merge_s"] = merge_s
    values["pipeline.events_per_s"] = events / merge_s
    values["pipeline.kept_ratio"] = readings / events
    for stage in PIPELINE_STAGES:
        record = spans.child(merge, f"pipeline.{stage}") if merge else None
        values[f"pipeline.{stage}.self_s"] = (
            spans.self_s[record["span_id"]] if record else float("nan")
        )

    split_s = _seconds(spans.last("bench.split"))
    values["split.split_s"] = split_s
    values["split.readings_per_s"] = readings / split_s

    fit = spans.last("bpr.fit")
    fit_s = _seconds(fit)
    epochs = [r for r in spans.children.get(fit["span_id"], []) if r["name"] == "bpr.epoch"] if fit else []
    values["bpr.fit_s"] = fit_s
    values["bpr.pairs_per_s"] = (
        fit["attrs"]["n_pairs"] * len(epochs) / fit_s if fit else float("nan")
    )
    values["bpr.epoch_s.p50"] = median([_seconds(r) for r in epochs])
    values["bpr.updated_fraction"] = epochs[-1]["attrs"]["updated_fraction"] if epochs else float("nan")
    values["bpr.mean_violation_trials"] = (
        epochs[-1]["attrs"]["mean_violation_trials"] if epochs else float("nan")
    )
    bench_fit = spans.by_id.get(fit["parent_id"]) if fit else None
    values["bpr.rss_delta_mb"] = (
        bench_fit["attrs"].get("rss_delta_bytes", float("nan")) / 1e6 if bench_fit else float("nan")
    )

    evaluations = spans.named("eval.evaluate")[-2:]
    evaluate_s = sum(_seconds(r) for r in evaluations)
    values["eval.evaluate_s"] = evaluate_s
    values["eval.users_per_s"] = sum(r["attrs"]["users"] for r in evaluations) / evaluate_s

    values["lifecycle.load_s"] = median([_seconds(r) for r in spans.named("lifecycle.load")])
    values["lifecycle.publish_s"] = median([_seconds(r) for r in spans.named("lifecycle.publish")])
    records = swapper.records
    values["lifecycle.bytes_written"] = median([r["bytes"] for r in records])
    values["lifecycle.gc_s"] = median([r["gc_s"] for r in records])
    values["service.refresh_s"] = median([r["refresh_s"] for r in records])
    values["swap.swap_s"] = median([r["swap_s"] for r in records])
    values["swap.wait_s"] = median([r["wait_s"] for r in records])
    values["service.refresh_failed"] = float(service.stats.refresh_failed)

    warmup = deployment.warmup
    for label in ("hit", "miss", "cold"):
        calls = warmup[label]
        values[f"service.{label}_us.p50"] = percentile(calls, 50)
        values[f"service.{label}_us.p99"] = percentile(calls, 99)
    values["service.batch_us_per_user"] = median(_pooled(traffic, "batch_us_per_user"))
    values["service.cache_hit_ratio"] = checker.hits / checker.lookups
    values["service.group_size"] = float(np.mean(_pooled(traffic, "group_sizes")))
    values["service.degraded"] = float(service.stats.degraded_requests)
    values["service.errors"] = float(service.stats.errors)
    values["service.version_mismatches"] = float(checker.mismatches)
    tiers = service.metrics.snapshot()["counters"].get("service.retrieval.requests", {}).get("labels", {})
    values["service.retrieval.exact"] = float(tiers.get("tier=exact", 0.0))
    values["service.retrieval.ivf"] = float(tiers.get("tier=ivf", 0.0))
    values["parallel.merge_workers"] = float(merge["attrs"].get("n_jobs", 1)) if merge else float("nan")
    values["parallel.bpr_workers"] = float(fit["attrs"].get("workers", 1)) if fit else float("nan")

    missed = _pooled(traffic, "missed")
    if not missed:
        rng = np.random.default_rng(context["seed"])
        missed = rng.integers(0, deployment.split.train.n_users, size=REPLAY_USERS).tolist()
    recommend_us, batch_per_user = _replay(service.model, missed)
    values["core.recommend_us"] = recommend_us
    values["core.recommend_batch_us_per_user"] = batch_per_user
    values["service.overhead_us"] = values["service.miss_us.p50"] - recommend_us

    values["gen.capacity_rps"] = traffic.samples("sat.traced").capacity_rps()
    for rate in ("low", "high"):
        values[f"gen.p50_ms.{rate}"] = traffic.samples(f"{rate}.traced").p50_ms()
    for rate in ("low", "high"):
        samples = traffic.samples(f"{rate}.traced")
        values[f"gen.p99_ms.{rate}"] = samples.p99_ms()
        values[f"gen.lag_ms.{rate}"] = percentile(samples.lag_ms, 99)
        values[f"queue_wait_ms.{rate}"] = percentile(samples.queue_ms, 99)

    values.update(_overheads(context, spans, setup_s))
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def _overheads(context, spans: _Spans, setup_s: list[float]) -> dict:
    """Traced ÷ untraced − 1 on interleaved units of the same run.

    The units: set-ups (the last is traced), swaps and traffic rounds
    (every other one is traced), and rebuilds on refresh (the last is
    traced) or scheduled swaps' publish → first response on serve-churn.
    """
    traffic = context["traffic"]
    swapper = context["swapper"]
    out: dict[str, float] = {}
    out["trace.overhead.setup_s"] = _ratio_overhead(setup_s[-1], median(setup_s[:-1]))

    swaps = {
        flag: [r for r in swapper.records if r["traced"] == flag] for flag in (True, False)
    }
    out["trace.overhead.swap_s"] = _ratio_overhead(
        median([r["swap_s"] for r in swaps[True]]), median([r["swap_s"] for r in swaps[False]])
    )
    cycles = context["cycles"]
    if cycles:
        out["trace.overhead.refresh_s"] = _ratio_overhead(
            median([c["refresh_s"] for c in cycles if c["traced"]]),
            median([c["refresh_s"] for c in cycles if not c["traced"]]),
        )
    else:
        seen = traffic.first_seen
        lag = {
            flag: [seen[r["version"]] - r["start"] for r in swaps[flag] if r["version"] in seen]
            for flag in (True, False)
        }
        out["trace.overhead.refresh_s"] = _ratio_overhead(median(lag[True]), median(lag[False]))

    high, high_traced = traffic.samples("high"), traffic.samples("high.traced")
    out["trace.overhead.p50_ms.high"] = _ratio_overhead(high_traced.p50_ms(), high.p50_ms())
    out["trace.overhead.capacity_rps"] = _ratio_overhead(
        traffic.samples("sat").capacity_rps(), traffic.samples("sat.traced").capacity_rps()
    )
    root = spans.last("bench.refresh") or spans.last("bench.setup")
    out["trace.layer_coverage"] = (
        1.0 - spans.self_s[root["span_id"]] / _seconds(root) if root else float("nan")
    )
    return out


def trace_summary(context) -> dict:
    """Span count, nesting check and the heaviest spans by self time."""
    records = span_records(context["tracing"].tracers())
    spans = _Spans(records)
    totals: dict[str, list[float]] = {}
    for record in records:
        entry = totals.setdefault(record["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += _seconds(record)
        entry[2] += spans.self_s[record["span_id"]]
    heaviest = sorted(totals.items(), key=lambda item: -item[1][2])[:25]
    return {
        "spans": len(records),
        "nesting_errors": nesting_errors(records)[:10],
        "stages": [
            {"name": name, "calls": int(calls), "wall_s": wall, "self_s": own}
            for name, (calls, wall, own) in heaviest
        ],
    }

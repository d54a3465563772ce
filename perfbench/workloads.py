"""The workloads and the metrics they report.

Every run has the same shape: :data:`SETUP_REPEATS` full set-ups (the last
one is kept; ``setup_s`` is their median), a timed region, then checks. What the timed region does is
what tells the workloads apart:

- ``refresh`` — read-mostly patron traffic (``recommend_many_responses``
  batches of Zipf ids plus unknown ids, in low / high / saturation
  slices) around nightly rebuilds: merge → split → load ``CURRENT`` →
  warm-started ``BPR.fit`` (default ``BPRConfig``) → evaluate on val and
  test → publish → ``refresh_from_store`` → one request answered by the
  new version; after each, idle hot swaps of the refreshed model.
- ``serve-churn`` — uniform ids in ``recommend_many_responses`` batches,
  while a second thread publishes and hot-swaps the other set-up model at
  the start of every slice.

Every workload reports every end-to-end metric; which part of the run
each one measures is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.app.service import RecommendationRequest
from repro.core.bpr import BPR, BPRConfig
from repro.core.most_read import MostReadItems
from repro.eval.evaluator import evaluate_model
from repro.eval.split import split_readings
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.perf.rss import current_rss_bytes, measure_phase_rss, reset_peak_rss, vm_hwm_bytes
from repro.pipeline.streaming import merge_sharded_corpus

from perfbench import layers
from perfbench.common import (
    interquartile_mean, median, percentile, release_free_memory, span_records,
)
from perfbench.deploy import WARM_REQUESTS, deploy, merge_config
from perfbench.params import (
    BATCH, CHURN_RATES, IDLE_SWAPS, K, P99_LIMIT_MS, PATRON_ROUNDS, REFRESH_CYCLES,
    SETUP_REPEATS, SLICE_SECONDS, ZIPF_RATES,
)
from perfbench.swaps import Swapper
from perfbench.traffic import Checker, Traffic, expected_lists

#: Finished spans a tracer keeps (a traced run stays well below this).
MAX_SPANS = 1_000_000


class Tracing:
    """The traced run's tracers and registry (all ``None`` when untraced)."""

    def __init__(self, enabled: bool, seed: int) -> None:
        self.enabled = enabled
        self.main = Tracer(seed=seed, max_spans=MAX_SPANS) if enabled else None
        self.swap = Tracer(seed=seed + 1, max_spans=MAX_SPANS) if enabled else None
        self.metrics = MetricsRegistry() if enabled else None

    def tracers(self) -> list:
        return [tracer for tracer in (self.main, self.swap) if tracer is not None]


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    """Run one workload; returns the result (see :func:`perfbench.run.main`)."""
    churn = name == "serve-churn"
    tracing = Tracing(trace, seed)

    # ------------------------------------------------------------------ setup
    setup_s: list[float] = []
    deployment = None
    for index in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None
        gc.collect()
        traced = trace and index == SETUP_REPEATS - 1
        tracer = tracing.main if traced else None
        started = time.perf_counter()
        deployment = deploy(
            seed, workdir / f"setup-{index}",
            n_models=2 if churn else 1,
            stream_kind="uniform" if churn else "zipf",
            tracer=tracer,
            metrics=tracing.metrics if traced else None,
            service_tracer=None if churn else tracer,
        )
        setup_s.append(time.perf_counter() - started)

    service = deployment.service
    train = deployment.split.train
    models = {"A": deployment.models[0]}
    if churn:
        models["B"] = deployment.models[1]
    version_model = {service.model_version: "A"}
    item_ids = np.asarray(train.items.ids, dtype=np.int64)
    checker = Checker(
        user_index={user: index for index, user in enumerate(train.users.ids)},
        lists={key: expected_lists(model, train) for key, model in models.items()},
        models=models,
        item_ids=item_ids,
        cold_list=tuple(item_ids[deployment.mostread.top_items(K)].tolist()),
        version_model=version_model,
    )
    traffic = Traffic(service, deployment.stream, checker, start=WARM_REQUESTS)
    swapper = Swapper(
        deployment, version_model,
        tracer=tracing.swap if churn else tracing.main,
        metrics=tracing.metrics,
    )
    context = {
        "name": name, "seed": seed, "seconds": seconds,
        "deployment": deployment, "traffic": traffic, "swapper": swapper,
        "checker": checker, "tracing": tracing, "models": models,
        "cycles": [], "hard_failures": [], "rounds": 0,
    }

    # ------------------------------------------------------------ timed region
    release_free_memory()
    rss_reset = reset_peak_rss()
    rss_before = current_rss_bytes()
    timed_started = time.perf_counter()
    if name == "refresh":
        _refresh_region(context)
    else:
        _churn_region(context)
    timed_s = time.perf_counter() - timed_started
    # Without the reset, VmHWM would hold the set-ups' peak: not measured.
    peak = vm_hwm_bytes() if rss_reset else float("nan")

    # ----------------------------------------------------------------- checks
    quality = _quality(context)
    result = _metrics(context, setup_s, peak, quality)
    result["report"].update(
        timed_s=timed_s,
        setup_s=setup_s,
        rss={"reset": rss_reset, "before_mb": rss_before / 1e6},
    )
    if trace:
        result["metrics"] = layers.per_layer(context, setup_s, quality)
        summary = layers.trace_summary(context)
        result["report"]["trace"] = summary
        result["spans"] = span_records(tracing.tracers())
        if summary["nesting_errors"]:
            result["correct"] = False
            result["report"]["hard_failures"].append("traced spans do not nest")
    deployment.close()
    return result


# ----------------------------------------------------------------------
# timed regions
# ----------------------------------------------------------------------


def _rounds(context, n_rounds: int, rates, before_slice=None) -> None:
    """``n_rounds`` rounds of low / high / saturation slices.

    In a traced run, odd rounds of the run are traced and even rounds are
    not, so the tracing overhead is measured on interleaved slices.
    """
    traffic = context["traffic"]
    tracing = context["tracing"]
    service = traffic.service
    service_tracer = service.tracer
    for _ in range(n_rounds):
        traced = tracing.enabled and context["rounds"] % 2 == 1
        context["rounds"] += 1
        suffix = ".traced" if traced else ""
        service.tracer = service_tracer if traced else None
        for phase, rate in (("low", rates[0]), ("high", rates[1]), ("sat", None)):
            if before_slice is not None:
                before_slice(traced)
            tracer = tracing.main if traced else None
            with start_span(tracing.main if traced else None, "bench.slice", phase=phase):
                traffic.run_slice(phase + suffix, phase, rate, SLICE_SECONDS, tracer=tracer)
    service.tracer = service_tracer


def _idle_swaps(context, model_key: str, model, train) -> None:
    """Hot swaps with no traffic, each followed by one request.

    The request is a known user, a cache miss after the swap, which must
    name the new version. Traced runs trace every other swap.
    """
    swapper = context["swapper"]
    tracing = context["tracing"]
    service = context["traffic"].service
    service_tracer = service.tracer
    user_ids = train.users.ids
    for index in range(IDLE_SWAPS):
        traced = tracing.enabled and index % 2 == 1
        service.tracer = service_tracer if traced else None
        record = swapper.swap(model_key, model, train, traced=traced)
        request = RecommendationRequest(user_id=str(user_ids[index % len(user_ids)]), k=K)
        response = service.recommend_response(request)
        context["checker"].check(request, response)
        if response.model_version != record["version"]:
            context["hard_failures"].append(
                f"response after swap names {response.model_version}, not {record['version']}"
            )
    service.tracer = service_tracer


def _refresh_cycle(context, traced: bool) -> dict:
    """One nightly rebuild, timed from merge to the first new-version response."""
    deployment = context["deployment"]
    tracing = context["tracing"]
    tracer = tracing.main if traced else None
    metrics = tracing.metrics if traced else None
    store = context["swapper"].store
    store.tracer = tracer
    service = deployment.service
    service_tracer = service.tracer
    service.tracer = tracer
    probe_user = str(deployment.split.train.users.ids[0])
    clock = time.perf_counter
    started = clock()
    with start_span(tracer, "bench.refresh"):
        with start_span(tracer, "bench.merge"):
            merged = merge_sharded_corpus(
                deployment.corpus, merge_config(), tracer=tracer, metrics=metrics
            ).dataset
        with start_span(tracer, "bench.split"):
            split = split_readings(merged)
        with start_span(tracer, "bench.load"):
            previous, _ = store.load()
        with start_span(tracer, "bench.fit") as span:
            model = BPR(BPRConfig(), tracer=tracer, metrics=metrics)
            if traced:
                _, rss = measure_phase_rss(lambda: model.fit(split.train, warm_start=previous))
                span.set_attrs(rss_delta_bytes=rss.delta_bytes)
            else:
                model.fit(split.train, warm_start=previous)
        with start_span(tracer, "bench.evaluate", holdout="val"):
            val = evaluate_model(model, split, holdout="val", tracer=tracer, metrics=metrics)
        with start_span(tracer, "bench.evaluate", holdout="test"):
            test = evaluate_model(model, split, holdout="test", tracer=tracer, metrics=metrics)
        publish_started = clock()
        with start_span(tracer, "bench.publish"):
            version = store.publish(model, split.train)
        context["checker"].version_model[version.name] = "R"
        published = clock()
        with start_span(tracer, "bench.refresh_from_store"):
            ok = service.refresh_from_store(store)
        refreshed = clock()
        with start_span(tracer, "bench.request"):
            response = service.recommend_response(RecommendationRequest(user_id=probe_user, k=K))
    done = clock()
    service.tracer = service_tracer
    return {
        "refresh_s": done - started,
        "swap_s": refreshed - publish_started,
        "publish_s": published - publish_started,
        "ok": bool(ok),
        "traced": traced,
        "version": version.name,
        "response_version": response.model_version,
        "val_urr": val.report(K).urr,
        "test_urr": test.report(K).urr,
        "model": model,
        "split": split,
        "response": response,
        "probe_user": probe_user,
    }


def _refresh_region(context) -> None:
    """Patron traffic on v1, then :data:`REFRESH_CYCLES` rebuilds, each
    followed by idle hot swaps, a cache refill and more patron traffic.

    The :data:`PATRON_ROUNDS` rounds are split evenly over the blocks
    before, between and after the rebuilds. Interleaving spreads the rebuilds and the
    traffic over the whole run, so a slow stretch of the host lands on
    both alike. Every rebuild warm-starts from the same set-up model,
    republished (untimed) before each rebuild after the first, so each
    does identical work. A traced run traces only the last rebuild; the
    others are its baseline.
    """
    deployment = context["deployment"]
    checker = context["checker"]
    tracing = context["tracing"]
    store = context["swapper"].store
    blocks = REFRESH_CYCLES + 1
    rounds = [
        PATRON_ROUNDS * (i + 1) // blocks - PATRON_ROUNDS * i // blocks
        for i in range(blocks)
    ]
    _rounds(context, rounds[0], ZIPF_RATES)
    for index in range(REFRESH_CYCLES):
        if index:
            version = store.publish(deployment.models[0], deployment.split.train)
            checker.version_model[version.name] = "A"
        traced = tracing.enabled and index == REFRESH_CYCLES - 1
        record = _refresh_cycle(context, traced)
        context["cycles"].append(record)
        checker.models["R"] = record["model"]
        checker.lists["R"] = expected_lists(record["model"], record["split"].train)
        checker.check(
            RecommendationRequest(user_id=record["probe_user"], k=K), record["response"]
        )
        _idle_swaps(context, "R", record["model"], record["split"].train)
        _warm_cache(context)
        # The rebuild leaves garbage whose collection would land in
        # whichever patron slice crosses the collector's threshold.
        gc.collect()
        _rounds(context, rounds[index + 1], ZIPF_RATES)


def _warm_cache(context) -> None:
    """Refill the cache the swaps cleared, as set-up warmed it.

    The stream's next :data:`WARM_REQUESTS` requests are sent untimed
    (and still checked), so the patron slices start from a warm cache.
    """
    traffic = context["traffic"]
    checker = context["checker"]
    for _ in range(WARM_REQUESTS // BATCH):
        requests = traffic.next_batch()
        for request, response in zip(requests, traffic.service.recommend_many_responses(requests)):
            checker.check(request, response)


def _churn_region(context) -> None:
    swapper = context["swapper"]
    models = context["models"]
    state = {"next": "B"}

    def before_slice(traced: bool) -> None:
        key = state["next"]
        state["next"] = "A" if key == "B" else "B"
        swapper.trigger(key, models[key], traced)

    swapper.start()
    try:
        # At least two rounds, so a traced run has a traced and an untraced one.
        n_rounds = max(2, int(context["seconds"] / (3 * SLICE_SECONDS)))
        _rounds(context, n_rounds, CHURN_RATES, before_slice)
    finally:
        swapper.stop()


# ----------------------------------------------------------------------
# checks and metrics
# ----------------------------------------------------------------------


def _quality(context) -> dict:
    """URR of the model the workload produced or served, and MostRead's.

    The refreshed (refresh) or served (serve-churn) BPR's val URR must
    beat ``MostReadItems``' on the same split.
    """
    tracing = context["tracing"]
    tracer = tracing.main
    if context["cycles"]:
        last = context["cycles"][-1]
        split, model = last["split"], last["model"]
        val_urr, test_urr = last["val_urr"], last["test_urr"]
    else:
        deployment = context["deployment"]
        split, model = deployment.split, deployment.models[0]
        with start_span(tracer, "bench.evaluate", holdout="val"):
            val_urr = evaluate_model(model, split, holdout="val", tracer=tracer, metrics=tracing.metrics).report(K).urr
        with start_span(tracer, "bench.evaluate", holdout="test"):
            test_urr = evaluate_model(model, split, holdout="test", tracer=tracer, metrics=tracing.metrics).report(K).urr
    mostread_urr = evaluate_model(MostReadItems().fit(split.train), split, holdout="val").report(K).urr
    if not val_urr > mostread_urr:
        context["hard_failures"].append(
            f"val URR {val_urr:.4f} does not beat MostReadItems ({mostread_urr:.4f})"
        )
    return {"val_urr": val_urr, "test_urr": test_urr, "mostread_val_urr": mostread_urr}


def _metrics(context, setup_s: list[float], peak: float, quality) -> dict:
    name = context["name"]
    traffic = context["traffic"]
    swapper = context["swapper"]
    checker = context["checker"]
    deployment = context["deployment"]
    hard = context["hard_failures"]

    phases = traffic.phases
    low, high = traffic.samples("low"), traffic.samples("high")
    swaps = [r for r in swapper.records if not r.get("traced")]
    if name == "refresh":
        refresh_s = median([c["refresh_s"] for c in context["cycles"]])
        swap_samples = [r["swap_s"] for r in swaps] + [c["swap_s"] for c in context["cycles"]]
        for cycle in context["cycles"]:
            if not cycle["ok"]:
                hard.append(f"refresh_from_store rejected {cycle['version']}")
            if cycle["response_version"] != cycle["version"]:
                hard.append(
                    f"post-refresh response names {cycle['response_version']}, not {cycle['version']}"
                )
    else:
        seen = traffic.first_seen
        # Swaps start with every slice, so their lags mix three loads; the
        # interquartile mean does not jump between them as the median can.
        refresh_s = interquartile_mean(
            [seen[r["version"]] - r["start"] for r in swaps if r["version"] in seen]
        )
        swap_samples = [r["swap_s"] for r in swaps]

    # Every version the run published must verify.
    store = swapper.store
    for version in store.versions():
        try:
            store.verify(version)
        except Exception as exc:  # any verification error fails the run
            hard.append(f"{version.name} fails ModelStore.verify: {exc}")
    hard.extend(f"response check: {reason}" for reason in checker.reasons)

    # Operations: requests (timed traffic, post-swap probes, the refresh's
    # own request), publishes and hot swaps (one of each per swap/cycle).
    # A publish that fails raises and ends the run without a result.
    publishes = len(swapper.records) + len(context["cycles"])
    attempted = checker.lookups + 2 * publishes
    failed = (
        checker.failures + swapper.failed()
        + sum(1 for c in context["cycles"] if not c["ok"])
    )
    correct = failed == 0 and not hard

    metrics = {
        "setup_s": (median(setup_s), "s"),
        "refresh_s": (refresh_s, "s"),
        "val_urr": (quality["val_urr"], "ratio"),
        "test_urr": (quality["test_urr"], "ratio"),
        "peak_rss_mb": (peak / 1e6, "MB"),
        "latency_iqm_ms.low": (low.latency_iqm_ms(), "ms"),
        "version_match_share": (
            1.0 - checker.mismatches / checker.primary if checker.primary else float("nan"),
            "ratio",
        ),
    }
    report = {
        "workload": name,
        "correct": correct,
        "hard_failures": hard[:20],
        "phases": {key: samples.summary() for key, samples in phases.items()},
        "requests": {
            "attempted": traffic.requests,
            "failed": checker.failures,
            "primary_checked": checker.primary,
            "version_mismatches": checker.mismatches,
            "cache_hit_ratio": checker.hits / checker.lookups if checker.lookups else None,
        },
        "publishes": {"attempted": publishes, "failed": 0},
        "swaps": {
            "attempted": publishes,
            "failed": swapper.failed() + sum(1 for c in context["cycles"] if not c["ok"]),
            "median_s": median(swap_samples),
        },
        "cycles": [
            {k: v for k, v in c.items() if k not in ("model", "split", "response")}
            for c in context["cycles"]
        ],
        "quality": quality,
        "latency_limit": {
            "p99_ms": P99_LIMIT_MS,
            "low_met": percentile(low.latency_ms, 99) <= P99_LIMIT_MS,
            "high_met": percentile(high.latency_ms, 99) <= P99_LIMIT_MS,
            "judged_on": "pooled p99 over every slice of the rate",
        },
        "corpus": {
            "users": deployment.split.train.n_users,
            "books": deployment.split.train.n_items,
            "train_pairs": deployment.split.train.n_interactions,
            "readings": deployment.merged.readings.num_rows,
        },
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "report": report,
    }

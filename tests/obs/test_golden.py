"""Golden trace/snapshot test for the fixed-seed instrumented demo.

``run_instrumented_demo(deterministic=True)`` makes the whole
pipeline → fit → evaluate → serve run a pure function of the seed: span
ids come from the seeded id stream, every tracer/service timestamp from
:class:`~repro.obs.trace.TickingClock`. The committed goldens pin the
normalised trace (all spans, ids, nesting, deterministic timings) and
metrics snapshot (all counters, KPI gauges, histogram counts; real
wall-clock fields zeroed by :mod:`tests.obs.golden`).

Regenerate after an intentional instrumentation change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/obs/test_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.obs.demo import DEMO_KS, run_instrumented_demo
from tests.obs.golden import (
    assert_golden_equal,
    normalize_snapshot,
    normalize_trace,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
SNAPSHOT_GOLDEN = GOLDEN_DIR / "demo_metrics_snapshot.json"
TRACE_GOLDEN = GOLDEN_DIR / "demo_trace.jsonl"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"


@pytest.fixture(scope="module")
def demo_run():
    return run_instrumented_demo(deterministic=True)


def _normalized(run):
    snapshot = normalize_snapshot(run.metrics.snapshot())
    trace = normalize_trace([span.as_dict() for span in run.tracer.spans])
    return snapshot, trace


def _regen(snapshot: dict, trace: list[dict]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    SNAPSHOT_GOLDEN.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    TRACE_GOLDEN.write_text(
        "".join(json.dumps(span, sort_keys=True) + "\n" for span in trace),
        encoding="utf-8",
    )


class TestGoldens:
    def test_metrics_snapshot_matches_golden(self, demo_run):
        snapshot, trace = _normalized(demo_run)
        if REGEN:
            _regen(snapshot, trace)
        expected = json.loads(SNAPSHOT_GOLDEN.read_text(encoding="utf-8"))
        assert_golden_equal(snapshot, expected)

    def test_trace_matches_golden(self, demo_run):
        snapshot, trace = _normalized(demo_run)
        if REGEN:
            _regen(snapshot, trace)
        expected = [
            json.loads(line)
            for line in TRACE_GOLDEN.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert_golden_equal(trace, expected)

    def test_demo_run_is_reproducible_in_process(self, demo_run):
        first_snapshot, first_trace = _normalized(demo_run)
        second_snapshot, second_trace = _normalized(
            run_instrumented_demo(deterministic=True)
        )
        assert_golden_equal(first_snapshot, second_snapshot)
        assert_golden_equal(first_trace, second_trace)

    def test_demo_covers_the_whole_request_path(self, demo_run):
        names = {span.name for span in demo_run.tracer.spans}
        for expected in (
            "demo.run", "pipeline.merge_streaming", "pipeline.genres", "bpr.fit",
            "bpr.epoch", "eval.fit", "eval.evaluate", "service.request",
            "service.batch",
        ):
            assert expected in names, f"missing span {expected!r}"
        assert demo_run.evaluation.kpis.keys() == set(DEMO_KS)
        assert demo_run.health["status"] == "ok"
        assert demo_run.served_by.get("primary", 0) > 0
        # The second serve pass and the batch answer from the cache.
        snap = demo_run.metrics.snapshot()
        cache = snap["counters"]["service.cache"]["labels"]
        assert cache["outcome=hit"] >= cache["outcome=miss"]

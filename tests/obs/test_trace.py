"""Property and unit tests for the tracer.

Pins the docstring invariants: span trees are well-nested (every child's
interval lies inside its parent's, timestamps monotone under a monotone
clock), ids are a deterministic function of the seed, exceptions mark the
span and propagate, and the JSONL export round-trips.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.obs.report import load_trace_jsonl, stage_profiles
from repro.obs.trace import (
    NULL_SPAN,
    STATUS_ERROR,
    STATUS_OK,
    TickingClock,
    Tracer,
    start_span,
)


def make_tracer(seed: int = 7) -> Tracer:
    return Tracer(
        seed=seed,
        clock=TickingClock(start=100.0, step=0.5),
        cpu_clock=TickingClock(start=0.0, step=0.25),
    )


# Random nesting scripts: each entry is how many children to open at that
# depth (depth <= 3 keeps the tree small but genuinely nested).
nesting_scripts = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4
)


def _run_script(tracer: Tracer, script, depth: int = 0) -> None:
    if depth >= len(script):
        return
    for index in range(script[depth] or 1):
        with tracer.span(f"level{depth}.{index}"):
            _run_script(tracer, script, depth + 1)


class TestWellNestedness:
    @settings(deadline=None, max_examples=50)
    @given(script=nesting_scripts)
    def test_children_nest_inside_parents_with_monotone_timestamps(
        self, script
    ):
        tracer = make_tracer()
        _run_script(tracer, script)
        spans = {span.span_id: span for span in tracer.spans}
        assert spans, "script opened no spans"
        for span in spans.values():
            assert span.start is not None and span.end is not None
            assert span.end >= span.start
            if span.parent_id is not None:
                parent = spans[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end
                assert span.trace_id == parent.trace_id

    @settings(deadline=None, max_examples=50)
    @given(script=nesting_scripts)
    def test_completion_order_lists_children_before_parents(self, script):
        tracer = make_tracer()
        _run_script(tracer, script)
        seen = set()
        for span in tracer.spans:
            if span.parent_id is not None:
                assert span.parent_id not in seen
            seen.add(span.span_id)

    def test_sibling_spans_share_trace_and_parent(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert a.trace_id == b.trace_id == root.trace_id
        assert a.end <= b.start  # monotone clock orders the siblings

    def test_separate_roots_start_separate_traces(self):
        tracer = make_tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None


class TestDeterminism:
    def test_same_seed_replays_identical_ids(self):
        runs = []
        for _ in range(2):
            tracer = make_tracer(seed=99)
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
            runs.append(
                [(s.trace_id, s.span_id, s.parent_id) for s in tracer.spans]
            )
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        ids = set()
        for seed in (1, 2):
            tracer = make_tracer(seed=seed)
            with tracer.span("root") as span:
                pass
            ids.add(span.span_id)
        assert len(ids) == 2

    def test_ticking_clock_makes_timings_pure_call_order(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            pass
        assert root.start == 100.0
        assert root.end == 100.5
        assert root.cpu_seconds == 0.25


class TestStatusAndErrors:
    def test_exception_marks_span_and_propagates(self):
        tracer = make_tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status == STATUS_ERROR
        assert span.error == "ValueError: boom"

    def test_clean_exit_is_ok(self):
        tracer = make_tracer()
        with tracer.span("fine"):
            pass
        assert tracer.spans[0].status == STATUS_OK
        assert tracer.spans[0].error is None

    def test_active_ids_follow_the_span_stack(self):
        tracer = make_tracer()
        assert tracer.active_span is None
        with tracer.span("outer") as outer:
            assert tracer.active_span is outer
            with tracer.span("inner") as inner:
                assert tracer.active_span is inner
                assert inner.trace_id == outer.trace_id
            assert tracer.active_span is outer
        assert tracer.active_span is None


class TestNullSpan:
    def test_start_span_without_tracer_returns_shared_instance(self):
        assert start_span(None, "anything", k=1) is NULL_SPAN
        assert start_span(None, "other") is NULL_SPAN

    def test_null_span_accepts_the_full_span_protocol(self):
        with start_span(None, "noop") as span:
            span.set_attrs(a=1, b=2)

    def test_traced_call_site_uses_real_span_when_tracer_given(self):
        tracer = make_tracer()
        with start_span(tracer, "real", k=5) as span:
            span.set_attrs(extra=True)
        assert tracer.spans[0].attrs == {"k": 5, "extra": True}


class TestExportAndLimits:
    def test_export_jsonl_round_trips(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("root", stage="demo"):
            with tracer.span("child"):
                pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        spans = load_trace_jsonl(path)
        assert [s["name"] for s in spans] == ["child", "root"]
        assert spans == [json.loads(json.dumps(s)) for s in spans]
        assert spans[1]["attrs"] == {"stage": "demo"}

    def test_stage_profiles_aggregate_by_name(self):
        tracer = make_tracer()
        for _ in range(3):
            with tracer.span("stage.a"):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("stage.b"):
                raise RuntimeError("x")
        profiles = {p.name: p for p in stage_profiles(tracer.spans)}
        assert profiles["stage.a"].calls == 3
        assert profiles["stage.a"].errors == 0
        assert profiles["stage.b"].errors == 1
        assert profiles["stage.a"].wall_seconds == pytest.approx(1.5)

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(
            seed=1, clock=TickingClock(), cpu_clock=TickingClock(),
            max_spans=2,
        )
        for index in range(4):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans] == ["s2", "s3"]

    def test_clear_empties_finished_spans(self):
        tracer = make_tracer()
        with tracer.span("root"):
            pass
        tracer.clear()
        assert tracer.spans == ()

    def test_span_name_must_be_non_empty(self):
        with pytest.raises(ConfigurationError):
            make_tracer().span("")

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)

    def test_ticking_clock_step_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TickingClock(step=0.0)

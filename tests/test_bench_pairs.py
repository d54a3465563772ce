"""The pair summary of ``scripts/bench_pairs.py`` on canned result lines."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules["bench_pairs"] = bench_pairs  # dataclasses look their module up
_spec.loader.exec_module(bench_pairs)

CONTRACT = {
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "latency_iqm_ms.low", "better": "lower", "bound": 0.25},
        {"name": "val_urr", "better": "higher", "bound": 0.05},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.12},
        {"name": "refresh_s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "gen.capacity_rps", "better": "higher"},
    ],
}


def line(latency, urr, rss, refresh, correct=True, attempted=1000, failed=0):
    """One perfbench result line, as ``perfbench/run.py`` prints it."""
    metrics = {
        "latency_iqm_ms.low": latency, "val_urr": urr,
        "peak_rss_mb": rss, "refresh_s": refresh,
    }
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        },
    })


# Five pairs: latency falls in 4 of 5, URR equal in every pair, peak
# RSS 20% worse (bound 0.12), refresh_s spread far wider than its bound.
PARENT = [
    line(0.90, 0.88, 100.0, 1.0), line(0.84, 0.87, 100.0, 3.0),
    line(0.88, 0.86, 100.0, 0.5), line(0.80, 0.88, 100.0, 2.0),
    line(0.86, 0.85, 100.0, 1.5, attempted=900, failed=3),
]
CHANGE = [
    line(0.70, 0.88, 120.0, 1.0), line(0.66, 0.87, 120.0, 3.0),
    line(0.68, 0.86, 120.0, 0.5), line(0.82, 0.88, 120.0, 2.0),
    line(0.60, 0.85, 120.0, 1.5, correct=False, attempted=1200, failed=1),
]


def records():
    out = []
    for seed, (parent, change) in enumerate(zip(PARENT, CHANGE), start=901):
        out.append({"side": "change", "seed": seed, "result": json.loads(change)})
        out.append({"side": "parent", "seed": seed, "result": json.loads(parent)})
    return out


@pytest.fixture()
def summary():
    return bench_pairs.summarize(records(), CONTRACT)


def by_name(summary):
    return {metric.name: metric for metric in summary.metrics}


class TestSummarize:
    def test_medians_quartiles_and_wins(self, summary):
        latency = by_name(summary)["latency_iqm_ms.low"]
        assert latency.parent.median == pytest.approx(0.86)
        assert (latency.parent.q1, latency.parent.q3) == pytest.approx((0.84, 0.88))
        assert latency.change.median == pytest.approx(0.68)
        assert (latency.wins, latency.pairs, latency.same) == (4, 5, 0)
        assert latency.beyond_iqr
        assert latency.change_share == pytest.approx(0.68 / 0.86 - 1)
        assert not latency.worse_beyond_bound and not latency.unresolved

    def test_higher_is_better_and_equal_pairs(self, summary):
        urr = by_name(summary)["val_urr"]
        assert (urr.wins, urr.same, urr.pairs) == (0, 5, 5)
        assert not urr.beyond_iqr and not urr.worse_beyond_bound

    def test_worse_beyond_bound(self, summary):
        rss = by_name(summary)["peak_rss_mb"]
        assert rss.worse_beyond_bound
        assert bench_pairs._verdict(rss) == "WORSE"

    def test_parent_spread_wider_than_bound_is_unresolved(self, summary):
        refresh = by_name(summary)["refresh_s"]
        assert refresh.unresolved and not refresh.worse_beyond_bound
        assert bench_pairs._verdict(refresh) == "unresolved"

    def test_no_verdict_of_unresolved_when_every_change_run_is_better(self):
        canned = records()
        for record in canned:
            if record["side"] == "change":
                record["result"]["metrics"]["refresh_s"]["value"] = 0.4
        refresh = by_name(bench_pairs.summarize(canned, CONTRACT))["refresh_s"]
        assert refresh.dominates and not refresh.unresolved
        assert bench_pairs._verdict(refresh) == "ok"

    def test_unmeasured_metrics_are_left_out(self, summary):
        assert "gen.capacity_rps" not in by_name(summary)

    def test_failures_per_side(self, summary):
        parent, change = summary.sides["parent"], summary.sides["change"]
        assert (parent.runs, parent.incorrect, parent.attempted, parent.failed) == (
            5, 0, 4900, 3,
        )
        assert (change.runs, change.incorrect, change.attempted, change.failed) == (
            5, 1, 5200, 1,
        )

    def test_a_missing_value_leaves_the_pair_out(self):
        canned = records()
        canned[0]["result"]["metrics"]["latency_iqm_ms.low"]["value"] = None
        latency = by_name(bench_pairs.summarize(canned, CONTRACT))[
            "latency_iqm_ms.low"
        ]
        assert (latency.wins, latency.pairs) == (3, 4)


class TestRender:
    def test_rows_and_side_lines(self, summary):
        text = bench_pairs.render(summary)
        rows = {row.split()[0]: row.split() for row in text.splitlines()}
        assert rows["latency_iqm_ms.low"][-5:] == ["4/5", "0/5", "yes", "0.25", "ok"]
        assert rows["peak_rss_mb"][-1] == "WORSE"
        assert rows["refresh_s"][-1] == "unresolved"
        assert "parent: 0/5 runs not correct, 3/4900 operations failed" in text
        assert "change: 1/5 runs not correct, 1/5200 operations failed" in text


def test_seed_ranges():
    assert bench_pairs._parse_seeds("921-923,930") == [921, 922, 923, 930]

"""Self-check of the benchmark.

    python3 -m pytest perfbench -q

Runs every workload end to end in both modes with two seconds of
traffic (``refresh`` is fixed work: about a minute a run), and checks the
benchmark contract: every run passes its checks and prints
every declared metric with its unit, inputs are a pure function of the
seed, traced spans nest, and a checkout without the program fails
cleanly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, "perfbench/run.py"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCH[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    if not trace:
        for name in ("setup_s", "refresh_s", "latency_iqm_ms.low"):
            assert result["metrics"][name]["value"] > 0, name
        return
    # Traced spans nest: every parent exists and contains its children.
    from perfbench.common import nesting_errors

    spans_file = ROOT / ".perfbench-work" / "results" / f"spans-{workload}-seed3-trace1.jsonl"
    records = [json.loads(line) for line in spans_file.read_text(encoding="utf-8").splitlines()]
    assert records
    assert nesting_errors(records) == []
    if workload == "refresh":
        assert result["metrics"]["trace.layer_coverage"]["value"] >= 0.95


def test_inputs_are_a_pure_function_of_the_seed(tmp_path: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.datasets.corpus import ShardedCorpusWriter

    from perfbench.deploy import corpus_config
    from perfbench.traffic import uniform_stream, zipf_stream

    shards = []
    for name in ("a", "b"):
        corpus = ShardedCorpusWriter(tmp_path / name, corpus_config()).write()
        shards.append(list(corpus.iter_loan_shards()) + list(corpus.iter_rating_shards()))
    for left, right in zip(*shards):
        assert left.keys() == right.keys()
        for column in left:
            assert (left[column] == right[column]).all()
    users = [f"u{i}" for i in range(300)]

    def ids(stream):
        return [request.user_id for request in stream]

    assert ids(zipf_stream(5, users, 2000)) == ids(zipf_stream(5, users, 2000))
    assert ids(zipf_stream(5, users, 2000)) != ids(zipf_stream(6, users, 2000))
    assert ids(uniform_stream(5, users, 2000)) == ids(uniform_stream(5, users, 2000))
    assert ids(uniform_stream(5, users, 2000)) != ids(uniform_stream(6, users, 2000))


def test_interquartile_mean_drops_a_quarter_at_each_end() -> None:
    from perfbench.common import interquartile_mean

    assert interquartile_mean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0]) == 4.5
    assert interquartile_mean([3.0, 1.0, 2.0]) == 2.0
    assert math.isnan(interquartile_mean([]))


def test_benchmark_json_matches_the_code() -> None:
    from perfbench.layers import PER_LAYER
    from perfbench.params import WORKLOADS

    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCH["end_to_end"])


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "refresh", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

#!/usr/bin/env python
"""Compare a change with its parent on one perfbench workload, in pairs.

Runs ``perfbench/run.py`` (the command ``BENCHMARK.json`` declares) in
two checkouts for the run length that file sets (``run_seconds``), one
run at a time since the benchmark pins itself to one CPU: one pair per
seed, and the side that runs first alternates from pair to pair, so a
slow stretch of the host lands on both sides alike.
Make both checkouts fresh copies of the same layout (``git archive`` of
each commit into sibling directories), so that only the program differs.

Then it prints, per metric of the run mode (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``), each side's median
and quartiles, the change's relative move, its wins out of the pairs in
the metric's ``better`` direction, how many pairs read exactly the same,
whether the medians differ by more than the parent's interquartile range
(IQR), and a verdict against the metric's bound: ``WORSE`` when the
change's median is worse than the parent's by more than the bound,
``unresolved`` when the parent's own IQR over its median already exceeds
it (unless every run of the change reads better than every run of the
parent). Per side it counts the runs that were not ``correct`` and the failed
and attempted operations. The script only reads ``BENCHMARK.json`` and
``perfbench/``; each run leaves its reports in its checkout's
``.perfbench-work/``.

Usage::

    python scripts/bench_pairs.py PARENT CHANGE --workload serve-churn \\
        --seeds 921-930 [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SIDES = ("parent", "change")


@dataclass(frozen=True)
class Spread:
    """Median and quartiles of one side's runs of one metric."""

    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class MetricSummary:
    """One metric over the pairs: both sides' spreads and the verdicts."""

    name: str
    better: str
    bound: float | None
    parent: Spread
    change: Spread
    pairs: int
    wins: int
    same: int
    dominates: bool
    """Every run of the change reads better than every run of the parent."""

    @property
    def change_share(self) -> float:
        """The change's median relative to the parent's, minus one."""
        return _relative(self.change.median, self.parent.median)

    @property
    def beyond_iqr(self) -> bool:
        """Whether the medians differ by more than the parent's IQR."""
        return abs(self.change.median - self.parent.median) > self.parent.iqr

    @property
    def unresolved(self) -> bool:
        """Whether the parent's own spread is wider than the bound, and
        the change does not read better in every run."""
        if self.bound is None or self.dominates:
            return False
        return self.parent.iqr > self.bound * abs(self.parent.median)

    @property
    def worse_beyond_bound(self) -> bool:
        """Whether the change's median is worse than the parent's by more
        than the bound, a share of the parent's median."""
        if self.bound is None:
            return False
        share = self.change_share
        return (share if self.better == "lower" else -share) > self.bound


@dataclass(frozen=True)
class SideRuns:
    """Run-level accounting of one side."""

    runs: int
    incorrect: int
    attempted: int
    failed: int


@dataclass(frozen=True)
class Summary:
    metrics: list[MetricSummary]
    sides: dict[str, SideRuns]


def _relative(value: float, reference: float) -> float:
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    return value / reference - 1.0


def _spread(values: list[float]) -> Spread:
    if len(values) == 1:
        return Spread(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Spread(median, q1, q3)


def _value(result: dict, name: str) -> float | None:
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric.get("value")


def summarize(records: list[dict], contract: dict) -> Summary:
    """Summarise run records against a ``BENCHMARK.json`` contract.

    A record is ``{"side": "parent" | "change", "seed": int, "result":
    <perfbench's result line>}``. A pair is the two sides' runs of one
    seed; a metric that a run did not measure leaves that pair out of
    the metric's wins. Pure: reads nothing and prints nothing.
    """
    by_seed: dict[int, dict[str, dict]] = {}
    for record in records:
        by_seed.setdefault(record["seed"], {})[record["side"]] = record["result"]
    seeds = sorted(by_seed)
    declared = contract.get("end_to_end", []) + contract.get("per_layer", [])
    metrics = []
    for spec in declared:
        name, better = spec["name"], spec["better"]
        values: dict[str, list[float]] = {side: [] for side in SIDES}
        pairs = wins = same = 0
        for seed in seeds:
            sides = by_seed[seed]
            read = {side: _value(sides.get(side, {}), name) for side in SIDES}
            for side in SIDES:
                if read[side] is not None:
                    values[side].append(read[side])
            parent, change = read["parent"], read["change"]
            if parent is None or change is None:
                continue
            pairs += 1
            same += change == parent
            wins += change < parent if better == "lower" else change > parent
        parent_values, change_values = values["parent"], values["change"]
        if not parent_values or not change_values:
            continue
        if better == "lower":
            dominates = max(change_values) < min(parent_values)
        else:
            dominates = min(change_values) > max(parent_values)
        metrics.append(MetricSummary(
            name=name, better=better, bound=spec.get("bound"),
            parent=_spread(parent_values), change=_spread(change_values),
            pairs=pairs, wins=wins, same=same, dominates=dominates,
        ))
    sides = {}
    for side in SIDES:
        results = [by_seed[s][side] for s in seeds if side in by_seed[s]]
        sides[side] = SideRuns(
            runs=len(results),
            incorrect=sum(not result.get("correct", False) for result in results),
            attempted=sum(result.get("attempted", 0) for result in results),
            failed=sum(result.get("failed", 0) for result in results),
        )
    return Summary(metrics=metrics, sides=sides)


def _format_spread(spread: Spread) -> str:
    return f"{spread.median:.4g} [{spread.q1:.4g}-{spread.q3:.4g}]"


def _verdict(metric: MetricSummary) -> str:
    if metric.bound is None:
        return "-"
    if metric.worse_beyond_bound:
        return "WORSE"
    return "unresolved" if metric.unresolved else "ok"


def render(summary: Summary) -> str:
    """The summary as a text table, one row per metric."""
    header = (
        "metric", "better", "parent median [q1-q3]", "change median [q1-q3]",
        "change", "wins", "same", "> IQR", "bound", "verdict",
    )
    rows = [header]
    for m in summary.metrics:
        rows.append((
            m.name, m.better, _format_spread(m.parent), _format_spread(m.change),
            f"{m.change_share:+.1%}", f"{m.wins}/{m.pairs}", f"{m.same}/{m.pairs}",
            "yes" if m.beyond_iqr else "no",
            "-" if m.bound is None else f"{m.bound:g}", _verdict(m),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    for side in SIDES:
        runs = summary.sides[side]
        share = runs.failed / runs.attempted if runs.attempted else 0.0
        lines.append(
            f"{side}: {runs.incorrect}/{runs.runs} runs not correct, "
            f"{runs.failed}/{runs.attempted} operations failed ({share:.3%})"
        )
    return "\n".join(lines)


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _run(checkout: Path, command: list[str], seed: int) -> dict:
    """One perfbench run of ``command`` in ``checkout``; its result line,
    or a failed stand-in when the run printed none."""
    done = subprocess.run(
        command + ["--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        print(
            f"{checkout} seed {seed}: exit {done.returncode}: {tail[0]}",
            file=sys.stderr,
        )
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 921-930 or 1,2,5")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    contract = json.loads(
        (args.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    seconds = contract["run_seconds"]
    command = contract["command"] + [
        "--workload", args.workload, "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    checkouts = {"parent": args.parent, "change": args.change}
    records = []
    for number, seed in enumerate(_parse_seeds(args.seeds)):
        for side in SIDES if number % 2 == 0 else SIDES[::-1]:
            result = _run(checkouts[side], command, seed)
            records.append({"side": side, "seed": seed, "result": result})
            print(
                f"seed {seed} {side}: correct={result.get('correct')}",
                file=sys.stderr,
            )
    print(
        f"{args.workload}, seeds {args.seeds}, "
        f"--seconds {seconds}, trace {args.trace}"
    )
    print(render(summarize(records, contract)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

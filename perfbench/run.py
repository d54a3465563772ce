"""Run one workload of the end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload refresh --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: the program under test is
imported from ``src/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace 1``); the line
before it is the full report (machine record, speed probes, per-phase
samples, failure reasons). Reports and traced spans are also written
under ``.perfbench-work/results/``. Exit status: 0 when every check
passed, 1 when a check failed, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.params import THREAD_VARS, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench-work"


def _pin_threads() -> None:
    """One BLAS / OpenMP thread on one CPU; must run before numpy is imported.

    The service runs Python under one interpreter lock, so a second CPU
    adds nothing but hand-offs of that lock between CPUs (serve-churn's
    request and swap threads) and migrations, whose cost depends on what
    else the host runs.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> tuple[dict, dict, list]:
    """Run the workload; returns (result, report, traced span records)."""
    from perfbench.common import environment, log, speed_probe
    from perfbench.workloads import run_workload

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    report: dict = {"environment": environment(ROOT, args.seed)}
    report["probe_start"] = speed_probe()
    log(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(result.pop("report"))
    report["probe_end"] = speed_probe()
    spans = result.pop("spans", [])
    unmeasured = sorted(k for k, v in result["metrics"].items() if not math.isfinite(v["value"]))
    if unmeasured:
        report["hard_failures"].append(f"not measured: {', '.join(unmeasured)}")
        result["correct"] = False
        for name in unmeasured:
            result["metrics"][name]["value"] = None
    return result, report, spans


def _finite(value):
    """``value`` with NaN and infinities replaced by None (strict JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    result, report, spans = run(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"report-{stem}.json").write_text(
        json.dumps(_finite(report), indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    if spans:
        with open(results / f"spans-{stem}.jsonl", "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    ordered = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps({"report": _finite(report)}, sort_keys=True, default=str))
    print(json.dumps(ordered))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

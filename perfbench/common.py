"""Shared helpers: statistics, the machine record, and span arithmetic.

Nothing here imports the program under test.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.params import THREAD_VARS


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    """Median of ``values``; NaN when empty."""
    return statistics.median(values) if len(values) else float("nan")


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``; NaN when empty.

    A quarter of the values at each end is dropped (rounded down, so
    fewer than four values give their plain mean). Like the median it
    ignores a few outliers; unlike it, it averages over every value of
    the middle half, so it moves less with which one sits in the middle.
    """
    if len(values) == 0:
        return float("nan")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def release_free_memory() -> None:
    """Collect garbage and hand the C allocator's free pages back to the OS.

    Run before the timed region's peak-RSS reset, so the baseline it
    starts from is live memory rather than whatever the set-ups left
    cached in the allocator (glibc ``malloc_trim``; a no-op elsewhere).
    """
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim(0)


def wait_until(deadline: float, clock=time.perf_counter) -> None:
    """Sleep, then spin, until ``clock()`` reaches ``deadline``.

    Sleeping hands the interpreter lock to other threads; the final
    stretch spins because ``time.sleep`` overshoots by tens of µs.
    """
    remaining = deadline - clock()
    if remaining > 0.002:
        time.sleep(remaining - 0.0015)
    while clock() < deadline:
        pass


# ----------------------------------------------------------------------
# machine record
# ----------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        maps = Path("/proc/self/maps").read_text(encoding="ascii")
    except OSError:
        return None
    libraries = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in names:
            function = getattr(handle, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def environment(root: Path, seed: int) -> dict:
    """Cores, BLAS library and threads, versions, git sha and seed."""
    import scipy

    blas: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {var: os.environ.get(var) for var in THREAD_VARS},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def speed_probe(repeats: int = 5) -> dict:
    """A fixed machine-speed probe: median of ``repeats`` timings.

    A pure-Python loop and a small GEMM + ``argpartition`` top-k, the two
    kinds of work the program does. Diagnostic only, never gated: it lets
    a reader tell a slow host from a slow change.
    """
    rng = np.random.default_rng(12345)
    users = rng.standard_normal((256, 20))
    items = rng.standard_normal((2300, 20))
    python_s, numpy_s = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        python_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        scores = users @ items.T
        np.argpartition(-scores, 19, axis=1)[:, :20]
        numpy_s.append(time.perf_counter() - started)
    return {
        "python_loop_ms": round(median(python_s) * 1e3, 3),
        "gemm_topk_ms": round(median(numpy_s) * 1e3, 3),
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def span_records(tracers) -> list[dict]:
    """Every finished span of ``tracers`` as :meth:`Span.as_dict` records."""
    return [span.as_dict() for tracer in tracers for span in tracer.spans]


def self_times(records: list[dict]) -> dict[str, float]:
    """Span id -> self time: duration minus the time its children cover.

    Children of one span never overlap (one tracer per thread), so the
    covered time is the sum of their clipped durations.
    """
    covered: dict[str, float] = {}
    by_id = {record["span_id"]: record for record in records}
    for record in records:
        parent = by_id.get(record["parent_id"])
        if parent is None:
            continue
        start = max(record["start"], parent["start"])
        end = min(record["end"], parent["end"])
        covered[parent["span_id"]] = covered.get(parent["span_id"], 0.0) + max(
            end - start, 0.0
        )
    return {
        span_id: (record["end"] - record["start"]) - covered.get(span_id, 0.0)
        for span_id, record in by_id.items()
    }


def nesting_errors(records: list[dict], slack: float = 1e-6) -> list[str]:
    """Spans whose parent is missing or does not contain them in time."""
    by_id = {record["span_id"]: record for record in records}
    errors = []
    for record in records:
        if record["end"] is None or record["start"] is None:
            errors.append(f"{record['name']}: not closed")
            continue
        parent_id = record["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"{record['name']}: parent {parent_id} missing")
        elif record["trace_id"] != parent["trace_id"]:
            errors.append(f"{record['name']}: trace differs from its parent's")
        elif (
            record["start"] < parent["start"] - slack
            or record["end"] > parent["end"] + slack
        ):
            errors.append(f"{record['name']}: outside parent {parent['name']}")
    return errors


def log(message: str) -> None:
    """Progress line on stderr (stdout's last line is the result)."""
    print(message, file=sys.stderr, flush=True)

"""Peak resident-set-size measurement, per phase of work.

Two complementary sources:

- :func:`peak_rss_bytes` — ``resource.getrusage(RUSAGE_SELF).ru_maxrss``,
  available everywhere but *monotone*: it reports the high-water mark
  since process start and cannot be reset.
- ``/proc/self/status`` ``VmHWM`` — the same high-water mark, but on
  Linux it can be reset per phase by writing ``5`` to
  ``/proc/self/clear_refs`` (:func:`reset_peak_rss`), which is what lets
  a measurement attribute a peak to *one* pipeline phase instead of
  whichever earlier phase was hungriest.

:func:`measure_phase_rss` wraps a callable with the reset-run-read cycle
and records which source produced the number (``vmhwm`` when the reset
works, ``getrusage`` otherwise), so consumers — the end-to-end
benchmark, the RSS regression test — can tell a real per-phase peak
from the monotone fallback.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")

T = TypeVar("T")


def _status_field_bytes(field: str) -> int | None:
    """A ``kB`` field from ``/proc/self/status``, in bytes (None off-Linux)."""
    try:
        text = _STATUS.read_text(encoding="ascii")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1]) * 1024
    return None


def current_rss_bytes() -> int:
    """The process's current resident set size in bytes (``VmRSS``).

    Falls back to the getrusage high-water mark where ``/proc`` is
    unavailable — an over-estimate, but never an under-estimate.
    """
    value = _status_field_bytes("VmRSS")
    return value if value is not None else peak_rss_bytes()


def peak_rss_bytes() -> int:
    """High-water-mark RSS in bytes since process start (monotone).

    ``ru_maxrss`` is kilobytes on Linux; this is the
    ``resource.getrusage`` number the bench records as its portable
    baseline.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def vm_hwm_bytes() -> int | None:
    """The ``VmHWM`` high-water mark in bytes, or None off-Linux."""
    return _status_field_bytes("VmHWM")


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS; True when the reset worked.

    Only the ``/proc`` high-water mark resets — ``ru_maxrss`` stays
    monotone — so callers must check the return value before trusting a
    per-phase reading.
    """
    try:
        # /proc/self/clear_refs is a kernel control interface, not an
        # artefact: atomic rename onto procfs is impossible by design.
        # repro: allow[resource-lifetime] — kernel interface write
        with _CLEAR_REFS.open("w") as handle:
            handle.write("5")
    except OSError:
        return False
    return vm_hwm_bytes() is not None


@dataclass(frozen=True)
class PhaseRss:
    """Peak RSS attribution for one measured phase."""

    peak_bytes: int
    """High-water mark observed after the phase ran."""
    delta_bytes: int
    """Peak minus the RSS at phase start — the phase's own appetite."""
    source: str
    """``"vmhwm"`` (per-phase, reset worked) or ``"getrusage"`` (monotone)."""
    reset_supported: bool


def measure_phase_rss(fn: Callable[[], T]) -> tuple[T, PhaseRss]:
    """Run ``fn`` and attribute its peak RSS.

    When the high-water mark can be reset the numbers isolate this phase;
    otherwise they fall back to the monotone process-wide peak (still an
    upper bound, flagged via ``source``/``reset_supported``).
    """
    reset = reset_peak_rss()
    before = current_rss_bytes()
    result = fn()
    if reset:
        peak = vm_hwm_bytes()
        assert peak is not None  # reset_peak_rss() verified readability
        return result, PhaseRss(
            peak_bytes=peak,
            delta_bytes=max(peak - before, 0),
            source="vmhwm",
            reset_supported=True,
        )
    peak = peak_rss_bytes()
    return result, PhaseRss(
        peak_bytes=peak,
        delta_bytes=max(peak - before, 0),
        source="getrusage",
        reset_supported=False,
    )

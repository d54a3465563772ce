"""Peak resident-set-size measurement.

:mod:`repro.perf.rss` attributes peak resident-set-size to individual
phases of work (:func:`~repro.perf.rss.measure_phase_rss`); the
end-to-end benchmark (``perfbench/``) and the streaming-merge memory
test read it.
"""

from repro.perf.rss import PhaseRss, measure_phase_rss, reset_peak_rss

__all__ = [
    "PhaseRss",
    "measure_phase_rss",
    "reset_peak_rss",
]

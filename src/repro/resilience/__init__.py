"""Resilience layer: keep the serving stack answering when parts fail.

Three building blocks, wired through the app/persistence/pipeline layers:

- :mod:`~repro.resilience.breaker` — a :class:`CircuitBreaker`
  (closed/open/half-open) guarding the primary model in
  :class:`~repro.app.service.RecommendationService`;
- :mod:`~repro.resilience.artefacts` — crash-safe writes
  (:func:`atomic_write`) and SHA-256 checksum manifests
  (:func:`write_manifest` / :func:`verify_manifest`);
- :func:`fault_check` — the crash-point hook persistence code calls at
  each write, rename and read; a no-op unless a chaos test armed a fault
  injector (``tests/resilience/faults.py``) through
  :func:`~repro.resilience._ambient.set_ambient`.
"""

from repro.resilience._ambient import fault_check
from repro.resilience.artefacts import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    atomic_write,
    manifest_path_for,
    sha256_file,
    verify_manifest,
    write_manifest,
)
from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)

__all__ = [
    "CircuitBreaker",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "atomic_write",
    "fault_check",
    "manifest_path_for",
    "sha256_file",
    "verify_manifest",
    "write_manifest",
]

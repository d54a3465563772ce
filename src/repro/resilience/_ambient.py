"""The ambient fault-injection hook.

Persistence code (``resilience/artefacts``, ``app/persistence``) calls
:func:`fault_check` at its crash points. Chaos tests arm it with a fault
injector (``tests/resilience/faults.py``) through :func:`set_ambient`;
otherwise every check is a no-op.
"""

from __future__ import annotations

_active = None


def set_ambient(injector):
    """Swap the ambient injector; returns the previous one (for restore)."""
    global _active
    previous = _active
    _active = injector
    return previous


def fault_check(site: str) -> None:
    """Crash-point hook for code without an injectable seam (file I/O).

    No-op in production; when a chaos test armed an injector, calls its
    ``check(site)``, which raises when the injector decides this call
    fails.
    """
    if _active is not None:
        _active.check(site)

"""Stdlib-only atomic writes for the analyzer's own artefacts.

The sanctioned project-wide write path is
:func:`repro.resilience.artefacts.atomic_write`, but it lives outside
this package, and :func:`~repro.analysis.runner.run_check` needs only the
standard library and ``repro.analysis`` itself, so this module
re-implements the same temp-file + fsync + rename sequence with nothing
but the stdlib (no fault-injection hooks; the analyzer is not under chaos
testing).

The ``resource-lifetime`` rule treats this module as a sanctioned write
implementation, exactly like the artefacts module itself.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(
    path: Path, mode: str = "w", encoding: str | None = None
) -> Iterator[IO]:
    """Write ``path`` atomically: temp file, fsync, then rename over.

    A crash at any point leaves either the previous file or nothing —
    never a torn write under the final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    handle = tmp.open(mode, encoding=encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise

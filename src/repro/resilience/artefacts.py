"""Crash-safe artefact writing and checksum manifests.

Two guarantees for everything the library persists:

1. **Atomicity** — :func:`atomic_write` writes to a hidden temp file in
   the same directory, flushes and fsyncs it, then ``os.replace``-renames
   it over the destination. A crash (or injected fault) at any point
   leaves either the previous artefact or nothing — never a half-written
   file under the final name.
2. **Integrity** — :func:`write_manifest` records the byte length and
   SHA-256 of each file beside the artefact; :func:`verify_manifest`
   re-hashes on load and raises a *precise* error: missing manifest,
   truncated file, corrupted bytes, or incompatible format version each
   get their own :class:`~repro.errors.PersistenceError` subclass.

The ambient :func:`~repro.resilience._ambient.fault_check` hooks
(``io.write`` before the temp file is written, ``io.rename`` between the
fsync and the rename) are the crash points the chaos suite drives.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from repro.errors import (
    ArtefactVersionError,
    ChecksumMismatchError,
    ManifestMissingError,
    PersistenceError,
    TruncatedArtefactError,
)
from repro.resilience._ambient import fault_check

#: Format version stamped into every manifest this release writes.
MANIFEST_VERSION = 1

#: Manifest file name for directory artefacts (single files use
#: ``<name>.manifest.json`` beside the file).
MANIFEST_NAME = "MANIFEST.json"

_CHUNK = 1 << 20


@contextmanager
def atomic_write(
    path: str | Path, mode: str = "w", **open_kwargs
) -> Iterator[IO]:
    """Open a temp file that replaces ``path`` only on successful exit.

    The temp file lives in the destination directory (same filesystem, so
    the final rename is atomic) under a dotted name invisible to loaders,
    tagged with the process id so two processes writing one path never
    share a temp file. On any exception the temp file is removed and
    ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    fault_check("io.write")
    handle = tmp.open(mode, **open_kwargs)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        fault_check("io.rename")
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Best-effort durability for the rename itself."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sha256_file(path: str | Path) -> str:
    """Streamed SHA-256 hex digest of a file."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path_for(artefact: str | Path) -> Path:
    """Where the manifest of ``artefact`` lives.

    Directories keep a ``MANIFEST.json`` inside; single files get a
    ``<name>.manifest.json`` sibling.
    """
    artefact = Path(artefact)
    if artefact.is_dir():
        return artefact / MANIFEST_NAME
    return artefact.with_name(artefact.name + ".manifest.json")


def write_manifest(
    artefact: str | Path,
    files: list[Path],
    kind: str,
    extra: dict | None = None,
) -> Path:
    """Write the checksum manifest for ``files`` beside ``artefact``.

    Args:
        artefact: the artefact the manifest describes (file or directory);
            determines the manifest location via :func:`manifest_path_for`.
        files: the files to fingerprint (hashed as they are on disk now).
        kind: artefact kind tag (``"merged-corpus"``, ``"bpr-model"``, ...);
            checked on load so a model manifest cannot vouch for a dataset.
        extra: optional extra keys merged into the manifest root.
    """
    manifest_path = manifest_path_for(artefact)
    entries = {}
    for file in files:
        file = Path(file)
        entries[file.name] = {
            "bytes": file.stat().st_size,
            "sha256": sha256_file(file),
        }
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": kind,
        "files": entries,
    }
    if extra:
        manifest.update(extra)
    with atomic_write(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def read_manifest(artefact: str | Path, kind: str | None = None) -> dict:
    """The manifest beside ``artefact``, parsed and checked, no file hashed.

    Raises:

    - :class:`ManifestMissingError` — no manifest beside the artefact;
    - :class:`ArtefactVersionError` — manifest written by an incompatible
      format version, or its ``kind`` does not match ``kind``;
    - :class:`PersistenceError` — the manifest itself is unreadable.
    """
    artefact = Path(artefact)
    manifest_path = manifest_path_for(artefact)
    if not manifest_path.exists():
        raise ManifestMissingError(
            f"{artefact} has no checksum manifest ({manifest_path.name}); "
            "was it written by run_merge(output_dir=...) or save_bpr?"
        )
    fault_check("io.read")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"cannot read manifest {manifest_path}: {exc}"
        ) from exc
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ArtefactVersionError(
            f"{manifest_path} has manifest_version {version!r}; this build "
            f"reads version {MANIFEST_VERSION}"
        )
    if kind is not None and manifest.get("kind") != kind:
        raise ArtefactVersionError(
            f"{manifest_path} describes a {manifest.get('kind')!r} artefact, "
            f"expected {kind!r}"
        )
    return manifest


def verify_manifest(artefact: str | Path, kind: str | None = None) -> dict:
    """Verify every file listed in the manifest beside ``artefact``.

    Returns the parsed manifest on success. Raises what
    :func:`read_manifest` raises, and:

    - :class:`TruncatedArtefactError` — a file is shorter than recorded;
    - :class:`ChecksumMismatchError` — byte length matches (or exceeds)
      the record but the SHA-256 does not;
    - :class:`PersistenceError` — a listed file is absent.
    """
    artefact = Path(artefact)
    manifest = read_manifest(artefact, kind=kind)
    base = artefact if artefact.is_dir() else artefact.parent
    for name, entry in manifest.get("files", {}).items():
        file = base / name
        if not file.exists():
            raise PersistenceError(
                f"{artefact}: file {name!r} listed in the manifest is missing"
            )
        actual_bytes = file.stat().st_size
        if actual_bytes < int(entry["bytes"]):
            raise TruncatedArtefactError(
                f"{file} is truncated: {actual_bytes} bytes on disk, "
                f"manifest records {entry['bytes']}"
            )
        actual_sha = sha256_file(file)
        if actual_sha != entry["sha256"]:
            raise ChecksumMismatchError(
                f"{file} is corrupt: sha256 {actual_sha[:12]}... does not "
                f"match manifest {entry['sha256'][:12]}..."
            )
    return manifest

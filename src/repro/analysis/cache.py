"""The incremental analysis cache behind warm ``repro check`` runs.

A full ``src/`` run parses every file and rebuilds the dataflow layer;
on an unchanged tree that work is pure waste. The cache keys one run's
*post-suppression* findings on everything that could change them:

- each analyzed file's ``(relpath, sha256(source))`` pair — any edit,
  including a pragma edit, changes the digest and misses;
- the active rules' ``(rule_id, version)`` pairs, in order — bumping a
  rule's :attr:`~repro.analysis.rules.base.Rule.version` invalidates
  cold caches when its findings can change for unchanged sources;
- the engine's :data:`CACHE_VERSION` and the resolved root.

A hit restores the findings (witness trails included) without touching
``ast.parse`` — only file reads for hashing — so warm runs are
measurably faster and byte-identical. Baseline filtering happens after
the cache layer, so editing the baseline file never needs ``--no-cache``.
Entries are JSON files under ``.cache/repro-check/`` written through
:func:`repro.resilience.artefacts.atomic_write` (standard library only,
like the rest of the analyzer); stale entries are pruned oldest-first
past :data:`MAX_ENTRIES`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.dataflow import WitnessStep
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.resilience.artefacts import atomic_write

#: Bumped when the cache payload layout or engine semantics change.
CACHE_VERSION = 1

#: Default cache directory, relative to the repository root.
CACHE_DIRNAME = Path(".cache") / "repro-check"

#: Entries kept before oldest-first pruning.
MAX_ENTRIES = 32


def hash_files(
    paths: Iterable[Path], root: Path
) -> list[tuple[str, str]]:
    """Sorted ``(relpath, sha256)`` pairs over the analyzed files."""
    entries: list[tuple[str, str]] = []
    for path in paths:
        resolved = Path(path).resolve()
        try:
            relpath = resolved.relative_to(root).as_posix()
        except ValueError:
            relpath = resolved.as_posix()
        digest = hashlib.sha256(resolved.read_bytes()).hexdigest()
        entries.append((relpath, digest))
    return sorted(entries)


def cache_key(
    entries: Sequence[tuple[str, str]],
    rules: Sequence[Rule],
    root: Path,
) -> str:
    """The content-addressed key of one analyzer run."""
    hasher = hashlib.sha256()
    hasher.update(f"cache-version:{CACHE_VERSION}\n".encode())
    hasher.update(f"root:{root}\n".encode())
    for rule in rules:
        hasher.update(f"rule:{rule.rule_id}@{rule.version}\n".encode())
    for relpath, digest in entries:
        hasher.update(f"file:{relpath}:{digest}\n".encode())
    return hasher.hexdigest()


def load_cached(cache_dir: Path, key: str) -> dict | None:
    """The stored payload for ``key``, or ``None`` on miss/corruption."""
    path = Path(cache_dir) / f"{key}.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("cache_version") != CACHE_VERSION
    ):
        return None
    return payload


def store_cached(cache_dir: Path, key: str, payload: dict) -> None:
    """Persist ``payload`` under ``key``, pruning old entries.

    Cache writes are best-effort: an unwritable cache directory must
    never fail the check run itself.
    """
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with atomic_write(
            cache_dir / f"{key}.json", "w", encoding="utf-8"
        ) as handle:
            json.dump(
                {"cache_version": CACHE_VERSION, **payload},
                handle,
                sort_keys=True,
            )
            handle.write("\n")
        entries = sorted(
            cache_dir.glob("*.json"), key=lambda p: p.stat().st_mtime
        )
        for stale in entries[: max(0, len(entries) - MAX_ENTRIES)]:
            stale.unlink(missing_ok=True)
    except OSError:
        return


def findings_to_payload(findings: Iterable[Finding]) -> list[dict]:
    """Findings (witness included) as JSON-safe cache entries."""
    return [finding.as_dict() for finding in findings]


def findings_from_payload(entries: Iterable[dict]) -> list[Finding]:
    """Reconstruct findings from :func:`findings_to_payload` output."""
    out: list[Finding] = []
    for entry in entries:
        witness = tuple(
            WitnessStep(
                path=step["path"], line=step["line"], note=step["note"]
            )
            for step in entry.get("witness", [])
        )
        out.append(
            Finding(
                path=entry["path"],
                line=entry["line"],
                rule=entry["rule"],
                message=entry["message"],
                severity=entry["severity"],
                witness=witness,
            )
        )
    return out

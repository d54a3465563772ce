"""Inline suppression pragmas and the committed findings baseline.

Two escape hatches keep the analyzer's "must run clean" gate livable:

- the **inline pragma** ``# repro: allow[rule-id]`` on the flagged line
  — or on its own line directly above, for statements with no room —
  silences that rule there (comma-separate several ids; everything
  after the closing bracket is the human justification). The same
  syntax works inside markdown (``<!-- repro: allow[links] -->``)
  because suppression is matched against the raw line text, whatever
  the file type. For Python sources the pragma is *span-aware*: a
  pragma anywhere on a multi-line simple statement covers the whole
  statement, and a pragma on (or directly above) a ``def``/``class``
  header — decorators included — covers the full header span, so a
  finding reported at the ``def`` line is suppressed even when
  decorators push the pragma several physical lines away;
- the **baseline file** — JSON produced by ``repro check
  --write-baseline`` — grandfathers existing findings by their
  line-independent :attr:`~repro.analysis.findings.Finding.fingerprint`,
  so a rule can be introduced strictly ("no *new* findings") before the
  backlog is paid down.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.analysis.dataflow import header_span, iter_statements
from repro.analysis.findings import Finding
from repro.resilience.artefacts import atomic_write

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.model import SourceFile

#: ``# repro: allow[rule-id, other-id] — justification`` (the ``<!--``
#: opener covers markdown, where the pragma lives in an HTML comment).
PRAGMA_PATTERN = re.compile(r"(?:#|<!--)\s*repro:\s*allow\[([^\]]+)\]")

#: Version stamp written into (and required from) baseline files.
BASELINE_VERSION = 1


def allowed_rules(line: str) -> set[str]:
    """Rule ids suppressed by pragmas on this raw source line."""
    rules: set[str] = set()
    for match in PRAGMA_PATTERN.finditer(line):
        rules.update(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
    return rules


def is_suppressed(finding: Finding, line: str) -> bool:
    """Whether the raw text of the flagged line suppresses ``finding``."""
    return finding.rule in allowed_rules(line)


def pragma_line_map(source: "SourceFile") -> dict[int, set[str]]:
    """``line -> suppressed rule ids`` for one parsed Python file.

    Three layers, from coarse to fine:

    - a pragma on line ``L`` covers ``L`` and ``L + 1`` (the classic
      "own line directly above" placement);
    - a pragma anywhere on a multi-line *simple* statement covers the
      statement's full line span (so the pragma can trail the closing
      paren of a wrapped call);
    - a pragma on — or directly above — a *compound* statement's header
      (decorators through the ``def``/``class``/``with`` line) covers
      the whole header span, but **not** the body: suppressing a
      decorated ``def``'s docstring finding must not silence every
      finding inside the function.
    """
    cover: dict[int, set[str]] = {}

    def add(line_number: int, rules: set[str]) -> None:
        if rules:
            cover.setdefault(line_number, set()).update(rules)

    line_rules: dict[int, set[str]] = {}
    for index, text in enumerate(source.lines, start=1):
        rules = allowed_rules(text)
        if rules:
            line_rules[index] = rules
            add(index, rules)
            add(index + 1, rules)
    if not line_rules:
        return cover

    def span_rules(start: int, stop: int) -> set[str]:
        found: set[str] = set()
        for line_number in range(max(1, start), stop + 1):
            found |= line_rules.get(line_number, set())
        return found

    for stmt in iter_statements(source.tree):
        start, header_end = header_span(stmt)
        end = stmt.end_lineno or stmt.lineno
        if hasattr(stmt, "body") and isinstance(
            getattr(stmt, "body"), list
        ):
            rules = span_rules(start - 1, header_end)
            for line_number in range(start, header_end + 1):
                add(line_number, rules)
        else:
            rules = span_rules(start - 1, end)
            for line_number in range(start, end + 1):
                add(line_number, rules)
    return cover


def load_baseline(path: Path) -> set[str]:
    """The grandfathered fingerprints recorded in a baseline file.

    Raises:
        ValueError: when the file is not a baseline of a known version.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path} is not a repro-check baseline "
            f"(expected version {BASELINE_VERSION})"
        )
    return set(data.get("findings", []))


def write_baseline(findings: Iterable[Finding], path: Path) -> None:
    """Write ``findings`` as the new baseline at ``path`` (atomically)."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": sorted({finding.fingerprint for finding in findings}),
    }
    with atomic_write(Path(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

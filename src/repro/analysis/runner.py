"""Orchestration: build the model, run the rules, filter, render.

:func:`run_check` is the single entry point behind ``python -m repro
check``, the tier-1 gate (``tests/analysis/test_src_clean.py``), and the
CI job. It builds one :class:`~repro.analysis.model.ProjectModel`, runs
every requested rule's per-file and per-project hooks, then applies the
two suppression layers (inline pragmas — span-aware for Python files,
raw-line for markdown — then the baseline file) and returns a
:class:`CheckResult` that renders as text, JSON, or SARIF 2.1.0.

With ``cache_dir`` set, a run whose sources and rules are unchanged is
served from the incremental cache (:mod:`repro.analysis.cache`) without
re-parsing anything; baseline filtering is applied after the cache so a
baseline edit alone never stales an entry.

Everything here is stdlib-only on purpose: :func:`run_check` needs
nothing beyond the standard library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.model import (
    ProjectModel,
    build_project,
    collect_python_files,
)
from repro.analysis.rules import Rule, default_rules
from repro.analysis.suppress import (
    is_suppressed,
    load_baseline,
    pragma_line_map,
)

#: Markers that identify the repository root when walking upwards.
ROOT_MARKERS = ("pyproject.toml", ".git")

#: Schema version stamped into ``--format json`` output. v2 adds the
#: per-finding ``witness`` array and the dataflow rules.
JSON_VERSION = 2

#: SARIF constants for ``--format sarif``.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-check"


@dataclass
class CheckResult:
    """The outcome of one analyzer run."""

    findings: list[Finding]
    files_checked: int
    suppressed: int = 0
    baselined: int = 0
    root: Path = field(default_factory=Path)
    #: ``(rule_id, description)`` of every rule that ran, in run order.
    rule_meta: list[tuple[str, str]] = field(default_factory=list)
    #: Post-pragma, *pre-baseline* findings — what ``--explain`` and
    #: ``--write-baseline`` operate on.
    all_findings: list[Finding] = field(default_factory=list, repr=False)
    #: Whether this result was served from the incremental cache.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the run is clean (exit code 0)."""
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        """``rule id -> surviving finding count`` (sorted by id)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict:
        """The ``--format json`` payload."""
        return {
            "version": JSON_VERSION,
            "root": str(self.root),
            "files_checked": self.files_checked,
            "findings": [finding.as_dict() for finding in self.findings],
            "counts": {
                "total": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "by_rule": self.counts_by_rule(),
            },
        }

    def render_text(self) -> str:
        """The human-readable report (one line per finding + summary)."""
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            by_rule = ", ".join(
                f"{rule}={count}"
                for rule, count in self.counts_by_rule().items()
            )
            lines.append(
                f"repro check: {len(self.findings)} finding(s) "
                f"[{by_rule}] in {self.files_checked} file(s)"
            )
        else:
            extras = []
            if self.suppressed:
                extras.append(f"{self.suppressed} suppressed")
            if self.baselined:
                extras.append(f"{self.baselined} baselined")
            suffix = f" ({', '.join(extras)})" if extras else ""
            lines.append(
                f"repro check: clean — {self.files_checked} file(s), "
                f"0 findings{suffix}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        """The machine-readable report."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def as_sarif(self) -> dict:
        """The run as a SARIF 2.1.0 log object.

        Witness paths become ``relatedLocations`` on each result, and
        the line-independent fingerprint ships as a
        ``partialFingerprints`` entry so SARIF viewers track findings
        across rebases the same way the baseline file does.
        """
        results = []
        for finding in self.findings:
            result: dict = {
                "ruleId": finding.rule,
                "level": (
                    "error"
                    if finding.severity == SEVERITY_ERROR
                    else "warning"
                ),
                "message": {"text": finding.message},
                "locations": [
                    _sarif_location(finding.path, finding.line)
                ],
                "partialFingerprints": {
                    "reproCheck/v1": finding.fingerprint
                },
            }
            if finding.witness:
                result["relatedLocations"] = [
                    {
                        **_sarif_location(step.path, step.line),
                        "message": {"text": step.note},
                    }
                    for step in finding.witness
                ]
            results.append(result)
        return {
            "$schema": SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": TOOL_NAME,
                            "informationUri": (
                                "https://example.invalid/repro-check"
                            ),
                            "rules": [
                                {
                                    "id": rule_id,
                                    "shortDescription": {
                                        "text": description or rule_id
                                    },
                                }
                                for rule_id, description in self.rule_meta
                            ],
                        }
                    },
                    "columnKind": "utf16CodeUnits",
                    "results": results,
                }
            ],
        }

    def render_sarif(self) -> str:
        """The ``--format sarif`` report."""
        return json.dumps(self.as_sarif(), indent=2, sort_keys=True)


def _sarif_location(path: str, line: int) -> dict:
    """One SARIF physicalLocation for a repo-relative path."""
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": max(1, line)},
        }
    }


def explain_finding(result: CheckResult, fingerprint: str) -> str | None:
    """The witness-path walkthrough for one finding, or ``None``.

    ``fingerprint`` may be any unique prefix of a full
    ``rule::path::message`` fingerprint; matching runs over
    :attr:`CheckResult.all_findings`, so baselined findings can be
    explained too.
    """
    matches = [
        finding
        for finding in result.all_findings
        if finding.fingerprint == fingerprint
        or finding.fingerprint.startswith(fingerprint)
    ]
    if not matches:
        return None
    blocks = []
    for finding in matches:
        lines = [finding.render(), f"  fingerprint: {finding.fingerprint}"]
        if finding.witness:
            lines.append("  witness path:")
            lines.extend(
                f"    {index}. {step.render()}"
                for index, step in enumerate(finding.witness, start=1)
            )
        else:
            lines.append(
                "  witness path: (syntactic finding — flagged directly "
                "at the reported line)"
            )
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def detect_root(paths: Sequence[Path]) -> Path:
    """The nearest ancestor of the first path that looks like a repo root."""
    start = Path(paths[0]).resolve() if paths else Path.cwd()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in ROOT_MARKERS):
            return candidate
    return start


def select_rules(
    rules: Iterable[Rule], rule_ids: Sequence[str] | None
) -> list[Rule]:
    """The subset of ``rules`` matching ``rule_ids`` (all when ``None``).

    Raises:
        ValueError: when an id names no known rule.
    """
    rules = list(rules)
    if not rule_ids:
        return rules
    known = {rule.rule_id: rule for rule in rules}
    missing = [rule_id for rule_id in rule_ids if rule_id not in known]
    if missing:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(missing))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [known[rule_id] for rule_id in rule_ids]


def run_check(
    paths: Sequence[Path | str],
    root: Path | str | None = None,
    rules: Iterable[Rule] | None = None,
    rule_ids: Sequence[str] | None = None,
    baseline: Path | str | None = None,
    cache_dir: Path | str | None = None,
) -> CheckResult:
    """Run the analyzer over ``paths`` and return the filtered result.

    Args:
        paths: files or directories of Python sources to analyze.
        root: repository root for relative paths and markdown scanning;
            auto-detected from the first path when omitted.
        rules: rule instances to run (default: :func:`default_rules`).
        rule_ids: optional ordered filter over the rules' ids.
        baseline: optional baseline file of grandfathered fingerprints.
        cache_dir: directory for the incremental cache; ``None`` (the
            default) disables caching entirely.
    """
    from repro.analysis import cache as cache_mod

    path_list = [Path(p) for p in paths]
    resolved_root = (
        Path(root).resolve() if root is not None else detect_root(path_list)
    )
    active = select_rules(
        default_rules() if rules is None else rules, rule_ids
    )
    rule_meta = [(rule.rule_id, rule.description) for rule in active]

    key = None
    kept: list[Finding] | None = None
    suppressed = 0
    files_checked = 0
    from_cache = False
    if cache_dir is not None:
        entries = cache_mod.hash_files(
            collect_python_files(path_list), resolved_root
        )
        key = cache_mod.cache_key(entries, active, resolved_root)
        payload = cache_mod.load_cached(Path(cache_dir), key)
        if payload is not None:
            kept = cache_mod.findings_from_payload(payload["findings"])
            suppressed = payload["suppressed"]
            files_checked = payload["files_checked"]
            from_cache = True

    if kept is None:
        model = build_project(path_list, resolved_root)
        raw: list[Finding] = []
        for rule in active:
            for source in model.files:
                raw.extend(rule.check_file(source, model))
            raw.extend(rule.check_project(model))
        raw = sorted(set(raw))
        kept, suppressed = _apply_pragmas(raw, model, resolved_root)
        files_checked = len(model.files)
        if cache_dir is not None and key is not None:
            cache_mod.store_cached(
                Path(cache_dir),
                key,
                {
                    "findings": cache_mod.findings_to_payload(kept),
                    "suppressed": suppressed,
                    "files_checked": files_checked,
                },
            )

    baselined = 0
    surviving = kept
    if baseline is not None and Path(baseline).exists():
        grandfathered = load_baseline(Path(baseline))
        surviving = []
        for finding in kept:
            if finding.fingerprint in grandfathered:
                baselined += 1
            else:
                surviving.append(finding)

    return CheckResult(
        findings=surviving,
        files_checked=files_checked,
        suppressed=suppressed,
        baselined=baselined,
        root=resolved_root,
        rule_meta=rule_meta,
        all_findings=kept,
        from_cache=from_cache,
    )


def _apply_pragmas(
    raw: Sequence[Finding], model: ProjectModel, root: Path
) -> tuple[list[Finding], int]:
    """Split raw findings into (kept, suppressed-count) via pragmas.

    Findings in parsed Python files use the span-aware
    :func:`~repro.analysis.suppress.pragma_line_map`; findings in files
    outside the model (markdown links) fall back to matching the raw
    text of the flagged line and the line above.
    """
    by_relpath = {source.relpath: source for source in model.files}
    span_maps: dict[str, dict[int, set[str]]] = {}
    line_cache: dict[str, list[str]] = {}
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        source = by_relpath.get(finding.path)
        if source is not None:
            span_map = span_maps.get(finding.path)
            if span_map is None:
                span_map = pragma_line_map(source)
                span_maps[finding.path] = span_map
            hit = finding.rule in span_map.get(finding.line, ())
        else:
            texts = (
                _line_text(finding, finding.line, root, model, line_cache),
                _line_text(
                    finding, finding.line - 1, root, model, line_cache
                ),
            )
            hit = any(is_suppressed(finding, text) for text in texts)
        if hit:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def _line_text(
    finding: Finding,
    line: int,
    root: Path,
    model: ProjectModel,
    cache: dict[str, list[str]],
) -> str:
    """The raw text of line ``line`` of a finding's file ("" if absent)."""
    lines = cache.get(finding.path)
    if lines is None:
        for source in model.files:
            if source.relpath == finding.path:
                lines = source.lines
                break
        else:
            target = root / finding.path
            try:
                lines = target.read_text(encoding="utf-8").splitlines()
            except OSError:
                lines = []
        cache[finding.path] = lines
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""

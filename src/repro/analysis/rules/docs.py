"""Docs-integrity rules: docstring coverage and intra-repo link checks.

Both run under ``python -m repro check`` with every other repository
invariant: one runner, one suppression syntax, and one output format.

Two rules:

- :class:`DocstringRule` (``docstrings``) — every module, public class,
  and public function/method in the gated packages
  (:data:`CHECKED_PACKAGES`) must carry a docstring. ``__init__`` and
  friends are exempt (the class docstring documents construction);
- :class:`LinkRule` (``links``) — every relative markdown link under the
  project root must resolve to an existing file or directory. External
  targets and pure in-page anchors are ignored.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile
from repro.analysis.rules.base import Rule

#: Packages (as ``src/``-relative path fragments) whose public API must
#: be documented.
CHECKED_PACKAGES = (
    "repro/parallel",
    "repro/obs",
    "repro/resilience",
    "repro/analysis",
)

#: ``[text](target)`` — target captured lazily so nested parens in text
#: don't confuse the scan; images (``![alt](...)``) match too, which is
#: intended.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Directories never scanned for markdown sources.
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", "node_modules"}

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


# ----------------------------------------------------------------------
# docstring coverage
# ----------------------------------------------------------------------


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _has_docstring(node: ast.AST) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _missing_in_scope(
    node: ast.AST, scope: str, public_scope: bool
) -> list[tuple[int, str]]:
    """``(line, qualified name)`` for every undocumented public def."""
    missing: list[tuple[int, str]] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not public_scope or not _is_public(child.name):
                continue
            qualified = f"{scope}{child.name}"
            if not _has_docstring(child):
                missing.append((child.lineno, f"function {qualified}"))
        elif isinstance(child, ast.ClassDef):
            class_public = public_scope and _is_public(child.name)
            qualified = f"{scope}{child.name}"
            if class_public and not _has_docstring(child):
                missing.append((child.lineno, f"class {qualified}"))
            missing.extend(
                _missing_in_scope(child, f"{qualified}.", class_public)
            )
    return missing


def missing_docstrings_in_tree(tree: ast.Module) -> list[tuple[int, str]]:
    """All undocumented public definitions in one parsed module."""
    missing = []
    if not _has_docstring(tree):
        missing.append((1, "module"))
    missing.extend(_missing_in_scope(tree, "", True))
    return missing


# ----------------------------------------------------------------------
# markdown link integrity
# ----------------------------------------------------------------------


def markdown_files(root: Path) -> list[Path]:
    """Every ``*.md`` under ``root``, skipping VCS/cache directories."""
    return sorted(
        path
        for path in root.rglob("*.md")
        if not any(part in SKIP_DIRS for part in path.parts)
    )


def broken_links(path: Path, root: Path) -> list[tuple[int, str]]:
    """``(line number, target)`` for every unresolvable link in ``path``."""
    failures: list[tuple[int, str]] = []
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in LINK_PATTERN.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if relative.startswith("/"):
                resolved = root / relative.lstrip("/")
            else:
                resolved = path.parent / relative
            if not resolved.exists():
                failures.append((line_number, target))
    return failures


# ----------------------------------------------------------------------
# the framework rules
# ----------------------------------------------------------------------


class DocstringRule(Rule):
    """Flag undocumented public API in the gated packages."""

    rule_id = "docstrings"
    description = (
        "public modules, classes, and functions of the growth-layer "
        "packages carry docstrings"
    )

    def __init__(
        self, packages: Iterable[str] = CHECKED_PACKAGES
    ) -> None:
        self.packages = tuple(packages)

    def _gated(self, source: SourceFile) -> bool:
        padded = "/" + source.relpath
        return any(
            f"/{package}/" in padded or padded.endswith(f"/{package}")
            for package in self.packages
        )

    def check_file(
        self, source: SourceFile, model: ProjectModel
    ) -> Iterable[Finding]:
        """Flag undocumented public definitions in a gated file."""
        if not self._gated(source):
            return
        for line, what in missing_docstrings_in_tree(source.tree):
            yield self.finding(
                source.relpath, line, f"missing docstring on {what}"
            )


class LinkRule(Rule):
    """Flag markdown links that do not resolve inside the repository."""

    rule_id = "links"
    description = "every intra-repo markdown link resolves to a real path"

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Flag broken relative links in every markdown file under root."""
        root = model.root
        for path in markdown_files(root):
            for line, target in broken_links(path, root):
                yield self.finding(
                    path.relative_to(root).as_posix(),
                    line,
                    f"broken link -> {target}",
                )

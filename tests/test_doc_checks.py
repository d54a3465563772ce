"""Documentation gates: docstring coverage and intra-repo link integrity.

Runs the ``docstrings`` and ``links`` rules of ``python -m repro check``
over the repository itself, both through the rule module's helpers and
through the CLI with its exit code, so the gates are part of tier-1.
The rules' behaviour on synthetic trees is pinned in
``tests/analysis/test_docs_rules.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.rules.docs import (
    CHECKED_PACKAGES,
    broken_links,
    markdown_files,
    missing_docstrings_in_tree,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"


def _check(rule_id: str, root: Path, path: Path) -> int:
    return main(
        ["check", "--no-cache", "--rule", rule_id, "--root", str(root),
         str(path)]
    )


class TestDocstringGate:
    def test_growth_packages_fully_documented(self):
        failures = []
        for package in CHECKED_PACKAGES:
            package_root = SRC_ROOT / package
            assert package_root.is_dir(), f"{package}: package missing"
            for path in sorted(package_root.rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                failures.extend(
                    f"{path.relative_to(SRC_ROOT)}:{line}: {what}"
                    for line, what in missing_docstrings_in_tree(tree)
                )
        assert failures == []

    def test_main_exits_zero_on_repo(self, capsys):
        assert _check("docstrings", REPO_ROOT, SRC_ROOT) == 0
        assert "repro check: clean" in capsys.readouterr().out

    def test_missing_module_docstring_is_line_one(self):
        tree = ast.parse("x = 1\n")
        assert missing_docstrings_in_tree(tree) == [(1, "module")]


class TestLinkGate:
    def test_repo_links_all_resolve(self):
        failures = [
            f"{path.relative_to(REPO_ROOT)}:{line}: broken link -> {target}"
            for path in markdown_files(REPO_ROOT)
            for line, target in broken_links(path, REPO_ROOT)
        ]
        assert failures == []

    def test_main_exits_zero_on_repo(self, capsys):
        assert _check("links", REPO_ROOT, SRC_ROOT) == 0
        assert "repro check: clean" in capsys.readouterr().out

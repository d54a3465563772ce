"""The docs-integrity rules: docstring coverage and markdown links."""

from __future__ import annotations

from repro.analysis import DocstringRule, LinkRule

UNDOCUMENTED = '''\
"""Module docstring present."""


def exposed():
    return 1


class Public:
    """Documented class."""

    def method(self):
        return 2

    def _private(self):
        return 3
'''

DOCUMENTED = '''\
"""Module docstring present."""


def exposed():
    """Documented function."""
    return 1
'''


class TestDocstringRule:
    def test_gated_package_violations_flagged(self, check_tree):
        rule = DocstringRule(packages=("pkg",))
        result = check_tree(
            {"pkg/__init__.py": '"""Pkg."""\n', "pkg/mod.py": UNDOCUMENTED},
            rules=[rule],
        )
        messages = [finding.message for finding in result.findings]
        assert "missing docstring on function exposed" in messages
        assert "missing docstring on function Public.method" in messages
        assert len(result.findings) == 2  # _private is exempt

    def test_missing_module_docstring_flagged(self, check_tree):
        rule = DocstringRule(packages=("pkg",))
        result = check_tree(
            {"pkg/__init__.py": '"""Pkg."""\n', "pkg/mod.py": "VALUE = 1\n"},
            rules=[rule],
        )
        assert any(
            finding.message == "missing docstring on module"
            and finding.line == 1
            for finding in result.findings
        )

    def test_documented_file_is_clean(self, check_tree):
        rule = DocstringRule(packages=("pkg",))
        result = check_tree(
            {"pkg/__init__.py": '"""Pkg."""\n', "pkg/mod.py": DOCUMENTED},
            rules=[rule],
        )
        assert result.ok, result.render_text()

    def test_undocumented_definitions_are_found(self, check_tree):
        """Public methods of public classes count; private names, and
        every method of a private class, are exempt."""
        rule = DocstringRule(packages=("pkg",))
        result = check_tree(
            {
                "pkg/__init__.py": '"""Pkg."""\n',
                "pkg/mod.py": (
                    '"""Module doc."""\n'
                    "class Public:\n"
                    '    """Doc."""\n'
                    "    def documented(self):\n"
                    '        """Doc."""\n'
                    "    def naked(self):\n"
                    "        pass\n"
                    "    def _private(self):\n"
                    "        pass\n"
                    "class _Hidden:\n"
                    "    def anything(self):\n"
                    "        pass\n"
                    "def bare():\n"
                    "    pass\n"
                ),
            },
            rules=[rule],
        )
        assert sorted(finding.message for finding in result.findings) == [
            "missing docstring on function Public.naked",
            "missing docstring on function bare",
        ]

    def test_ungated_package_is_ignored(self, check_tree):
        rule = DocstringRule(packages=("pkg",))
        result = check_tree(
            {"other/__init__.py": "", "other/mod.py": "VALUE = 1\n"},
            rules=[rule],
        )
        assert result.ok


class TestLinkRule:
    def test_broken_link_flagged(self, check_tree):
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                "README.md": "See [the guide](docs/missing.md) here.\n",
            },
            rules=[LinkRule()],
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "links"
        assert finding.path == "README.md"
        assert finding.message == "broken link -> docs/missing.md"

    def test_resolving_and_external_links_clean(self, check_tree):
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                "docs/guide.md": "Back to [readme](../README.md).\n",
                "README.md": (
                    "[guide](docs/guide.md) and [site](https://example.org) "
                    "and [anchor](#section).\n"
                ),
            },
            rules=[LinkRule()],
        )
        assert result.ok, result.render_text()

    def test_markdown_pragma_suppresses(self, check_tree):
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                "README.md": (
                    "[gone](missing.md) "
                    "<!-- repro: allow[links] — intentionally dangling -->\n"
                ),
            },
            rules=[LinkRule()],
        )
        assert result.ok
        assert result.suppressed == 1

    def test_broken_link_is_reported(self, check_tree):
        """Only the dangling target is flagged: a link into an existing
        file's section, a pure anchor and an external URL all pass."""
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                "good.md": "target\n",
                "index.md": (
                    "[ok](good.md)\n"
                    "[anchor ok](good.md#section)\n"
                    "[pure anchor](#here)\n"
                    "[external](https://example.com/x)\n"
                    "[broken](missing.md)\n"
                ),
            },
            rules=[LinkRule()],
        )
        assert [(f.path, f.line, f.message) for f in result.findings] == [
            ("index.md", 5, "broken link -> missing.md")
        ]

    def test_root_absolute_links_resolve_from_root(self, check_tree):
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                "README.md": "hi\n",
                "docs/page.md": "[root](/README.md)\n[bad](/nope.md)\n",
            },
            rules=[LinkRule()],
        )
        assert [(f.path, f.line, f.message) for f in result.findings] == [
            ("docs/page.md", 2, "broken link -> /nope.md")
        ]

    def test_skip_dirs_are_not_scanned(self, check_tree):
        result = check_tree(
            {
                "mod.py": "VALUE = 1\n",
                ".git/note.md": "[broken](missing.md)\n",
            },
            rules=[LinkRule()],
        )
        assert result.ok, result.render_text()

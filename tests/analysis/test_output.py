"""CLI behaviour of ``python -m repro check``: formats and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from .conftest import build_tree

BAD = "import random\n"
GOOD = "VALUE = 1\n"


@pytest.fixture
def bad_tree(tmp_path):
    return build_tree(tmp_path, {"mod.py": BAD})


@pytest.fixture
def good_tree(tmp_path):
    return build_tree(tmp_path, {"mod.py": GOOD})


def check(tree, *extra):
    return main(["check", "--root", str(tree), *extra, str(tree)])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, good_tree, capsys):
        assert check(good_tree) == 0
        assert "repro check: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert check(bad_tree) == 1
        out = capsys.readouterr().out
        assert "mod.py:1: [seed-lineage]" in out

    def test_unknown_rule_exits_two(self, good_tree, capsys):
        # Ids of rules folded into others get no alias.
        for rule_id in ("nonsense", "locks", "determinism"):
            assert check(good_tree, "--rule", rule_id) == 2
            err = capsys.readouterr().err
            assert f"unknown rule id(s): {rule_id}" in err

    def test_rule_filter_limits_the_run(self, bad_tree):
        assert check(bad_tree, "--rule", "exceptions") == 0
        assert check(bad_tree, "--rule", "seed-lineage") == 1


class TestJsonSchema:
    def test_payload_shape(self, bad_tree, capsys):
        assert check(bad_tree, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["root"] == str(bad_tree)
        assert payload["files_checked"] == 1
        counts = payload["counts"]
        assert counts["total"] == len(payload["findings"]) == 1
        assert counts["by_rule"] == {"seed-lineage": 1}
        assert counts["suppressed"] == 0
        assert counts["baselined"] == 0
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "severity", "message"}
        assert finding["rule"] == "seed-lineage"
        assert finding["path"] == "mod.py"
        assert finding["line"] == 1
        assert finding["severity"] == "error"

    def test_clean_payload_is_valid_json(self, good_tree, capsys):
        assert check(good_tree, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

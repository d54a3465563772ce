"""No definition in ``src/repro`` that only tests reach.

Every ``def`` and ``class`` under ``src/repro/`` must be named somewhere
in the program: in ``src/``, ``perfbench/``, ``scripts/``, ``examples/``
or ``benchmarks/``. Names are read with :mod:`tokenize`, so docstrings and
comments do not count as callers, and neither do import statements nor
``__all__`` assignments (a re-export is not a use). Tests are left out on
purpose: code that only its own tests call is dead, and it goes with them.

The scan works by name, so a common name used elsewhere keeps an unused
definition alive; it errs towards keeping code, never towards deleting it.
"""

from __future__ import annotations

import ast
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PROGRAM = [ROOT / name for name in ("src", "perfbench", "scripts", "examples", "benchmarks")]

#: Definitions kept although nothing in the program names them.
ALLOWED = {
    "bucket_counts": "tests read a histogram's buckets through it to check bucket placement",
    "active_span": "tests check through it that no span is left open",
    "set_ambient": "chaos tests arm the fault_check crash points of persistence code with it",
    "materialise": "ShardedCorpus.materialise loads a corpus into memory as the sources the "
    "per-row oracle merges in the streaming-merge tests; ROADMAP item 3 makes it the "
    "in-memory generator",
}


def _references(path: Path) -> Counter:
    """NAME tokens of ``path``, minus import lines, ``__all__``
    assignments and the names that ``def``/``class`` introduce."""
    names: Counter = Counter()
    skipping = False
    at_statement_start = True
    previous = ""
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            kind, text = token.type, token.string
            if kind in (tokenize.NEWLINE, tokenize.ENDMARKER):
                skipping, at_statement_start = False, True
                continue
            if kind in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                continue
            if at_statement_start:
                at_statement_start = False
                skipping = text in ("import", "from", "__all__")
            if kind == tokenize.NAME and not skipping and previous not in ("def", "class"):
                names[text] += 1
            previous = text
    return names


def _definitions() -> dict[str, list[str]]:
    """Every def and class name under ``src/repro`` with its locations."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(node.name, []).append(where)
    return found


@pytest.fixture(scope="module")
def references() -> Counter:
    """How often the program names each identifier."""
    counts: Counter = Counter()
    for directory in PROGRAM:
        for path in directory.rglob("*.py"):
            counts.update(_references(path))
    return counts


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("visit_")


def test_every_definition_is_named_by_the_program(references):
    dead = sorted(
        f"{name} ({', '.join(places)})"
        for name, places in _definitions().items()
        if not references[name] and not _exempt(name) and name not in ALLOWED
    )
    assert not dead, (
        f"{len(dead)} definitions only tests reach; delete them with their "
        "tests, or allow one with its reason:\n  " + "\n  ".join(dead)
    )


def test_every_allowed_name_is_still_defined_and_unnamed(references):
    definitions = _definitions()
    stale = [
        name for name in ALLOWED
        if name not in definitions or references[name]
    ]
    assert not stale, f"allowlist entries no longer needed: {stale}"

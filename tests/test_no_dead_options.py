"""No defaulted parameter in ``src/repro`` that no call passes.

A parameter with a default selects a behaviour. If no call anywhere passes
it, only the default ever runs, and the parameter (with whatever path its
other values select) is dead. ``tests/test_no_dead_code.py`` finds unused
definitions by name; a name scan cannot see an unused keyword, so this
scan reads every call site instead.

Calls are collected from ``src/``, ``perfbench/``, ``scripts/``,
``examples/``, ``benchmarks/`` and ``tests/``. Matching errs towards
keeping a parameter, never towards deleting it:

- a call matches a def by the callee's name (``f(...)`` and
  ``obj.f(...)`` both match every def named ``f``); an ``__init__`` is
  matched by its class's name, any subclass's name, ``super().__init__``,
  or ``cls(...)`` inside the class;
- a call with ``*args`` passes every positional parameter, and one with
  ``**kwargs`` passes every parameter;
- a def whose name appears anywhere other than as a callee (handed to a
  pool, stored in a table, wrapped in ``partial``) passes everything.

Tests count as callers here, so an option that only tests set to reach a
second code path is not caught; that judgement is made by hand.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = [
    ROOT / name
    for name in ("src", "perfbench", "scripts", "examples", "benchmarks", "tests")
]

#: ``"[Class.]def.parameter"`` kept although no call passes it, with the reason.
ALLOWED: dict[str, str] = {}


@dataclass
class _Passed:
    """What the calls matching one callee name pass, merged."""

    positional: int = 0
    keywords: set[str] = field(default_factory=set)
    everything: bool = False

    def add(self, call: ast.Call) -> None:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            self.positional = sys.maxsize
        else:
            self.positional = max(self.positional, len(call.args))
        for keyword in call.keywords:
            if keyword.arg is None:
                self.everything = True
            else:
                self.keywords.add(keyword.arg)

    def merge(self, other: "_Passed") -> None:
        self.positional = max(self.positional, other.positional)
        self.keywords |= other.keywords
        self.everything |= other.everything


def _callee_name(node: ast.Name | ast.Attribute) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _callee(call: ast.Call, enclosing_class: str | None) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "cls" and enclosing_class:
        return enclosing_class
    if isinstance(func, (ast.Name, ast.Attribute)):
        return _callee_name(func)
    if (  # type(self)(...)
        isinstance(func, ast.Call)
        and isinstance(func.func, ast.Name)
        and func.func.id == "type"
        and enclosing_class
    ):
        return enclosing_class
    return None


def _is_super(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


class _CallSites(ast.NodeVisitor):
    """Calls by callee name, names used other than as a callee, and bases."""

    def __init__(self) -> None:
        self.passed: dict[str, _Passed] = defaultdict(_Passed)
        self.referenced: set[str] = set()
        self.bases: dict[str, set[str]] = defaultdict(set)
        self._class: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for base in node.bases:
            if isinstance(base, (ast.Name, ast.Attribute)):
                self.bases[node.name].add(_callee_name(base))
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()

    def visit_Call(self, node: ast.Call) -> None:
        enclosing = self._class[-1] if self._class else None
        name = _callee(node, enclosing)
        if name == "__init__" and _is_super(node.func) and enclosing:
            # super().__init__ reaches a base's __init__; with no base
            # known by name, let it match every __init__.
            for base in self.bases[enclosing] or {"__init__"}:
                self.passed[base].add(node)
        elif name is not None:
            self.passed[name].add(node)
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.visit(node.func)
        for child in (*node.args, *node.keywords):
            self.visit(child)

    def visit_arg(self, node: ast.arg) -> None:
        return  # annotations name types, not callables

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for child in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if child is not None:
                self.visit(child)
        for statement in node.body:
            self.visit(statement)

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.referenced.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.referenced.add(node.attr)
        self.generic_visit(node)


def _subclasses(bases: dict[str, set[str]], name: str) -> set[str]:
    found = {name}
    frontier = [name]
    while frontier:
        parent = frontier.pop()
        for child, parents in bases.items():
            if parent in parents and child not in found:
                found.add(child)
                frontier.append(child)
    return found


@pytest.fixture(scope="module")
def call_sites() -> _CallSites:
    sites = _CallSites()
    for directory in CALLERS:
        for path in sorted(directory.rglob("*.py")):
            sites.visit(ast.parse(path.read_text(encoding="utf-8")))
    return sites


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """``(name, position or None)`` of each defaulted parameter.

    ``position`` counts the positional slots a call fills before this
    parameter, not counting ``self``/``cls``; keyword-only ones have none.
    """
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if is_method and positional:
        positional = positional[1:]
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _definitions():
    """``(owner class or None, def node, location)`` under ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    owners[id(child)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                yield owners.get(id(node)), node, where


def _static(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in node.decorator_list
    )


def _unpassed(sites: _CallSites) -> dict[str, str]:
    """``"[Class.]def.parameter"`` -> location, for each parameter no call passes."""
    unpassed = {}
    for owner, node, where in _definitions():
        if node.name == "__init__" and owner is not None:
            names = _subclasses(sites.bases, owner) | {"__init__"}
        else:
            names = {node.name}
        if names & sites.referenced:
            continue
        passed = _Passed()
        for name in names & sites.passed.keys():
            passed.merge(sites.passed[name])
        if passed.everything:
            continue
        is_method = owner is not None and not _static(node)
        label = f"{owner}.{node.name}" if owner else node.name
        for parameter, position in _defaulted(node, is_method):
            if parameter not in passed.keywords and (
                position is None or position >= passed.positional
            ):
                unpassed[f"{label}.{parameter}"] = where
    return unpassed


def test_every_defaulted_parameter_is_passed_somewhere(call_sites):
    dead = sorted(
        f"{name} ({where})"
        for name, where in _unpassed(call_sites).items()
        if name not in ALLOWED
    )
    assert not dead, (
        f"{len(dead)} defaulted parameters that no call passes; only their "
        "default ever runs. Delete each with the path its other values "
        "select, or allow one with its reason:\n  " + "\n  ".join(dead)
    )


def test_every_allowed_parameter_is_still_unpassed(call_sites):
    stale = [name for name in ALLOWED if name not in _unpassed(call_sites)]
    assert not stale, f"allowlist entries no longer needed: {stale}"

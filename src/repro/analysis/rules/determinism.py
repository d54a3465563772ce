"""Determinism rule: all randomness and wall-clock reads are seeded.

The reproduction's headline guarantee — KPIs bit-identical from run to
run, and whether the grid search runs in-process or on worker processes
— requires every stochastic component to draw from the seeded streams in
:mod:`repro.rng` and every behavioural code path to avoid ambient
wall-clock time. This rule bans, statically:

- ``np.random.seed`` / ``np.random.RandomState`` — legacy global-state
  numpy randomness (a process-wide seed is exactly the hidden coupling
  :func:`repro.rng.derive_rng` exists to prevent);
- unseeded ``default_rng()`` calls outside :mod:`repro.rng` — an
  OS-entropy generator silently breaks replay;
- the stdlib :mod:`random` module — unseeded and not stream-splittable;
- ``time.time()`` / ``time.time_ns()`` and ``datetime.now()`` /
  ``utcnow()`` / ``date.today()`` — wall-clock reads that leak real time
  into behaviour. Monotonic *perf timers* (``time.perf_counter``,
  ``time.monotonic``, ``time.process_time``, ``time.sleep``) are
  allowlisted: they may shape measured durations but never ranked
  output.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile
from repro.analysis.rules.base import Rule

#: Modules allowed to call ``default_rng`` without a seed (the seed
#: helpers themselves).
DEFAULT_EXEMPT_MODULES = frozenset({"repro.rng"})

#: ``time`` attributes that read the wall clock (banned).
_WALL_CLOCK_TIME = {"time", "time_ns"}

#: ``datetime``/``date`` constructors that read the wall clock (banned).
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today", "utcnow_ns"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismRule(Rule):
    """Flag unseeded randomness and wall-clock reads."""

    rule_id = "determinism"
    description = (
        "no global numpy seeding, unseeded default_rng, stdlib random, "
        "or wall-clock reads in library code"
    )

    def __init__(
        self, exempt_modules: Iterable[str] = DEFAULT_EXEMPT_MODULES
    ) -> None:
        self.exempt_modules = frozenset(exempt_modules)

    def check_file(
        self, source: SourceFile, model: ProjectModel
    ) -> Iterable[Finding]:
        """Flag banned randomness/clock imports and calls in one file."""
        exempt = source.module in self.exempt_modules
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(source, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(source, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(source, node, exempt)

    def _check_import(
        self, source: SourceFile, node: ast.Import
    ) -> Iterable[Finding]:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                yield self.finding(
                    source.relpath,
                    node.lineno,
                    "stdlib 'random' is process-global and unseeded here; "
                    "draw from repro.rng (derive_rng/make_rng) instead",
                )

    def _check_import_from(
        self, source: SourceFile, node: ast.ImportFrom
    ) -> Iterable[Finding]:
        if node.module == "random":
            yield self.finding(
                source.relpath,
                node.lineno,
                "stdlib 'random' is process-global and unseeded here; "
                "draw from repro.rng (derive_rng/make_rng) instead",
            )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME:
                    yield self.finding(
                        source.relpath,
                        node.lineno,
                        f"'from time import {alias.name}' reads the wall "
                        "clock; use time.perf_counter/time.monotonic for "
                        "timing, or an injectable clock for behaviour",
                    )
        elif node.module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name in ("seed", "RandomState"):
                    yield self.finding(
                        source.relpath,
                        node.lineno,
                        f"numpy.random.{alias.name} is legacy global-state "
                        "randomness; thread a seeded Generator from "
                        "repro.rng instead",
                    )

    def _check_call(
        self, source: SourceFile, node: ast.Call, exempt: bool
    ) -> Iterable[Finding]:
        name = _dotted(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[-2:] == ["random", "seed"]:
            yield self.finding(
                source.relpath,
                node.lineno,
                f"{name}() seeds process-global numpy state; thread a "
                "seeded Generator from repro.rng instead",
            )
        elif parts[-1] == "RandomState" and "random" in parts:
            yield self.finding(
                source.relpath,
                node.lineno,
                f"{name} is legacy global-state numpy randomness; use "
                "repro.rng.make_rng/derive_rng",
            )
        elif parts[-1] == "default_rng" and not node.args and not node.keywords:
            if not exempt:
                yield self.finding(
                    source.relpath,
                    node.lineno,
                    "default_rng() without a seed draws OS entropy and "
                    "breaks replay; pass a seed (repro.rng semantics)",
                )
        elif name in ("time.time", "time.time_ns"):
            yield self.finding(
                source.relpath,
                node.lineno,
                f"{name}() reads the wall clock; use time.perf_counter/"
                "time.monotonic for timing, or an injectable clock for "
                "behaviour",
            )
        elif parts[-1] in _WALL_CLOCK_DATETIME and (
            "datetime" in parts[:-1] or "date" in parts[:-1]
        ):
            yield self.finding(
                source.relpath,
                node.lineno,
                f"{name}() reads the wall clock; inject a clock or pass "
                "timestamps explicitly",
            )

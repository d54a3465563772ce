"""Static invariant analysis: ``python -m repro check``.

A pluggable AST-based analyzer enforcing the invariants the test suite
can only sample: seed lineage (every generator descends from
:mod:`repro.rng`, no wall-clock reads), layering (the declared package
DAG, cycle-free), float32 tiers, lock order (consistent ``with
self._lock`` guarding, an acyclic lock graph), resource lifetimes,
exception hygiene (no silently swallowed failures), and docs integrity
(docstring coverage, intra-repo markdown links).

Entry points:

- :func:`~repro.analysis.runner.run_check` — programmatic API (the
  tier-1 gate and the CLI both call it);
- ``python -m repro check [--format text|json] [--rule id] [paths]`` —
  the command-line front end (exit 1 on any surviving finding);
- ``# repro: allow[rule-id] — justification`` — inline suppression;
- ``repro check --write-baseline`` — grandfather an existing backlog.

See ``docs/static-analysis.md`` for the rule catalogue and the guide to
adding a rule. Everything in this package is stdlib-only, so
:func:`~repro.analysis.runner.run_check` needs nothing beyond the
standard library.
"""

from __future__ import annotations

from repro.analysis.dataflow import (
    DataflowModel,
    WitnessStep,
    get_dataflow,
)
from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)
from repro.analysis.model import ProjectModel, SourceFile, build_project
from repro.analysis.rules import (
    DocstringRule,
    DtypeTierRule,
    ExceptionHygieneRule,
    LayeringRule,
    LayerSpec,
    LinkRule,
    LockOrderRule,
    ResourceLifetimeRule,
    Rule,
    SeedLineageRule,
    default_rules,
)
from repro.analysis.runner import CheckResult, explain_finding, run_check
from repro.analysis.suppress import load_baseline, write_baseline

__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "ProjectModel",
    "SourceFile",
    "build_project",
    "DataflowModel",
    "WitnessStep",
    "get_dataflow",
    "Rule",
    "LayeringRule",
    "LayerSpec",
    "LockOrderRule",
    "SeedLineageRule",
    "DtypeTierRule",
    "ResourceLifetimeRule",
    "ExceptionHygieneRule",
    "DocstringRule",
    "LinkRule",
    "default_rules",
    "CheckResult",
    "explain_finding",
    "run_check",
    "load_baseline",
    "write_baseline",
]

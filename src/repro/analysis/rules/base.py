"""The :class:`Rule` plug-in contract.

A rule is a stateless object with a stable ``rule_id`` (the name used by
``--rule``, inline pragmas, and the baseline) and two hooks:

- :meth:`Rule.check_file` — called once per analyzed Python file with the
  shared :class:`~repro.analysis.model.ProjectModel`; the place for
  AST-local checks (exceptions, docstrings, resource lifetimes);
- :meth:`Rule.check_project` — called once per run after every file; the
  place for whole-graph checks (layering, import cycles, markdown
  links, seed lineage, lock order).

Both return iterables of :class:`~repro.analysis.findings.Finding`; the
runner owns ordering, suppression, and rendering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.dataflow import WitnessStep


class Rule:
    """Base class every analysis rule extends."""

    #: Stable identifier used by ``--rule``, pragmas, and baselines.
    rule_id: str = ""

    #: One-line summary shown in ``repro check --help`` style listings.
    description: str = ""

    #: Bumped whenever the rule's findings can change for unchanged
    #: sources; part of the incremental cache key.
    version: int = 1

    def check_file(
        self, source: SourceFile, model: ProjectModel
    ) -> Iterable[Finding]:
        """Findings local to one parsed file (default: none)."""
        return ()

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Findings over the whole project model (default: none)."""
        return ()

    def finding(
        self,
        relpath: str,
        line: int,
        message: str,
        witness: "Iterable[WitnessStep]" = (),
    ) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(
            path=relpath,
            line=line,
            rule=self.rule_id,
            message=message,
            witness=tuple(witness),
        )

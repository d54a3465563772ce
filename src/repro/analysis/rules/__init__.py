"""The built-in rule catalogue.

:func:`default_rules` instantiates one of each shipped rule; the runner
(and ``python -m repro check --rule``) filters by
:attr:`~repro.analysis.rules.base.Rule.rule_id`. Adding a rule means
subclassing :class:`~repro.analysis.rules.base.Rule`, giving it a stable
id, and listing it here — see ``docs/static-analysis.md``.

``layering``, ``exceptions``, ``docstrings`` and ``links`` are
syntactic checks; ``seed-lineage``, ``dtype-tier``, ``lock-order`` and
``resource-lifetime`` run on the interprocedural
:mod:`~repro.analysis.dataflow` layer and attach witness paths to their
findings (``repro check --explain``).
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.docs import DocstringRule, LinkRule
from repro.analysis.rules.dtypetier import DtypeTierRule
from repro.analysis.rules.exceptions import ExceptionHygieneRule
from repro.analysis.rules.layering import LayeringRule, LayerSpec
from repro.analysis.rules.lockorder import LockOrderRule
from repro.analysis.rules.resources import ResourceLifetimeRule
from repro.analysis.rules.seedlineage import SeedLineageRule

__all__ = [
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
]


def default_rules() -> list[Rule]:
    """One fresh instance of every shipped rule, in report order."""
    return [
        LayeringRule(),
        SeedLineageRule(),
        DtypeTierRule(),
        LockOrderRule(),
        ResourceLifetimeRule(),
        ExceptionHygieneRule(),
        DocstringRule(),
        LinkRule(),
    ]

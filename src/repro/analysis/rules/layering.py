"""Layering rule: the declared package DAG is the only legal one.

The repo's architecture is a strict layering (low to high)::

    foundation   errors, rng
    util         obs, resilience, parallel
    tables       tables
    data         datasets, text, pipeline
    core         core
    eval         eval
    experiments  experiments
    app          app
    drivers      cli, __main__, perf, analysis (+ the repro facade)

A module may import its own layer and anything *below* it, never above.
``foundation`` and ``util`` are the leaf utilities every layer may use;
``drivers`` sit on top and may orchestrate the whole stack. A handful of
modules are explicitly re-homed by :data:`DEFAULT_SPEC.overrides` — the
end-to-end demo driver that lives inside a utility package for
packaging convenience but is architecturally top-of-stack, and the
fault-injection wrappers that subclass core models:

- ``repro.obs.demo`` → ``drivers``;
- ``repro.resilience.faults`` → ``core``.

Besides direction, the rule also rejects *cycles*: strongly connected
components in the real module-level import graph fail the check even
when every edge individually respects the declared layers (two modules
of one layer may import each other's names only acyclically).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel
from repro.analysis.rules.base import Rule


@dataclass(frozen=True)
class LayerSpec:
    """A declared layering: ordered layers of packages, plus overrides.

    ``layers`` lists ``(layer name, packages)`` from lowest to highest;
    a module may import same-or-lower layers only. ``overrides`` re-home
    individual modules (full dotted name → layer name). ``root`` names
    the top-level package whose *second* path component is the layered
    package (empty for flat fixture trees where the first component is).
    """

    layers: tuple[tuple[str, tuple[str, ...]], ...]
    overrides: Mapping[str, str] = field(default_factory=dict)
    root: str = ""

    def layer_index(self, name: str) -> int:
        """The position of layer ``name`` (0 = lowest)."""
        for index, (layer, _) in enumerate(self.layers):
            if layer == name:
                return index
        raise KeyError(name)

    def package_of(self, module: str) -> str | None:
        """The layered package a module belongs to (``None`` = foreign)."""
        if self.root:
            if module == self.root:
                return None
            prefix = self.root + "."
            if not module.startswith(prefix):
                return None
            return module[len(prefix):].split(".", 1)[0]
        return module.split(".", 1)[0]

    def layer_of(self, module: str) -> tuple[str, int] | None:
        """``(layer name, index)`` for a module, or ``None`` if unmapped."""
        override = self.overrides.get(module)
        if override is not None:
            return override, self.layer_index(override)
        package = self.package_of(module)
        if package is None:
            return None
        for index, (layer, packages) in enumerate(self.layers):
            if package in packages:
                return layer, index
        return None


#: The repo's declared architecture (see the module docstring).
DEFAULT_SPEC = LayerSpec(
    layers=(
        ("foundation", ("errors", "rng")),
        ("util", ("obs", "resilience", "parallel")),
        ("tables", ("tables",)),
        ("data", ("datasets", "text", "pipeline")),
        ("core", ("core",)),
        ("eval", ("eval",)),
        ("experiments", ("experiments",)),
        ("app", ("app",)),
        ("drivers", ("cli", "__main__", "perf", "analysis")),
    ),
    overrides={
        # The package facade re-exports and may name anything.
        "repro": "drivers",
        # The end-to-end demo driver shipped inside a utility package.
        "repro.obs.demo": "drivers",
        # Fault-injection wrappers subclass core recommenders.
        "repro.resilience.faults": "core",
    },
    root="repro",
)


class LayeringRule(Rule):
    """Flag imports that climb the layer stack, and any import cycle."""

    rule_id = "layering"
    description = (
        "imports must respect the declared package DAG and contain no "
        "cycles"
    )

    def __init__(self, spec: LayerSpec = DEFAULT_SPEC) -> None:
        self.spec = spec

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Check layer direction, spec coverage, and cycle-freedom."""
        graph = model.import_graph()
        yield from self._check_direction(model, graph)
        yield from self._check_cycles(model, graph)

    def _check_direction(
        self, model: ProjectModel, graph: dict[str, list[tuple[str, int]]]
    ) -> Iterable[Finding]:
        unmapped_reported: set[str] = set()
        for module, edges in sorted(graph.items()):
            source = model.modules[module]
            importer = self.spec.layer_of(module)
            if importer is None:
                if (
                    module not in unmapped_reported
                    and self.spec.package_of(module) is not None
                ):
                    unmapped_reported.add(module)
                    yield self.finding(
                        source.relpath,
                        1,
                        f"module '{module}' belongs to no declared layer; "
                        "add its package to the layer spec",
                    )
                continue
            for imported, line in edges:
                target = self.spec.layer_of(imported)
                if target is None or imported == module:
                    continue
                if target[1] > importer[1]:
                    yield self.finding(
                        source.relpath,
                        line,
                        f"layer '{importer[0]}' module '{module}' may not "
                        f"import '{imported}' from higher layer "
                        f"'{target[0]}'",
                    )

    def _check_cycles(
        self, model: ProjectModel, graph: dict[str, list[tuple[str, int]]]
    ) -> Iterable[Finding]:
        adjacency = {
            module: [
                imported
                for imported, _ in edges
                if imported in graph and imported != module
            ]
            for module, edges in graph.items()
        }
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            ordered = sorted(component)
            anchor = model.modules[ordered[0]]
            yield self.finding(
                anchor.relpath,
                1,
                "import cycle: " + " -> ".join(ordered + [ordered[0]]),
            )


def _strongly_connected(
    adjacency: Mapping[str, list[str]]
) -> list[list[str]]:
    """Tarjan's SCC, iterative so deep graphs cannot blow the stack."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for start in sorted(adjacency):
        if start in index_of:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbours = adjacency.get(node, [])
            advanced = False
            while edge_index < len(neighbours):
                neighbour = neighbours[edge_index]
                edge_index += 1
                if neighbour not in index_of:
                    work[-1] = (node, edge_index)
                    work.append((neighbour, 0))
                    advanced = True
                    break
                if neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[neighbour])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components

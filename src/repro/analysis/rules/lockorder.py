"""``lock-order`` — lock discipline within and across classes.

The serving stack nests locks: ``RecommendationService._lock`` is held
while the breaker resets and gauges update, the breaker's RLock is held
while transition listeners fire, every metrics instrument has its own
lock. A class *holds* a lock when ``self._lock = threading.Lock()`` or
``RLock()`` is assigned in an ``__init__`` anywhere in its MRO; the
class whose ``__init__`` assigns it *owns* the lock. Over the dataflow
layer the rule checks:

- **mixed guard** — in every class holding a lock, an attribute mutated
  under ``with self._lock`` (or in a ``*_locked`` method) in one method
  and outside the lock in another is flagged at each unlocked site:
  the hot path is guarded, a colder reset or merge silently races it;
- **mixed reachability** — a helper that mutates instance state
  *without* acquiring is flagged when the call graph reaches it both
  from a locked and from an unlocked context;
- **cycles** — nodes are lock owners; an edge ``A -> B`` means a method
  of ``A``, while holding ``A``'s lock (directly or through same-class
  helpers), calls into a method of ``B`` that (transitively within
  ``B``) acquires ``B``'s lock. A cycle means two threads entering from
  opposite ends can deadlock — flagged with the full call-chain
  witness.

Both mutation checks cover subclasses of the owner and share one
scanner, which descends into nested blocks and closures. Constructor
methods are exempt (no other thread holds a reference yet), a
``*_locked`` name asserts that the caller holds the lock, and a line
both checks hit is reported once.

Dynamic calls (callbacks, ``getattr``) resolve to unknown and create no
edges — the graph under-approximates, so every reported cycle is real
in the resolved call graph.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dataflow import (
    ClassInfo,
    DataflowModel,
    FunctionInfo,
    WitnessStep,
    body_statements,
    calls_in,
    dotted_parts,
    get_dataflow,
    is_self_attr,
)
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel
from repro.analysis.rules.base import Rule

#: Canonical lock constructors that make a class lock-owning.
LOCK_TYPES = {"threading.Lock", "threading.RLock"}

#: The guarded-lock attribute name (the repo-wide convention).
LOCK_ATTR = "_lock"

#: Methods that run before the instance is shared between threads.
CONSTRUCTOR_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__setstate__"}
)

#: Suffix marking a helper whose caller must already hold the lock.
LOCKED_SUFFIX = "_locked"

#: Compound statements whose nested blocks run in the enclosing lock
#: context (a closure is assumed to run where it is defined).
_NESTING = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.Try,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
)


class LockOrderRule(Rule):
    """Flag mixed locked/unlocked mutation and lock-acquisition cycles."""

    rule_id = "lock-order"
    description = (
        "cross-class lock acquisition graph must be acyclic; guarded "
        "attributes must not be mutated or reached locked and unlocked"
    )
    version = 2

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Lock-order cycles and mixed-guard mutations project-wide."""
        df = get_dataflow(model)
        holders = _lock_holders(df)
        owners = {owner: df.classes[owner] for owner in holders.values()}
        acquires = {
            key: _acquiring_methods(df, info)
            for key, info in owners.items()
        }
        edges: dict[str, dict[str, tuple[WitnessStep, ...]]] = {}
        for key, info in owners.items():
            for target, witness in self._class_edges(
                df, owners, acquires, key, info
            ):
                edges.setdefault(key, {}).setdefault(target, witness)
        yield from self._cycle_findings(owners, edges)
        by_line: dict[tuple[str, int], Finding] = {}
        for key, owner in holders.items():
            info = df.classes[key]
            for finding in (
                *self._mixed_reachability(df, owner, info),
                *self._mixed_guard(info),
            ):
                by_line.setdefault((finding.path, finding.line), finding)
        yield from by_line.values()

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def _class_edges(
        self,
        df: DataflowModel,
        owners: dict[str, ClassInfo],
        acquires: dict[str, set[str]],
        key: str,
        info: ClassInfo,
    ):
        for method in _own_methods(df, info):
            for region_line, call in _locked_calls(method):
                for edge in self._edge_targets(
                    df, owners, acquires, key, method, region_line, call,
                    set(),
                ):
                    yield edge

    def _edge_targets(
        self,
        df: DataflowModel,
        owners: dict[str, ClassInfo],
        acquires: dict[str, set[str]],
        key: str,
        method: FunctionInfo,
        region_line: int,
        call: ast.Call,
        visited: set[str],
    ):
        env = df.function_env(method)
        for target in df.call_targets(method, call, env):
            owner_key, method_name = _split_method(target, owners)
            if owner_key is None:
                continue
            if owner_key == key:
                # Same-class helper: the lock is still held inside it,
                # so its outgoing calls extend the region.
                helper = df.resolve_method(owner_key, method_name)
                if helper is None or helper.canonical in visited:
                    continue
                visited.add(helper.canonical)
                for inner in calls_in(helper):
                    yield from self._edge_targets(
                        df, owners, acquires, key, helper, region_line,
                        inner, visited,
                    )
                continue
            if method_name in acquires.get(owner_key, set()):
                witness = (
                    WitnessStep(
                        method.source.relpath,
                        region_line,
                        f"{method.qualname}() holds "
                        f"{_short(key)}.{LOCK_ATTR}",
                    ),
                    WitnessStep(
                        method.source.relpath,
                        call.lineno,
                        f"calls {_short(owner_key)}.{method_name}() "
                        "while holding it",
                    ),
                    WitnessStep(
                        owners[owner_key].source.relpath,
                        owners[owner_key].node.lineno,
                        f"{_short(owner_key)}.{method_name}() acquires "
                        f"{_short(owner_key)}.{LOCK_ATTR}",
                    ),
                )
                yield owner_key, witness

    def _cycle_findings(
        self,
        owners: dict[str, ClassInfo],
        edges: dict[str, dict[str, tuple[WitnessStep, ...]]],
    ) -> Iterable[Finding]:
        for cycle in _find_cycles(edges):
            first = cycle[0]
            info = owners[first]
            chain = " -> ".join(_short(key) for key in (*cycle, first))
            witness: list[WitnessStep] = []
            for index, node in enumerate(cycle):
                successor = cycle[(index + 1) % len(cycle)]
                witness.extend(edges[node][successor])
            yield self.finding(
                info.source.relpath,
                info.node.lineno,
                f"lock-order cycle {chain}: two threads entering from "
                "opposite ends can deadlock",
                witness=tuple(witness),
            )

    # ------------------------------------------------------------------
    # mixed locked/unlocked mutation
    # ------------------------------------------------------------------

    def _mixed_guard(self, info: ClassInfo) -> Iterable[Finding]:
        """Attributes mutated both under and outside the lock."""
        locked_at: dict[str, int] = {}
        unlocked: list[tuple[str, int, str]] = []
        for method in info.node.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or method.name in CONSTRUCTOR_METHODS:
                continue
            for attr, line, locked in _mutations(
                method.body, method.name.endswith(LOCKED_SUFFIX)
            ):
                if locked:
                    locked_at[attr] = min(line, locked_at.get(attr, line))
                else:
                    unlocked.append((attr, line, method.name))
        for attr, line, method_name in unlocked:
            if attr in locked_at:
                yield self.finding(
                    info.source.relpath,
                    line,
                    f"'{info.name}.{attr}' is mutated in '{method_name}' "
                    "outside 'with self._lock' but under the lock at line "
                    f"{locked_at[attr]}; hold the lock here (or mark the "
                    "method caller-holds-lock with a '_locked' suffix)",
                )

    def _mixed_reachability(
        self,
        df: DataflowModel,
        owner: str,
        info: ClassInfo,
    ) -> Iterable[Finding]:
        """Unlocked mutators the call graph reaches locked and unlocked."""
        for method in _own_methods(df, info):
            if (
                method.name in CONSTRUCTOR_METHODS
                or method.name.endswith(LOCKED_SUFFIX)
                or _acquires_directly(method)
            ):
                continue
            unguarded = [
                (attr, line)
                for attr, line, locked in _mutations(method.node.body, False)
                if not locked
            ]
            if not unguarded:
                continue
            locked_caller = _caller_context(df, info, method, locked=True)
            unlocked_caller = _caller_context(
                df, info, method, locked=False
            )
            if locked_caller is None or unlocked_caller is None:
                continue
            attr, line = min(unguarded, key=lambda hit: hit[1])
            yield self.finding(
                method.source.relpath,
                line,
                f"self.{attr} is mutated without {_short(owner)}."
                f"{LOCK_ATTR} in {method.name}(), which the call graph "
                f"reaches both with the lock held "
                f"({locked_caller[0]}:{locked_caller[1]}) and without "
                f"it ({unlocked_caller[0]}:{unlocked_caller[1]})",
                witness=(
                    WitnessStep(
                        method.source.relpath,
                        line,
                        f"unguarded mutation of self.{attr} in "
                        f"{method.qualname}()",
                    ),
                    WitnessStep(
                        method.source.relpath,
                        locked_caller[1],
                        f"reached with the lock held from "
                        f"{locked_caller[2]}()",
                    ),
                    WitnessStep(
                        method.source.relpath,
                        unlocked_caller[1],
                        f"reached without the lock from "
                        f"{unlocked_caller[2]}()",
                    ),
                ),
            )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _lock_holders(df: DataflowModel) -> dict[str, str]:
    """``class key -> owner key`` for every class whose MRO holds a lock.

    The owner is the nearest MRO class whose ``__init__`` assigns a
    ``threading`` lock to ``self._lock``, so subclasses share their
    base's lock-graph node.
    """
    holders: dict[str, str] = {}
    for key in df.classes:
        for mro_info in df.mro(key):
            init = df.functions.get(f"{mro_info.key}.__init__")
            if init is None:
                continue
            prov = df.function_env(init).get(f"self.{LOCK_ATTR}")
            if prov is not None and prov.origin.startswith("call:"):
                if prov.origin[5:] in LOCK_TYPES:
                    holders[key] = mro_info.key
                    break
    return holders


def _own_methods(df: DataflowModel, info: ClassInfo):
    for name in sorted(info.methods):
        fi = df.functions.get(info.methods[name])
        if fi is not None:
            yield fi


def _holds_lock(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is a ``with self._lock:`` block."""
    return isinstance(stmt, (ast.With, ast.AsyncWith)) and any(
        is_self_attr(item.context_expr, LOCK_ATTR) for item in stmt.items
    )


def _mutated_attrs(stmt: ast.stmt) -> Iterator[str]:
    """Instance attributes one statement assigns or augments."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        for element in elements:
            if is_self_attr(element) and element.attr != LOCK_ATTR:
                yield element.attr


def _mutations(
    stmts: list[ast.stmt], locked: bool
) -> Iterator[tuple[str, int, bool]]:
    """``(attr, line, locked)`` for every ``self.<attr>`` write in
    ``stmts``, where ``locked`` says whether the lock is held there."""
    for stmt in stmts:
        for attr in _mutated_attrs(stmt):
            yield attr, stmt.lineno, locked
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _mutations(stmt.body, locked or _holds_lock(stmt))
        elif isinstance(stmt, _NESTING):
            for block in (
                stmt.body,
                *(handler.body for handler in getattr(stmt, "handlers", ())),
                getattr(stmt, "orelse", ()),
                getattr(stmt, "finalbody", ()),
            ):
                yield from _mutations(block, locked)


def _acquires_directly(method: FunctionInfo) -> bool:
    return any(_holds_lock(stmt) for stmt in body_statements(method.node))


def _acquiring_methods(df: DataflowModel, info: ClassInfo) -> set[str]:
    """Method names that (transitively within the class) take the lock."""
    direct: set[str] = set()
    calls: dict[str, set[str]] = {}
    for method in _own_methods(df, info):
        if _acquires_directly(method):
            direct.add(method.name)
        names: set[str] = set()
        for call in calls_in(method):
            parts = dotted_parts(call.func)
            if parts is not None and len(parts) == 2 and parts[0] == "self":
                names.add(parts[1])
        calls[method.name] = names
    acquired = set(direct)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in acquired and callees & acquired:
                acquired.add(name)
                changed = True
    return acquired


def _locked_calls(method: FunctionInfo):
    """``(region line, call)`` pairs inside ``with self._lock`` bodies."""
    for stmt in body_statements(method.node):
        if not _holds_lock(stmt):
            continue
        for inner in stmt.body:
            for node in ast.walk(inner):
                if isinstance(node, ast.Call):
                    yield stmt.lineno, node


def _split_method(
    canonical: str, owners: dict[str, ClassInfo]
) -> tuple[str | None, str]:
    """``module.Class.method`` split into (owner key, method name)."""
    head, _, name = canonical.rpartition(".")
    if head in owners:
        return head, name
    return None, name


def _find_cycles(
    edges: dict[str, dict[str, tuple]]
) -> list[list[str]]:
    """Elementary cycles via DFS (deduplicated by node set)."""
    cycles: list[list[str]] = []
    seen_sets: set[frozenset] = set()

    def visit(node: str, path: list[str], on_path: set[str]) -> None:
        for successor in sorted(edges.get(node, {})):
            if successor in on_path:
                start = path.index(successor)
                cycle = path[start:]
                key = frozenset(cycle)
                if key not in seen_sets:
                    seen_sets.add(key)
                    cycles.append(cycle)
                continue
            if len(path) < 16:
                visit(successor, path + [successor], on_path | {successor})

    for start in sorted(edges):
        visit(start, [start], {start})
    return cycles


def _caller_context(
    df: DataflowModel,
    info: ClassInfo,
    method: FunctionInfo,
    locked: bool,
) -> tuple[str, int, str] | None:
    """A same-class call site reaching ``method`` in the given context.

    Returns ``(relpath, line, caller qualname)`` or ``None``. A call is
    *locked* when it sits inside a ``with self._lock`` region or in a
    ``*_locked`` helper; everything else is unlocked.
    """
    for caller in _own_methods(df, info):
        if caller.canonical == method.canonical:
            continue
        locked_lines = {call.lineno for _, call in _locked_calls(caller)}
        caller_locked_context = caller.name.endswith(LOCKED_SUFFIX)
        for call in calls_in(caller):
            parts = dotted_parts(call.func)
            if parts != ["self", method.name]:
                continue
            is_locked = (
                call.lineno in locked_lines or caller_locked_context
            )
            if is_locked == locked:
                return (
                    caller.source.relpath,
                    call.lineno,
                    caller.qualname,
                )
    return None


def _short(class_key: str) -> str:
    return class_key.rsplit(".", 1)[-1]

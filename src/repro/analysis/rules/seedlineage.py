"""``seed-lineage`` — every random draw descends from the seed tree.

The determinism contract (``docs/determinism.md``) hangs every random
draw off one root seed through :func:`repro.rng.derive_rng` (scoped
streams) and :func:`repro.rng.task_seeds` (per-task seeds drawn up
front), and keeps real time out of behaviour. Calls resolve through the
dataflow layer's import alias tables, and module-level and class-body
statements are checked as well as function bodies. The rule flags:

- generators created outside :data:`SANCTIONED_MODULES` — a raw
  ``np.random.default_rng(...)``, ``Generator`` or ``RandomState``
  anywhere else forks a lineage that no scope tuple names, seeded or
  not;
- numpy's process-global legacy state: ``numpy.random.seed`` calls and
  ``from numpy.random import seed`` / ``RandomState``;
- the stdlib :mod:`random` module — unseeded and not stream-splittable;
- wall-clock reads (:data:`WALL_CLOCK`), which leak real time into
  behaviour. Monotonic perf timers (``time.perf_counter``,
  ``time.monotonic``, ``time.process_time``, ``time.sleep``) stay
  allowed: they may shape measured durations but never ranked output;
- a generator reaching a stochastic call through parameters whose
  lineage, traced interprocedurally, ends at a raw constructor —
  flagged with the full call-chain witness;
- generators crossing a worker-process task boundary — ``.map`` or
  ``.submit`` on a local bound from ``ProcessPoolExecutor(...)`` (pass
  seeds, derive worker-side — generator state does not fork
  deterministically across processes);
- two call sites deriving from the same constant scope tuple (identical
  streams masquerading as independent ones);
- seeds fed into ``derive_rng``/``make_rng``/``task_seeds`` from
  process- or time-dependent values (:data:`VOLATILE_ORIGINS`).

Each flagged line is reported once. Unresolvable origins degrade to
silence, never to a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dataflow import (
    FunctionInfo,
    WitnessStep,
    dotted_parts,
    get_dataflow,
    is_self_attr,
)
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile, import_base
from repro.analysis.rules.base import Rule

#: The only modules that may construct generators (the lineage root).
SANCTIONED_MODULES = {"repro.rng"}

#: Canonical constructors that start a *sanctioned* lineage.
SANCTIONED_ORIGINS = {
    "repro.rng.make_rng",
    "repro.rng.derive_rng",
}

#: Canonical constructors that start an *unsanctioned* lineage.
RAW_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
}

#: numpy's process-global legacy API, banned as imports.
LEGACY_NUMPY = {"numpy.random.seed", "numpy.random.RandomState"}

#: Canonical wall-clock reads: banned outright, and volatile as seeds.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Canonical origins that make a seed process- or time-dependent.
VOLATILE_ORIGINS = WALL_CLOCK | {
    "time.monotonic",
    "time.perf_counter",
    "os.getpid",
    "uuid.uuid4",
    "id",
    "hash",
}

#: Generator methods that consume random state.
STOCHASTIC_METHODS = {
    "integers",
    "random",
    "choice",
    "shuffle",
    "permutation",
    "permuted",
    "normal",
    "standard_normal",
    "uniform",
    "exponential",
    "poisson",
    "binomial",
    "beta",
    "gamma",
    "bytes",
}

#: Canonical executor classes whose tasks run in worker processes.
POOL_EXECUTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}

#: Executor methods that ship their arguments to a worker.
POOL_METHODS = {"map", "submit"}

#: Canonical seed sinks whose first argument must be config-derived.
SEED_SINKS = {
    "repro.rng.make_rng",
    "repro.rng.derive_rng",
    "repro.rng.task_seeds",
}

_STDLIB_RANDOM = (
    "stdlib 'random' is process-global and unseeded here; draw from "
    "repro.rng (derive_rng/make_rng) instead"
)

_WALL_CLOCK = (
    "reads the wall clock; use time.perf_counter/time.monotonic for "
    "timing, or an injectable clock for behaviour"
)


class SeedLineageRule(Rule):
    """Trace every generator back to ``derive_rng``/``task_seeds``."""

    rule_id = "seed-lineage"
    description = (
        "generators must descend from repro.rng and never cross worker "
        "boundaries; scope tuples must be unique; no global numpy "
        "seeding, stdlib random, or wall-clock reads"
    )
    version = 3

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Seed-lineage findings over every statement in the project."""
        df = get_dataflow(model)
        by_node = {id(fi.node): fi for fi in df.functions.values()}
        scope_sites: dict[tuple, list[tuple[FunctionInfo, ast.Call]]] = {}
        lineage: list[Finding] = []
        hazards: list[Finding] = []
        for source in model.files:
            for node, fi in _scoped_nodes(source, by_node):
                if not isinstance(node, ast.Call):
                    hazards.extend(self._check_import(source, node))
                    continue
                parts = dotted_parts(node.func)
                env = None
                targets: tuple[str, ...] = ()
                if fi is not None:
                    env = df.function_env(fi)
                    targets = df.call_targets(fi, node, env)
                elif parts is not None:
                    targets = (df.resolve(source.module, ".".join(parts)),)
                lineage.extend(
                    self._check_construction(source, fi, node, targets)
                )
                hazards.extend(
                    self._check_hazard_call(source, node, parts, targets)
                )
                if fi is None:
                    continue
                lineage.extend(self._check_stochastic_use(df, fi, node, env))
                lineage.extend(self._check_pool_boundary(fi, node, env))
                lineage.extend(
                    self._check_seed_source(df, fi, node, targets, env)
                )
                self._collect_scope(fi, node, targets, scope_sites)
        lineage.extend(self._check_scope_reuse(scope_sites))
        # One finding per line: the lineage checks carry witnesses, so
        # they win over a hazard reported on the same line.
        by_line: dict[tuple[str, int], Finding] = {}
        for finding in (*lineage, *hazards):
            by_line.setdefault((finding.path, finding.line), finding)
        return list(by_line.values())

    # ------------------------------------------------------------------
    # hazards: legacy numpy state, stdlib random, wall-clock reads
    # ------------------------------------------------------------------

    def _check_import(
        self, source: SourceFile, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".", 1)[0] == "random"
                for alias in node.names
            ):
                yield self.finding(source.relpath, node.lineno, _STDLIB_RANDOM)
            return
        base = import_base(node, source.module)
        if base is None:
            return
        if base.split(".", 1)[0] == "random":
            yield self.finding(source.relpath, node.lineno, _STDLIB_RANDOM)
            return
        for alias in node.names:
            qualified = f"{base}.{alias.name}"
            if qualified in WALL_CLOCK:
                yield self.finding(
                    source.relpath,
                    node.lineno,
                    f"'from {base} import {alias.name}' {_WALL_CLOCK}",
                )
            elif qualified in LEGACY_NUMPY:
                yield self.finding(
                    source.relpath,
                    node.lineno,
                    f"{qualified} is legacy global-state randomness; "
                    "thread a seeded Generator from repro.rng instead",
                )

    def _check_hazard_call(
        self,
        source: SourceFile,
        call: ast.Call,
        parts: list[str] | None,
        targets: tuple[str, ...],
    ) -> Iterator[Finding]:
        if parts is None:
            return
        name = ".".join(parts)
        if "numpy.random.seed" in targets:
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{name}() seeds process-global numpy state; thread a "
                "seeded Generator from repro.rng instead",
            )
        elif any(target in WALL_CLOCK for target in targets):
            yield self.finding(
                source.relpath, call.lineno, f"{name}() {_WALL_CLOCK}"
            )

    # ------------------------------------------------------------------
    # lineage
    # ------------------------------------------------------------------

    def _check_construction(
        self,
        source: SourceFile,
        fi: FunctionInfo | None,
        call: ast.Call,
        targets: tuple[str, ...],
    ) -> Iterator[Finding]:
        if source.module in SANCTIONED_MODULES:
            return
        for target in targets:
            if target not in RAW_CONSTRUCTORS:
                continue
            message = (
                f"{target}() creates a generator outside the seed "
                "lineage; use repro.rng.make_rng or derive_rng"
            )
            if fi is None:
                yield self.finding(source.relpath, call.lineno, message)
                continue
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{message} (in {fi.qualname})",
                witness=(
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"raw {target}() in {fi.qualname}()",
                    ),
                ),
            )

    def _check_stochastic_use(
        self,
        df,
        fi: FunctionInfo,
        call: ast.Call,
        env,
    ) -> Iterable[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in STOCHASTIC_METHODS:
            return
        receiver = func.value
        prov = df.expr_prov(fi, receiver, env)
        origin = prov.origin
        owner = fi
        if origin.startswith("param:") and is_self_attr(receiver):
            # The provenance came out of ``__init__``'s environment, so
            # the parameter belongs to the constructor, not this method.
            init = df.functions.get(f"{fi.class_key}.__init__")
            if init is not None:
                owner = init
        # A local constructed here is covered by the construction check.
        if not origin.startswith("param:"):
            return
        param = origin[6:]
        for traced, chain in df.trace_param(owner, param):
            if traced.origin.startswith("call:"):
                canonical = traced.origin[5:]
                if canonical in RAW_CONSTRUCTORS:
                    use = WitnessStep(
                        fi.source.relpath,
                        call.lineno,
                        f"generator consumed by .{func.attr}() in "
                        f"{fi.qualname}()",
                    )
                    yield self.finding(
                        fi.source.relpath,
                        call.lineno,
                        f"generator reaching .{func.attr}() traces back "
                        f"to raw {canonical}() instead of "
                        "repro.rng.derive_rng "
                        f"(in {fi.qualname})",
                        witness=(*chain, use),
                    )
                    return

    def _check_pool_boundary(
        self, fi: FunctionInfo, call: ast.Call, env
    ) -> Iterable[Finding]:
        boundary = _pool_boundary(call, env)
        if boundary is None:
            return
        method = ".".join(boundary.split(".")[-2:])
        for arg in (*call.args, *(kw.value for kw in call.keywords)):
            for name in ast.walk(arg):
                if not isinstance(name, ast.Name):
                    continue
                prov = env.get(name.id)
                if prov is None or not prov.origin.startswith("call:"):
                    continue
                canonical = prov.origin[5:]
                if (
                    canonical in RAW_CONSTRUCTORS
                    or canonical in SANCTIONED_ORIGINS
                ):
                    yield self.finding(
                        fi.source.relpath,
                        call.lineno,
                        f"generator `{name.id}` crosses the "
                        f"{method}() task boundary; "
                        "pass task_seeds(...) and derive_rng worker-side "
                        f"(in {fi.qualname})",
                        witness=(
                            *prov.trail,
                            WitnessStep(
                                fi.source.relpath,
                                call.lineno,
                                f"`{name.id}` shipped to {boundary}()",
                            ),
                        ),
                    )
                    return

    def _check_seed_source(
        self,
        df,
        fi: FunctionInfo,
        call: ast.Call,
        targets: tuple[str, ...],
        env,
    ) -> Iterable[Finding]:
        if not any(target in SEED_SINKS for target in targets):
            return
        sink = next(t for t in targets if t in SEED_SINKS)
        if not call.args:
            return
        seed_arg = call.args[0]
        if isinstance(seed_arg, ast.Starred):
            return
        prov = df.expr_prov(fi, seed_arg, env)
        if prov.origin.startswith("call:"):
            canonical = prov.origin[5:]
            if canonical in VOLATILE_ORIGINS:
                yield self.finding(
                    fi.source.relpath,
                    call.lineno,
                    f"seed passed to {sink.rsplit('.', 1)[-1]}() derives "
                    f"from {canonical}() — not a config value, so runs "
                    f"are unreproducible (in {fi.qualname})",
                    witness=(
                        *prov.trail,
                        WitnessStep(
                            fi.source.relpath,
                            call.lineno,
                            f"volatile seed reaches {sink}()",
                        ),
                    ),
                )

    def _collect_scope(
        self,
        fi: FunctionInfo,
        call: ast.Call,
        targets: tuple[str, ...],
        scope_sites: dict,
    ) -> None:
        if "repro.rng.derive_rng" not in targets:
            return
        if len(call.args) < 2:
            return
        scope: list = []
        for arg in call.args[1:]:
            if not isinstance(arg, ast.Constant):
                return  # dynamic scope component: not comparable
            scope.append(arg.value)
        scope_sites.setdefault(tuple(scope), []).append((fi, call))

    def _check_scope_reuse(self, scope_sites: dict) -> Iterable[Finding]:
        for scope, sites in sorted(
            scope_sites.items(), key=lambda item: repr(item[0])
        ):
            if len(sites) < 2:
                continue
            # Distinct call sites only: one site called many times is
            # the normal per-task reuse pattern.
            locations = {
                (fi.source.relpath, call.lineno) for fi, call in sites
            }
            if len(locations) < 2:
                continue
            first_fi, first_call = sites[0]
            for fi, call in sites[1:]:
                if (fi.source.relpath, call.lineno) == (
                    first_fi.source.relpath,
                    first_call.lineno,
                ):
                    continue
                yield self.finding(
                    fi.source.relpath,
                    call.lineno,
                    f"derive_rng scope {scope!r} is already used at "
                    f"{first_fi.source.relpath}:{first_call.lineno} — "
                    "reused scopes yield identical streams "
                    f"(in {fi.qualname})",
                    witness=(
                        WitnessStep(
                            first_fi.source.relpath,
                            first_call.lineno,
                            f"scope {scope!r} first derived in "
                            f"{first_fi.qualname}()",
                        ),
                        WitnessStep(
                            fi.source.relpath,
                            call.lineno,
                            f"scope {scope!r} derived again in "
                            f"{fi.qualname}()",
                        ),
                    ),
                )


def _scoped_nodes(
    source: SourceFile, by_node: dict[int, FunctionInfo]
) -> Iterator[tuple[ast.AST, FunctionInfo | None]]:
    """Every call and import in ``source``, in source order, paired with
    the innermost indexed function it runs in (``None`` outside one)."""
    scopes: list[FunctionInfo | None] = [None]
    stack: list[ast.AST | None] = [source.tree]
    while stack:
        node = stack.pop()
        if node is None:  # the end of a function's subtree
            scopes.pop()
            continue
        fi = by_node.get(id(node))
        if fi is not None:
            scopes.append(fi)
            stack.append(None)
        if isinstance(node, (ast.Call, ast.Import, ast.ImportFrom)):
            yield node, scopes[-1]
        children = list(ast.iter_child_nodes(node))
        children.reverse()
        stack.extend(children)


def _pool_boundary(call: ast.Call, env) -> str | None:
    """``<executor class>.<method>`` when ``call`` is ``.map``/``.submit``
    on a local bound from a process-pool executor, else ``None``.

    Resolved here rather than in the call graph: an executor is a
    library object, so its methods never become call-graph targets.
    """
    func = call.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr in POOL_METHODS
        and isinstance(func.value, ast.Name)
    ):
        return None
    prov = env.get(func.value.id)
    if prov is None or not prov.origin.startswith("call:"):
        return None
    executor = prov.origin[5:]
    if executor not in POOL_EXECUTORS:
        return None
    return f"{executor}.{func.attr}"

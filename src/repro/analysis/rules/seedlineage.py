"""``seed-lineage`` — every generator must trace back to the seed tree.

The determinism contract (``docs/determinism.md``) hangs every random
draw off one root seed through :func:`repro.rng.derive_rng` (scoped
streams) and :func:`repro.rng.task_seeds` (per-task seeds drawn up
front). The PR-5 ``determinism`` rule catches the syntactic violations
(``np.random.seed``, unseeded ``default_rng``); this rule enforces the
*flow* half of the contract over the dataflow layer:

- generators must be created by ``repro.rng`` (``make_rng`` /
  ``derive_rng``) — a raw ``np.random.default_rng(...)`` anywhere else
  forks a parallel lineage that no scope tuple names;
- a generator reaching a stochastic call through parameters is traced
  interprocedurally to its creation; lineages that end at a raw
  constructor are flagged with the full call-chain witness;
- generators must not cross a worker-process task boundary — ``.map``
  or ``.submit`` on a local bound from ``ProcessPoolExecutor(...)``
  (pass seeds, derive worker-side — generator state does not fork
  deterministically across processes);
- two call sites must not derive from the same constant scope tuple
  (identical streams masquerading as independent ones);
- seeds fed into ``derive_rng``/``make_rng``/``task_seeds`` must not
  come from process- or time-dependent values (``os.getpid``, ``hash``,
  ``time.*`` ...).

Unresolvable origins degrade to silence, never to a finding.
"""

from __future__ import annotations

from typing import Iterable

import ast

from repro.analysis.dataflow import (
    FunctionInfo,
    WitnessStep,
    body_statements,
    get_dataflow,
)
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel
from repro.analysis.rules.base import Rule

#: Modules allowed to construct generators directly (the lineage root).
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
    "repro.rng.spawn_seeds",
    "repro.rng.task_seeds",
}

#: Canonical origins that make a seed process- or time-dependent.
VOLATILE_ORIGINS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.perf_counter",
    "os.getpid",
    "uuid.uuid4",
    "id",
    "hash",
}


class SeedLineageRule(Rule):
    """Trace every generator back to ``derive_rng``/``task_seeds``."""

    rule_id = "seed-lineage"
    description = (
        "generators must descend from repro.rng and never cross worker "
        "boundaries; scope tuples must be unique"
    )
    version = 2

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        """Seed-lineage findings over every function in the project."""
        df = get_dataflow(model)
        scope_sites: dict[tuple, list[tuple[FunctionInfo, ast.Call]]] = {}
        for fi in df.functions.values():
            env = df.function_env(fi)
            for call in _calls_of(fi):
                targets = df.call_targets(fi, call, env)
                yield from self._check_construction(fi, call, targets)
                yield from self._check_stochastic_use(df, fi, call, env)
                yield from self._check_pool_boundary(fi, call, env)
                yield from self._check_seed_source(
                    df, fi, call, targets, env
                )
                self._collect_scope(fi, call, targets, scope_sites)
        yield from self._check_scope_reuse(scope_sites)

    # ------------------------------------------------------------------

    def _check_construction(
        self, fi: FunctionInfo, call: ast.Call, targets: tuple[str, ...]
    ) -> Iterable[Finding]:
        if fi.module in SANCTIONED_MODULES:
            return
        for target in targets:
            if target in RAW_CONSTRUCTORS:
                yield self.finding(
                    fi.source.relpath,
                    call.lineno,
                    f"{target}() creates a generator outside the seed "
                    "lineage; use repro.rng.make_rng or derive_rng "
                    f"(in {fi.qualname})",
                    witness=(
                        WitnessStep(
                            fi.source.relpath,
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
        if origin.startswith("param:") and _is_self_attr(receiver):
            # The provenance came out of ``__init__``'s environment, so
            # the parameter belongs to the constructor, not this method.
            init = df.functions.get(f"{fi.class_key}.__init__")
            if init is not None:
                owner = init
        if origin.startswith("call:"):
            canonical = origin[5:]
            if (
                canonical in RAW_CONSTRUCTORS
                and fi.module not in SANCTIONED_MODULES
            ):
                # The construction finding already covers the creation
                # site in this function; no duplicate here.
                return
            return
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


def _calls_of(fi: FunctionInfo):
    for stmt in body_statements(fi.node):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )

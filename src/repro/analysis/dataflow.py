"""The interprocedural dataflow layer under the semantic rules.

:class:`DataflowModel` extends the per-file :class:`~repro.analysis.model.
ProjectModel` with the three project-wide structures the dataflow rules
(``seed-lineage``, ``dtype-tier``, ``lock-order``, ``resource-lifetime``)
reason over:

- **symbol tables** — per-module import alias maps (``np`` →
  ``numpy``) plus facade chasing, so a name used anywhere resolves to
  one *canonical* dotted path (``from repro.obs import Tracer``
  re-exported through ``repro/obs/__init__.py`` still canonicalises
  to ``repro.obs.trace.Tracer``);
- **a call graph** — every ``ast.Call`` resolved to the
  :class:`FunctionInfo` it targets where that is statically knowable:
  plain functions through the import tables, ``self.method()`` through
  the class MRO, ``self.attr.method()`` and ``local.method()`` through
  declared/inferred receiver types. Anything dynamic degrades to
  *unknown* — an unresolved call never becomes a finding;
- **per-function provenance environments** — a forward def-use pass
  mapping each local (and ``self.attr``) name to the canonical origin
  that produced it (``call:repro.rng.derive_rng``, ``param:seed``,
  ``const`` ...) together with a :class:`WitnessStep` trail, the raw
  material of ``repro check --explain``.

It also holds the AST helpers the rules share (:func:`dotted_parts`,
:func:`is_self_attr`, :func:`calls_in`, :func:`body_statements`); a
rule imports them rather than keeping its own variant.

Everything here is stdlib-only (``ast`` + dataclasses), like the rest
of the package, so :func:`~repro.analysis.runner.run_check` needs
nothing beyond the standard library.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.model import ProjectModel, SourceFile, import_base

#: Upper bound on witness-trail length (keeps findings readable).
MAX_TRAIL = 8

#: Upper bound on interprocedural parameter tracing depth.
MAX_TRACE_DEPTH = 6

#: A ``# repro: tier[value]`` comment; group 1 is the value.
_TIER_ANNOTATION = re.compile(r"#\s*repro:\s*tier\[([^\]]+)\]")


@dataclass(frozen=True)
class WitnessStep:
    """One hop of the dataflow path behind a finding."""

    path: str
    line: int
    note: str

    def render(self) -> str:
        """The one-line ``path:line — note`` form printed by --explain."""
        return f"{self.path}:{self.line} — {self.note}"


@dataclass(frozen=True)
class Prov:
    """The inferred origin of one value.

    ``origin`` is a small grammar rather than a class hierarchy so
    provenance stays hashable and cheap to union:

    - ``call:<canonical>`` — produced by a call that resolved;
    - ``param:<name>`` — flowed in through the enclosing function's
      parameter (the hook interprocedural tracing picks up);
    - ``attr:self.<name>`` — an instance attribute with no known
      initialiser;
    - ``const`` / ``unknown`` — literals and everything unresolvable.
    """

    origin: str
    line: int = 0
    managed: bool = False
    trail: tuple[WitnessStep, ...] = ()


@dataclass
class FunctionInfo:
    """One function or method in the project, keyed by canonical name."""

    canonical: str
    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    class_key: str | None = None

    @property
    def name(self) -> str:
        """The bare function name (last qualname segment)."""
        return self.node.name

    def param_names(self) -> list[str]:
        """Positional parameter names, in order (``self`` included)."""
        args = self.node.args
        return [a.arg for a in (*args.posonlyargs, *args.args)]


@dataclass
class ClassInfo:
    """One class in the project: bases, methods, declared attr types."""

    key: str
    module: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    base_keys: list[str] = field(default_factory=list)
    #: ``attr -> {canonical class keys}`` inferred from ``__init__``
    #: assignments (``self.x = ClassName(...)``) and annotations.
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)


def dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``, or ``None`` for dynamic bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attribute when ``None``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def calls_in(fi: FunctionInfo) -> Iterator[ast.Call]:
    """Every call in a function's body, once each, statement by statement.

    Nested closures and lambdas count as part of the body that defines
    them; decorators and default values do not.
    """
    for stmt in fi.node.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


def header_span(node: ast.stmt) -> tuple[int, int]:
    """The header line span of a statement (decorators included).

    For compound statements the span stops where the body starts; for
    simple statements it covers the whole statement.
    """
    start = node.lineno
    decorators = getattr(node, "decorator_list", None)
    if decorators:
        start = min(start, decorators[0].lineno)
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and hasattr(body[0], "lineno"):
        end = max(start, body[0].lineno - 1)
    else:
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
    return start, end


def iter_statements(tree: ast.AST) -> Iterator[ast.stmt]:
    """Every statement node in ``tree`` (bodies included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            yield node


def body_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements of a function body in source order, skipping nested
    ``def``/``class`` bodies (those are separate analysis units)."""
    stack: list[ast.stmt] = list(
        reversed(getattr(node, "body", []))
    )
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for attr in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(stmt, attr, [])))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(reversed(handler.body))


class DataflowModel:
    """Project-wide symbol tables, call graph, and provenance cache."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.imports: dict[str, dict[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``callee canonical -> [(caller FunctionInfo, ast.Call)]``.
        self.callers: dict[str, list[tuple[FunctionInfo, ast.Call]]] = {}
        self._env_cache: dict[str, dict[str, Prov]] = {}
        self._call_cache: dict[int, tuple[str, ...]] = {}
        for source in model.files:
            self._index_module(source)
        for info in self.classes.values():
            self._infer_attr_types(info)
        for info in list(self.functions.values()):
            for call in calls_in(info):
                for target in self.call_targets(info, call):
                    self.callers.setdefault(target, []).append((info, call))

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _index_module(self, source: SourceFile) -> None:
        table: dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = import_base(node, source.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        self.imports[source.module] = table
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(source, stmt, qualprefix="", class_key=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(source, stmt)

    def _add_function(
        self,
        source: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualprefix: str,
        class_key: str | None,
    ) -> None:
        qualname = f"{qualprefix}{node.name}"
        canonical = f"{source.module}.{qualname}"
        self.functions[canonical] = FunctionInfo(
            canonical=canonical,
            module=source.module,
            qualname=qualname,
            node=node,
            source=source,
            class_key=class_key,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(
                    source, stmt, qualprefix=f"{qualname}.", class_key=None
                )

    def _add_class(self, source: SourceFile, node: ast.ClassDef) -> None:
        key = f"{source.module}.{node.name}"
        info = ClassInfo(
            key=key,
            module=source.module,
            name=node.name,
            node=node,
            source=source,
        )
        for base in node.bases:
            parts = dotted_parts(base)
            if parts is not None:
                info.base_keys.append(
                    self.resolve(source.module, ".".join(parts))
                )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(
                    source, stmt, qualprefix=f"{node.name}.", class_key=key
                )
                info.methods[stmt.name] = f"{key}.{stmt.name}"
        self.classes[key] = info

    def _infer_attr_types(self, info: ClassInfo) -> None:
        init = self.functions.get(f"{info.key}.__init__")
        if init is None:
            return
        for stmt in body_statements(init.node):
            target_attr: str | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
                if is_self_attr(target):
                    target_attr = target.attr  # type: ignore[union-attr]
            elif isinstance(stmt, ast.AnnAssign) and is_self_attr(
                stmt.target
            ):
                target_attr = stmt.target.attr  # type: ignore[union-attr]
                value = stmt.value
                parts = dotted_parts(_unquote_annotation(stmt.annotation))
                if parts is not None:
                    resolved = self.resolve(info.module, ".".join(parts))
                    if resolved in self.classes:
                        info.attr_types.setdefault(target_attr, set()).add(
                            resolved
                        )
            if target_attr is None:
                continue
            for call in _candidate_calls(value):
                parts = dotted_parts(call.func)
                if parts is None:
                    continue
                resolved = self.resolve(info.module, ".".join(parts))
                if resolved in self.classes:
                    info.attr_types.setdefault(target_attr, set()).add(
                        resolved
                    )
            # Parameter pass-through: ``self.x = x`` with ``x:
            # SomeClass`` annotated on the parameter.
            if isinstance(value, ast.Name):
                annotation = _unquote_annotation(
                    _param_annotation(init.node, value.id)
                )
                if annotation is not None:
                    parts = dotted_parts(annotation)
                    if parts is not None:
                        resolved = self.resolve(
                            info.module, ".".join(parts)
                        )
                        if resolved in self.classes:
                            info.attr_types.setdefault(
                                target_attr, set()
                            ).add(resolved)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str:
        """The canonical dotted path of ``dotted`` as seen in ``module``.

        Expands the leading segment through the module's import table,
        prefixes module-local definitions, then chases re-exports
        through facade modules in the model. Unresolvable names come
        back unchanged — callers must treat non-model names as opaque.
        """
        head, _, rest = dotted.partition(".")
        table = self.imports.get(module, {})
        if head in table:
            dotted = table[head] + (f".{rest}" if rest else "")
        elif (
            f"{module}.{head}" in self.functions
            or f"{module}.{head}" in self.classes
        ):
            dotted = f"{module}.{dotted}"
        return self._canonicalize(dotted)

    def _canonicalize(self, dotted: str, _depth: int = 0) -> str:
        if _depth > 10:
            return dotted
        if dotted in self.functions or dotted in self.classes:
            return dotted
        prefix = _longest_module_prefix(dotted, self.model.modules)
        if prefix is None or prefix == dotted:
            return dotted
        rest = dotted[len(prefix) + 1:]
        head, _, tail = rest.partition(".")
        table = self.imports.get(prefix, {})
        if head in table:
            chased = table[head] + (f".{tail}" if tail else "")
            if chased != dotted:
                return self._canonicalize(chased, _depth + 1)
        return dotted

    def mro(self, class_key: str) -> list[ClassInfo]:
        """The class and its model-resolvable bases, nearest first."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            out.append(info)
            stack.extend(info.base_keys)
        return out

    def resolve_method(
        self, class_key: str, name: str
    ) -> FunctionInfo | None:
        """The :class:`FunctionInfo` implementing ``name`` on the class."""
        for info in self.mro(class_key):
            canonical = info.methods.get(name)
            if canonical is not None:
                return self.functions.get(canonical)
        return None

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------

    def call_targets(
        self,
        fi: FunctionInfo,
        call: ast.Call,
        env: dict[str, Prov] | None = None,
    ) -> tuple[str, ...]:
        """Canonical names a call might target; ``()`` when unknown."""
        cached = self._call_cache.get(id(call))
        if cached is not None:
            return cached
        targets = tuple(self._resolve_call(fi, call, env))
        self._call_cache[id(call)] = targets
        return targets

    def _resolve_call(
        self,
        fi: FunctionInfo,
        call: ast.Call,
        env: dict[str, Prov] | None,
    ) -> Iterator[str]:
        parts = dotted_parts(call.func)
        if parts is None:
            return
        head = parts[0]
        if head == "self" and fi.class_key is not None:
            if len(parts) == 2:
                method = self.resolve_method(fi.class_key, parts[1])
                yield (
                    method.canonical
                    if method is not None
                    else f"{fi.class_key}.{parts[1]}"
                )
                return
            if len(parts) == 3:
                attr_types: set[str] = set()
                for info in self.mro(fi.class_key):
                    attr_types |= info.attr_types.get(parts[1], set())
                for type_key in sorted(attr_types):
                    method = self.resolve_method(type_key, parts[2])
                    yield (
                        method.canonical
                        if method is not None
                        else f"{type_key}.{parts[2]}"
                    )
                return
            return
        if env is None:
            env = self.function_env(fi)
        if len(parts) == 2 and head in env:
            origin = env[head].origin
            if origin.startswith("call:"):
                type_key = origin[5:]
                if type_key in self.classes:
                    method = self.resolve_method(type_key, parts[1])
                    yield (
                        method.canonical
                        if method is not None
                        else f"{type_key}.{parts[1]}"
                    )
                    return
        resolved = self.resolve(fi.module, ".".join(parts))
        if resolved in self.classes:
            init = self.resolve_method(resolved, "__init__")
            yield resolved
            if init is not None:
                yield init.canonical
            return
        yield resolved

    # ------------------------------------------------------------------
    # provenance (def-use) environments
    # ------------------------------------------------------------------

    def function_env(self, fi: FunctionInfo) -> dict[str, Prov]:
        """``name -> Prov`` over the function body (order-accumulated).

        Keys are local names plus ``self.<attr>`` targets. The pass is
        flow-insensitive (last assignment wins) — precise enough for
        origin classification, cheap enough to run project-wide.
        """
        cached = self._env_cache.get(fi.canonical)
        if cached is not None:
            return cached
        env: dict[str, Prov] = {}
        self._env_cache[fi.canonical] = env  # break recursion cycles
        relpath = fi.source.relpath
        for name in fi.param_names():
            env[name] = Prov(
                origin=f"param:{name}",
                line=fi.node.lineno,
                trail=(
                    WitnessStep(
                        relpath,
                        fi.node.lineno,
                        f"parameter `{name}` of {fi.qualname}()",
                    ),
                ),
            )
        for stmt in body_statements(fi.node):
            if isinstance(stmt, ast.Assign):
                prov = self._expr_prov(fi, stmt.value, env)
                for target in stmt.targets:
                    self._bind_target(fi, target, prov, env, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                prov = self._expr_prov(fi, stmt.value, env)
                self._bind_target(fi, stmt.target, prov, env, stmt.lineno)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    prov = self._expr_prov(fi, item.context_expr, env)
                    prov = Prov(
                        origin=prov.origin,
                        line=prov.line,
                        managed=True,
                        trail=prov.trail,
                    )
                    if item.optional_vars is not None:
                        self._bind_target(
                            fi, item.optional_vars, prov, env, stmt.lineno
                        )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                prov = self._expr_prov(fi, stmt.iter, env)
                self._bind_target(fi, stmt.target, prov, env, stmt.lineno)
        return env

    def _bind_target(
        self,
        fi: FunctionInfo,
        target: ast.expr,
        prov: Prov,
        env: dict[str, Prov],
        line: int,
    ) -> None:
        relpath = fi.source.relpath
        if isinstance(target, ast.Name):
            key: str | None = target.id
        elif is_self_attr(target):
            key = f"self.{target.attr}"  # type: ignore[union-attr]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(fi, element, prov, env, line)
            return
        else:
            key = None
        if key is None:
            return
        trail = prov.trail
        if len(trail) < MAX_TRAIL:
            trail = trail + (
                WitnessStep(relpath, line, f"`{key}` bound here"),
            )
        env[key] = Prov(
            origin=prov.origin, line=line, managed=prov.managed, trail=trail
        )

    def _expr_prov(
        self, fi: FunctionInfo, expr: ast.expr, env: dict[str, Prov]
    ) -> Prov:
        relpath = fi.source.relpath
        if isinstance(expr, ast.Name):
            prov = env.get(expr.id)
            if prov is not None:
                return prov
            return Prov(origin="unknown", line=expr.lineno)
        if isinstance(expr, ast.Call):
            targets = self.call_targets(fi, expr, env)
            origin = f"call:{targets[0]}" if targets else "unknown"
            label = targets[0] if targets else "<dynamic>"
            return Prov(
                origin=origin,
                line=expr.lineno,
                trail=(
                    WitnessStep(
                        relpath, expr.lineno, f"produced by {label}()"
                    ),
                ),
            )
        if is_self_attr(expr):
            key = f"self.{expr.attr}"  # type: ignore[union-attr]
            prov = env.get(key)
            if prov is not None:
                return prov
            if fi.class_key is not None:
                init = self.functions.get(f"{fi.class_key}.__init__")
                if init is not None and init.canonical != fi.canonical:
                    init_env = self.function_env(init)
                    prov = init_env.get(key)
                    if prov is not None:
                        return prov
            return Prov(origin=f"attr:{key}", line=expr.lineno)
        if isinstance(expr, ast.Constant):
            return Prov(origin="const", line=expr.lineno)
        if isinstance(expr, ast.Await):
            return self._expr_prov(fi, expr.value, env)
        if isinstance(expr, ast.IfExp):
            return self._expr_prov(fi, expr.body, env)
        if isinstance(expr, ast.BinOp):
            left = self._expr_prov(fi, expr.left, env)
            if left.origin != "const":
                return left
            return self._expr_prov(fi, expr.right, env)
        if isinstance(expr, ast.Subscript):
            return self._expr_prov(fi, expr.value, env)
        if isinstance(expr, ast.Starred):
            return self._expr_prov(fi, expr.value, env)
        return Prov(origin="unknown", line=getattr(expr, "lineno", 0))

    def expr_prov(
        self,
        fi: FunctionInfo,
        expr: ast.expr,
        env: dict[str, Prov] | None = None,
    ) -> Prov:
        """The provenance of an arbitrary expression in ``fi``'s body."""
        if env is None:
            env = self.function_env(fi)
        return self._expr_prov(fi, expr, env)

    # ------------------------------------------------------------------
    # interprocedural tracing
    # ------------------------------------------------------------------

    def trace_param(
        self,
        fi: FunctionInfo,
        param: str,
        _depth: int = 0,
        _visited: frozenset[str] = frozenset(),
    ) -> list[tuple[Prov, tuple[WitnessStep, ...]]]:
        """Where values flowing into ``fi(param=...)`` come from.

        Walks the caller index: every resolved call site's matching
        argument expression is classified in *its* function's
        environment; arguments that are themselves parameters recurse
        one level up (bounded by :data:`MAX_TRACE_DEPTH`). Returns
        ``(origin, witness chain)`` pairs; call sites that cannot be
        mapped degrade to nothing rather than to a false origin.
        """
        key = f"{fi.canonical}::{param}"
        if _depth > MAX_TRACE_DEPTH or key in _visited:
            return []
        results: list[tuple[Prov, tuple[WitnessStep, ...]]] = []
        for caller, call in self.callers.get(fi.canonical, []):
            arg = _argument_for(call, fi, param)
            if arg is None:
                continue
            hop = WitnessStep(
                caller.source.relpath,
                call.lineno,
                f"{caller.qualname}() passes `{param}` to {fi.qualname}()",
            )
            prov = self._expr_prov(caller, arg, self.function_env(caller))
            if prov.origin.startswith("param:"):
                upstream = self.trace_param(
                    caller,
                    prov.origin[6:],
                    _depth + 1,
                    _visited | {key},
                )
                for origin, chain in upstream:
                    results.append((origin, chain + (hop,)))
                continue
            results.append((prov, prov.trail + (hop,)))
        return results


def get_dataflow(model: ProjectModel) -> DataflowModel:
    """The (memoised) :class:`DataflowModel` of a project model."""
    cached = getattr(model, "_dataflow", None)
    if cached is None:
        cached = DataflowModel(model)
        model._dataflow = cached  # type: ignore[attr-defined]
    return cached


def _longest_module_prefix(
    dotted: str, modules: dict[str, SourceFile]
) -> str | None:
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in modules:
            return candidate
    return None


def _candidate_calls(value: ast.expr | None) -> Iterator[ast.Call]:
    """Calls an attribute assignment's RHS might evaluate to."""
    if value is None:
        return
    if isinstance(value, ast.Call):
        yield value
    elif isinstance(value, ast.IfExp):
        yield from _candidate_calls(value.body)
        yield from _candidate_calls(value.orelse)
    elif isinstance(value, ast.BoolOp):
        for operand in value.values:
            yield from _candidate_calls(operand)


def _param_annotation(
    node: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> ast.expr | None:
    for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
        if arg.arg == name:
            return arg.annotation
    return None


def _unquote_annotation(annotation: ast.expr | None) -> ast.expr | None:
    """A string forward-reference annotation parsed back to an expr."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


def _argument_for(
    call: ast.Call, fi: FunctionInfo, param: str
) -> ast.expr | None:
    """The argument expression feeding ``param`` at this call site."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    params = fi.param_names()
    if params and params[0] == "self":
        receiver = dotted_parts(call.func)
        # Bound calls (``obj.method(...)``) do not pass self explicitly.
        if receiver is not None and len(receiver) > 1:
            params = params[1:]
    try:
        index = params.index(param)
    except ValueError:
        return None
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    if len(positional) != len(call.args):
        return None  # *args splat: positions unknowable
    if index < len(positional):
        return positional[index]
    return None


def parent_map(root: ast.AST) -> dict[int, ast.AST]:
    """``id(child) -> parent`` over every node beneath ``root``."""
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def tier_annotation(source: SourceFile, node: ast.stmt) -> str | None:
    """The ``# repro: tier[...]`` annotation on a statement header.

    Scans the header span (decorators through the ``def`` line) plus the
    line directly above for ``# repro: tier[value]`` and returns the
    bracketed value, or ``None``.
    """
    start, end = header_span(node)
    for line_number in range(max(1, start - 1), end + 1):
        if line_number <= len(source.lines):
            match = _TIER_ANNOTATION.search(source.lines[line_number - 1])
            if match is not None:
                return match.group(1).strip()
    return None

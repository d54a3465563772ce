"""``resource-lifetime`` — handles must be scoped, writes must be atomic.

Readers may keep ``np.load(..., mmap_mode="r")`` memmaps and open file
handles alive across calls; persistence writes artefacts that crash
tests expect to be all-or-nothing. Two lifetime contracts follow:

- **acquisition**: every ``np.load``/``open``/``mmap.mmap`` result must
  be context-managed (``with``), explicitly ``.close()``d in the same
  function, returned (ownership transfer), handed to another call
  (ownership unknowable — degrades silently), or registered on ``self``
  of a class that exposes ``close()``/``__exit__`` so *some* owner can
  release it. Anonymous ``mmap.mmap(-1, ...)`` buffers are exempt —
  they are reclaimed with the array by the GC;
- **writes**: artefacts reach disk only through
  :func:`repro.resilience.artefacts.atomic_write` (or wrappers like
  ``write_npz_columns`` that use it). Direct ``Path.write_text`` /
  ``write_bytes``, write-mode ``open``, and ``np.save*`` onto a bare
  path bypass the temp-file + fsync + rename sequence and can leave a
  torn artefact after a crash.

The artefacts module itself is the sanctioned implementation and is
exempt from the write checks.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.dataflow import (
    FunctionInfo,
    WitnessStep,
    body_statements,
    dotted_parts,
    get_dataflow,
    parent_map,
)
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile
from repro.analysis.rules.base import Rule

#: The module implementing the sanctioned write path.
ARTEFACTS_MODULE = "repro.resilience.artefacts"

#: Modules that ARE the sanctioned write implementations — exempt from
#: the write checks (the stdlib-only clone exists so the analyzer stays
#: importable without numpy; see ``repro.analysis._io``).
SANCTIONED_WRITE_MODULES = {ARTEFACTS_MODULE, "repro.analysis._io"}

#: Canonical calls producing handles that need a lifetime owner.
HANDLE_PRODUCERS = {
    "numpy.load": "np.load archive/memmap",
    "open": "file handle",
    "gzip.open": "file handle",
    "bz2.open": "file handle",
    "lzma.open": "file handle",
    "mmap.mmap": "mmap buffer",
}

#: Canonical savers whose destination must be an atomic_write handle.
RAW_SAVERS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}

#: The atomic write context managers' canonical names.
ATOMIC_WRITES = {
    f"{module}.atomic_write" for module in SANCTIONED_WRITE_MODULES
}


class ResourceLifetimeRule(Rule):
    """Context-manage handles; route artefact writes via atomic_write."""

    rule_id = "resource-lifetime"
    description = (
        "np.load/open/mmap results need a with-block, .close(), or a "
        "close()-exposing owner; writes must flow through atomic_write"
    )
    version = 1

    def check_file(
        self, source: SourceFile, model: ProjectModel
    ) -> Iterable[Finding]:
        """Handle-lifetime and write-path findings in this file."""
        df = get_dataflow(model)
        for fi in df.functions.values():
            if fi.source is not source:
                continue
            yield from self._check_function(df, source, fi)

    def _check_function(self, df, source: SourceFile, fi: FunctionInfo):
        parents = parent_map(fi.node)
        env = df.function_env(fi)
        closed = _closed_names(fi)
        returned = _returned_names(fi)
        passed = _names_passed_to_calls(fi)
        for stmt in body_statements(fi.node):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                targets = df.call_targets(fi, node, env)
                parts = dotted_parts(node.func)
                yield from self._check_handle(
                    df, source, fi, node, targets, parts, parents,
                    closed, returned, passed,
                )
                if fi.module not in SANCTIONED_WRITE_MODULES:
                    yield from self._check_write(
                        df, source, fi, node, targets, parts, env
                    )

    # ------------------------------------------------------------------
    # handle lifetimes
    # ------------------------------------------------------------------

    def _check_handle(
        self,
        df,
        source: SourceFile,
        fi: FunctionInfo,
        call: ast.Call,
        targets: tuple[str, ...],
        parts: list[str] | None,
        parents,
        closed: set[str],
        returned: set[str],
        passed: set[str],
    ):
        kind = None
        for target in targets:
            if target in HANDLE_PRODUCERS:
                kind = HANDLE_PRODUCERS[target]
                break
        # ``path.open(...)`` — a bound method, not resolvable by name.
        if kind is None and parts is not None and parts[-1] == "open":
            if targets and targets[0] == "os.open":
                return
            if len(parts) > 1:
                kind = "file handle"
        if kind is None:
            return
        if kind == "mmap buffer" and _is_anonymous_mmap(call):
            return
        parent = parents.get(id(call))
        if isinstance(parent, ast.withitem):
            return
        binding = _binding_target(parent, parents, call)
        if binding is None:
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{kind} is neither context-managed nor bound to an "
                f"owner — it leaks when this scope unwinds "
                f"(in {fi.qualname})",
                witness=(
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"{kind} acquired here without an owner",
                    ),
                ),
            )
            return
        if isinstance(binding, ast.Name):
            name = binding.id
            if name in closed or name in returned or name in passed:
                return
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{kind} bound to `{name}` is never closed, returned, "
                "or handed off — use a with-block or call .close() "
                f"(in {fi.qualname})",
                witness=(
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"{kind} bound to `{name}` here",
                    ),
                    WitnessStep(
                        source.relpath,
                        fi.node.lineno,
                        f"no close()/return/hand-off of `{name}` in "
                        f"{fi.qualname}()",
                    ),
                ),
            )
            return
        # Stored on self (attribute or a self-owned container): the
        # owning class must expose close() or __exit__.
        owner_attr = _self_store_attr(binding)
        if owner_attr is not None and fi.class_key is not None:
            if self._class_can_close(df, fi.class_key):
                return
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{kind} stored on self.{owner_attr}, but "
                f"{fi.class_key.rsplit('.', 1)[-1]} exposes no close() "
                "to release it (in "
                f"{fi.qualname})",
                witness=(
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"{kind} registered on self.{owner_attr}",
                    ),
                    WitnessStep(
                        source.relpath,
                        fi.node.lineno,
                        "owning class has no close()/__exit__",
                    ),
                ),
            )

    def _class_can_close(self, df, class_key: str) -> bool:
        return any(
            df.resolve_method(class_key, name) is not None
            for name in ("close", "__exit__")
        )

    # ------------------------------------------------------------------
    # atomic writes
    # ------------------------------------------------------------------

    def _check_write(
        self,
        df,
        source: SourceFile,
        fi: FunctionInfo,
        call: ast.Call,
        targets: tuple[str, ...],
        parts: list[str] | None,
        env,
    ):
        if parts is not None and parts[-1] in {"write_text", "write_bytes"}:
            yield self.finding(
                source.relpath,
                call.lineno,
                f".{parts[-1]}() writes the artefact in place; route it "
                "through repro.resilience.artefacts.atomic_write "
                f"(temp + fsync + rename) (in {fi.qualname})",
                witness=(
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"in-place .{parts[-1]}() in {fi.qualname}()",
                    ),
                ),
            )
            return
        if parts is not None and parts[-1] == "open":
            if targets and targets[0] == "os.open":
                return
            mode = _open_mode(call)
            if mode is not None and any(c in mode for c in "wax"):
                yield self.finding(
                    source.relpath,
                    call.lineno,
                    f"write-mode open({mode!r}) bypasses atomic_write; "
                    "a crash mid-write leaves a torn artefact "
                    f"(in {fi.qualname})",
                    witness=(
                        WitnessStep(
                            source.relpath,
                            call.lineno,
                            f"open({mode!r}) in {fi.qualname}()",
                        ),
                    ),
                )
            return
        for target in targets:
            if target not in RAW_SAVERS:
                continue
            if not call.args:
                return
            destination = call.args[0]
            prov = df.expr_prov(fi, destination, env)
            if prov.origin in {f"call:{name}" for name in ATOMIC_WRITES}:
                return
            if prov.origin.startswith(("param:", "attr:")):
                return  # could be a managed handle: degrade
            if prov.origin == "unknown":
                return
            if prov.origin.startswith("call:"):
                return  # handle produced by some call: degrade
            yield self.finding(
                source.relpath,
                call.lineno,
                f"{target.rsplit('.', 1)[-1]}() onto a bare path "
                "bypasses atomic_write (in "
                f"{fi.qualname})",
                witness=(
                    *prov.trail,
                    WitnessStep(
                        source.relpath,
                        call.lineno,
                        f"unmanaged destination reaches {target}()",
                    ),
                ),
            )
            return


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _is_anonymous_mmap(call: ast.Call) -> bool:
    if not call.args:
        return False
    first = call.args[0]
    if isinstance(first, ast.UnaryOp) and isinstance(first.op, ast.USub):
        first = first.operand
        return isinstance(first, ast.Constant) and first.value == 1
    return isinstance(first, ast.Constant) and first.value == -1


def _binding_target(
    parent: ast.AST | None, parents, call: ast.Call
) -> ast.expr | None:
    """The assignment target the call's value lands in, if any."""
    node: ast.AST | None = call
    while parent is not None:
        if isinstance(parent, ast.Assign) and parent.value is node:
            if len(parent.targets) == 1:
                return parent.targets[0]
            return None
        if isinstance(parent, ast.AnnAssign) and parent.value is node:
            return parent.target
        if isinstance(parent, (ast.Call, ast.Return, ast.Starred)):
            # The handle is consumed by another expression; ownership
            # transfers there — degrade.
            return parent if isinstance(parent, ast.expr) else parent  # type: ignore[return-value]
        node = parent
        parent = parents.get(id(parent))
    return None


def _self_store_attr(binding: ast.expr) -> str | None:
    """``self.attr`` or ``self.attr[...]`` target -> ``attr``."""
    node = binding
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _closed_names(fi: FunctionInfo) -> set[str]:
    out: set[str] = set()
    for stmt in body_statements(fi.node):
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "close"
                and isinstance(node.func.value, ast.Name)
            ):
                out.add(node.func.value.id)
    return out


def _returned_names(fi: FunctionInfo) -> set[str]:
    out: set[str] = set()
    for stmt in body_statements(fi.node):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Name):
                    out.add(node.id)
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            value = stmt.value.value
            if value is not None:
                for node in ast.walk(value):
                    if isinstance(node, ast.Name):
                        out.add(node.id)
    return out


def _names_passed_to_calls(fi: FunctionInfo) -> set[str]:
    """Names handed to other calls (ownership unknowable — degrade)."""
    out: set[str] = set()
    for stmt in body_statements(fi.node):
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            for arg in (*node.args, *(k.value for k in node.keywords)):
                target = arg
                if isinstance(target, ast.Starred):
                    target = target.value
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out


def _open_mode(call: ast.Call) -> str | None:
    """The constant mode string of an ``open`` call, if present."""
    parts = dotted_parts(call.func)
    mode_index = 1
    if parts is not None and len(parts) > 1:
        mode_index = 0  # bound ``path.open(mode)``
    for keyword in call.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) else None
    if len(call.args) > mode_index:
        value = call.args[mode_index]
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
    return None

"""``dtype-tier`` — no silent float64 promotion on float32 hot paths.

The BPR training kernel (``docs/determinism.md``) is float32 end to
end: one silently-promoted operand turns every downstream product into
float64, doubling memory traffic and quietly changing the tier's
numerics. Hot-path functions declare their tier with an annotation
pragma on the ``def`` line::

    def train_batch(...):  # repro: tier[float32]

Inside an annotated function the rule flags:

- ``np.add.at`` — the buffered ufunc scatter the kernel exists to
  avoid (use the ``np.bincount`` segment-sum, ``scatter_add``);
- explicit float64 requests — ``dtype=np.float64``, ``.astype(
  np.float64)``, ``np.float64(...)`` casts;
- float64-defaulting constructors (``np.zeros``/``ones``/``empty``/
  ``full``) called without a ``dtype=``;
- ``np.bincount`` results used without a ``.astype(...)`` adaptation
  (bincount always accumulates float64);
- locals of inferred float64 provenance (true division, un-dtyped
  constructors) flowing into ``einsum``/``dot``/``matmul``/``@`` or
  into another tier-annotated function without an intervening
  ``.astype`` at the tier boundary.

Unknown dtypes (parameters, unresolved calls) never flag.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.dataflow import (
    WitnessStep,
    body_statements,
    dotted_parts,
    get_dataflow,
    parent_map,
    tier_annotation,
)
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel, SourceFile
from repro.analysis.rules.base import Rule

#: Constructors that default to float64 when ``dtype`` is omitted.
FLOAT64_CONSTRUCTORS = {
    "numpy.zeros": 2,
    "numpy.ones": 2,
    "numpy.empty": 2,
    "numpy.full": 3,
}

#: Calls whose operands promote the whole product on dtype mismatch.
PRODUCT_CALLS = {
    "numpy.einsum",
    "numpy.dot",
    "numpy.matmul",
    "numpy.inner",
    "numpy.tensordot",
}

#: Calls that propagate their array argument's dtype unchanged.
DTYPE_PRESERVING = {
    "numpy.maximum",
    "numpy.minimum",
    "numpy.log1p",
    "numpy.log",
    "numpy.exp",
    "numpy.abs",
    "numpy.where",
    "numpy.concatenate",
    "numpy.repeat",
    "numpy.clip",
}


class DtypeTierRule(Rule):
    """Keep ``# repro: tier[float32]`` functions promotion-free."""

    rule_id = "dtype-tier"
    description = (
        "no float64 promotion (add.at, bare constructors, unadapted "
        "bincount, f64 einsum operands) inside tier[float32] functions"
    )
    version = 1

    def check_file(
        self, source: SourceFile, model: ProjectModel
    ) -> Iterable[Finding]:
        """Findings in this file's ``tier[float32]``-annotated functions."""
        df = get_dataflow(model)
        tiered = {
            canonical
            for canonical, fi in df.functions.items()
            if fi.source is source
            and tier_annotation(source, fi.node) == "float32"
        }
        for canonical in sorted(tiered):
            fi = df.functions[canonical]
            yield from self._check_function(df, source, fi)

    def _check_function(self, df, source: SourceFile, fi):
        parents = parent_map(fi.node)
        env = df.function_env(fi)
        dtypes = self._dtype_env(df, fi, env)
        annotated_peers = {
            canonical
            for canonical, other in df.functions.items()
            if tier_annotation(other.source, other.node) == "float32"
        }
        for stmt in body_statements(fi.node):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield from self._check_call(
                        df, source, fi, node, env, dtypes, parents,
                        annotated_peers,
                    )
                elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, ast.MatMult
                ):
                    for operand in (node.left, node.right):
                        yield from self._flag_f64_operand(
                            source, fi, operand, dtypes, node.lineno, "@"
                        )

    def _check_call(
        self, df, source, fi, call, env, dtypes, parents, annotated_peers
    ):
        targets = df.call_targets(fi, call, env)
        parts = dotted_parts(call.func)
        relpath = source.relpath

        if "numpy.add.at" in targets:
            yield self.finding(
                relpath,
                call.lineno,
                "np.add.at on a tier[float32] hot path — use the "
                f"bincount segment-sum instead (in {fi.qualname})",
            )

        for keyword in call.keywords:
            if keyword.arg == "dtype" and _is_float64(keyword.value):
                yield self.finding(
                    relpath,
                    call.lineno,
                    "explicit float64 dtype inside tier[float32] code "
                    f"(in {fi.qualname})",
                )

        for target in targets:
            arity = FLOAT64_CONSTRUCTORS.get(target)
            if arity is None:
                continue
            has_dtype = any(k.arg == "dtype" for k in call.keywords)
            if not has_dtype and len(call.args) < arity:
                yield self.finding(
                    relpath,
                    call.lineno,
                    f"{target.rsplit('.', 1)[-1]}() without dtype= "
                    "defaults to float64 inside tier[float32] code "
                    f"(in {fi.qualname})",
                )

        if (
            parts is not None
            and parts[-1] == "astype"
            and call.args
            and _is_float64(call.args[0])
        ):
            yield self.finding(
                relpath,
                call.lineno,
                ".astype(float64) upcast inside tier[float32] code "
                f"(in {fi.qualname})",
            )

        if "numpy.float64" in targets:
            yield self.finding(
                relpath,
                call.lineno,
                "np.float64(...) cast inside tier[float32] code "
                f"(in {fi.qualname})",
            )

        if "numpy.bincount" in targets:
            parent = parents.get(id(call))
            adapted = (
                isinstance(parent, ast.Attribute)
                and parent.attr == "astype"
            )
            if not adapted:
                yield self.finding(
                    relpath,
                    call.lineno,
                    "np.bincount accumulates in float64; adapt the "
                    "result with .astype(target.dtype) inside "
                    f"tier[float32] code (in {fi.qualname})",
                )

        boundary = None
        if any(t in PRODUCT_CALLS for t in targets):
            boundary = next(t for t in targets if t in PRODUCT_CALLS)
        elif any(t in annotated_peers for t in targets):
            boundary = next(t for t in targets if t in annotated_peers)
        if boundary is not None:
            for arg in call.args:
                yield from self._flag_f64_operand(
                    source, fi, arg, dtypes, call.lineno,
                    boundary.rsplit(".", 1)[-1],
                )

    def _flag_f64_operand(
        self, source, fi, operand, dtypes, line, sink
    ):
        name = operand
        if isinstance(name, ast.Starred):
            name = name.value
        if not isinstance(name, ast.Name):
            return
        info = dtypes.get(name.id)
        if info is None or info[0] != "float64":
            return
        origin_line = info[1]
        yield self.finding(
            source.relpath,
            line,
            f"float64 operand `{name.id}` flows into {sink}() without "
            ".astype(np.float32) at the tier boundary "
            f"(in {fi.qualname})",
            witness=(
                WitnessStep(
                    source.relpath,
                    origin_line,
                    f"`{name.id}` becomes float64 here",
                ),
                WitnessStep(
                    source.relpath,
                    line,
                    f"`{name.id}` reaches {sink}() unadapted",
                ),
            ),
        )

    # ------------------------------------------------------------------

    def _dtype_env(self, df, fi, env) -> dict[str, tuple[str, int]]:
        """``name -> (dtype, origin line)`` over the function body.

        Tracks only what is provable: ``float64`` from true division and
        un-dtyped constructors, ``float32``/adapted from explicit
        ``dtype=np.float32`` or ``.astype(...)``. Everything else is
        absent (unknown).
        """
        dtypes: dict[str, tuple[str, int]] = {}
        for stmt in body_statements(fi.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                inferred = self._expr_dtype(df, fi, stmt.value, dtypes, env)
                if inferred is not None:
                    dtypes[target.id] = (inferred, stmt.lineno)
        return dtypes

    def _expr_dtype(self, df, fi, expr, dtypes, env) -> str | None:
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return "float64"
            left = self._expr_dtype(df, fi, expr.left, dtypes, env)
            right = self._expr_dtype(df, fi, expr.right, dtypes, env)
            if "float64" in (left, right):
                return "float64"
            return left or right
        if isinstance(expr, ast.Name):
            info = dtypes.get(expr.id)
            return info[0] if info else None
        if isinstance(expr, ast.Call):
            parts = dotted_parts(expr.func)
            if parts is not None and parts[-1] == "astype":
                if expr.args and _is_float64(expr.args[0]):
                    return "float64"
                return "adapted"
            targets = df.call_targets(fi, expr, env)
            for keyword in expr.keywords:
                if keyword.arg == "dtype":
                    return (
                        "float64" if _is_float64(keyword.value) else "adapted"
                    )
            if any(t in FLOAT64_CONSTRUCTORS for t in targets):
                return "float64"
            if any(t in DTYPE_PRESERVING for t in targets):
                for arg in expr.args:
                    inner = self._expr_dtype(df, fi, arg, dtypes, env)
                    if inner is not None:
                        return inner
            return None
        return None


def _is_float64(node: ast.expr) -> bool:
    """Whether an expression names the float64 dtype."""
    parts = dotted_parts(node)
    if parts is not None:
        return parts[-1] in {"float64", "double"} or parts == ["float"]
    return isinstance(node, ast.Constant) and node.value in (
        "float64",
        "double",
    )

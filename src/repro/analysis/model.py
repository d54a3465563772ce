"""The shared project model every rule walks.

One :class:`ProjectModel` is built per ``repro check`` run: each Python
file under the analyzed paths is read and parsed exactly once into a
:class:`SourceFile` (text, lines, ``ast`` tree, dotted module name), and
the module-level import graph — the input of the layering rule — is
derived lazily from the same trees. Rules therefore never re-read or
re-parse anything, which keeps a whole-``src/`` run fast enough for
tier-1.

Module names are inferred structurally: the package root of a file is
the highest ancestor directory chain where every level carries an
``__init__.py``. ``src/repro/core/bpr.py`` becomes ``repro.core.bpr``
without any hard-coded source root, so fixture trees in tests model
exactly like the real package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Directories never collected when expanding an analyzed path.
SKIP_DIRS = {
    ".git",
    ".pytest_cache",
    "__pycache__",
    "node_modules",
    ".hypothesis",
}


@dataclass
class SourceFile:
    """One parsed Python file of the analyzed project."""

    path: Path
    relpath: str
    module: str
    text: str
    lines: list[str] = field(repr=False)
    tree: ast.Module = field(repr=False)


class ProjectModel:
    """Every analyzed file plus the derived module import graph."""

    def __init__(self, root: Path, files: list[SourceFile]) -> None:
        self.root = root
        self.files = files
        self.modules: dict[str, SourceFile] = {
            source.module: source for source in files
        }
        self._import_graph: dict[str, list[tuple[str, int]]] | None = None

    def import_graph(self) -> dict[str, list[tuple[str, int]]]:
        """``module -> [(imported module, line), ...]`` over model modules.

        Only imports that resolve to another module *in the model* (or to
        a parent package of one) appear; stdlib and third-party imports
        are not layering facts and are dropped. Imports guarded by
        ``if TYPE_CHECKING:`` are dropped too — they never execute, so
        they create neither runtime layering edges nor runtime cycles
        (annotation-only back-references are the sanctioned way to type
        a lower-layer module against a higher one).
        """
        if self._import_graph is None:
            self._import_graph = {
                source.module: sorted(set(_module_imports(source, self)))
                for source in self.files
            }
        return self._import_graph


def _is_type_checking_test(test: ast.expr) -> bool:
    """Whether an ``if`` guard is the ``TYPE_CHECKING`` idiom."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _runtime_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Walk ``tree`` skipping bodies that never execute at runtime.

    An ``if TYPE_CHECKING:`` body is evaluated only by type checkers,
    so imports inside it are annotation-only facts, not runtime edges;
    its ``else`` branch, if any, does run and is still walked.
    """
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _module_imports(
    source: SourceFile, model: ProjectModel
) -> Iterator[tuple[str, int]]:
    known = model.modules
    prefixes = {module.split(".", 1)[0] for module in known}
    for node in _runtime_nodes(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _resolve(alias.name, known, prefixes)
                if target is not None:
                    yield target, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = import_base(node, source.module)
            if base is None:
                continue
            for alias in node.names:
                target = _resolve(
                    f"{base}.{alias.name}", known, prefixes
                ) or _resolve(base, known, prefixes)
                if target is not None:
                    yield target, node.lineno


def import_base(node: ast.ImportFrom, importer: str) -> str | None:
    """The absolute module a ``from ... import`` in ``importer`` pulls
    names from (relative imports resolved against its package)."""
    if not node.level:
        return node.module
    parts = importer.split(".")
    # level 1 = the importer's own package, each further level one up.
    anchor = parts[: len(parts) - node.level]
    if not anchor:
        return node.module
    if node.module:
        anchor.append(node.module)
    return ".".join(anchor)


def _resolve(
    name: str, known: dict[str, SourceFile], prefixes: set[str]
) -> str | None:
    """Map an imported dotted name onto a model module, or ``None``.

    ``from repro.eval import grid`` resolves to ``repro.eval.grid`` when
    that module is in the model, else to the package ``repro.eval``
    itself. Names whose top-level package is foreign to the model are
    dropped.
    """
    if name in known:
        return name
    if name.split(".", 1)[0] not in prefixes:
        return None
    while "." in name:
        name = name.rsplit(".", 1)[0]
        if name in known:
            return name
    return None


def module_name(path: Path) -> str:
    """The dotted module name of ``path``, inferred from ``__init__.py``s."""
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def collect_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(part in SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def build_project(paths: Iterable[Path | str], root: Path) -> ProjectModel:
    """Parse every Python file under ``paths`` into a :class:`ProjectModel`.

    Raises:
        SyntaxError: when a file under analysis does not parse — a broken
            tree cannot be checked, so this is a hard error, not a
            finding.
    """
    root = Path(root).resolve()
    files: list[SourceFile] = []
    for path in collect_python_files(Path(p) for p in paths):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        resolved = path.resolve()
        try:
            relpath = resolved.relative_to(root).as_posix()
        except ValueError:
            relpath = resolved.as_posix()
        files.append(
            SourceFile(
                path=resolved,
                relpath=relpath,
                module=module_name(resolved),
                text=text,
                lines=text.splitlines(),
                tree=tree,
            )
        )
    return ProjectModel(root, files)

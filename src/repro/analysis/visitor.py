"""Module model shared by all repro-lint checkers.

:class:`ModuleInfo` wraps one parsed source file and precomputes the
facts every checker needs: parent links on each AST node, the set of
module-level function names, imported names, and helpers for
resolving attribute chains and local bindings.  Checkers stay small
because the structural queries live here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cached_property

from repro.analysis.findings import normalize_path

_PARENT = "_repro_parent"

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.ClassDef, ast.Lambda)

#: Comprehension node types whose ``generators`` iterate a source.
COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def attach_parents(tree: ast.AST) -> None:
    """Link every node to its parent via a private attribute."""
    for parent_node in ast.walk(tree):
        for child in ast.iter_child_nodes(parent_node):
            setattr(child, _PARENT, parent_node)


def parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST):
    """Yield enclosing nodes from the immediate parent outward."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def enclosing_function(node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for anc in ancestors(node):
        if isinstance(anc, _FUNCTION_NODES):
            return anc
    return None


def terminal_name(expr: ast.AST) -> str | None:
    """The last identifier of an expression: ``a.b.c`` -> "c", ``f()`` -> "f"."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return terminal_name(expr.func)
    if isinstance(expr, ast.Await):
        return terminal_name(expr.value)
    return None


def call_keyword(call: ast.Call, name: str) -> ast.keyword | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


def statements_of(scope: ast.AST):
    """Walk statements in *scope* without descending into nested defs."""
    stack = list(getattr(scope, "body", []))
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, _SCOPE_NODES):
            continue
        for child_field in ("body", "orelse", "finalbody"):
            extra = getattr(stmt, child_field, None)
            if extra:
                stack.extend(extra)
        for handler in getattr(stmt, "handlers", []) or []:
            stack.extend(handler.body)


@dataclass
class ModuleInfo:
    """One parsed module plus the precomputed facts checkers query."""

    path: str
    source: str
    tree: ast.Module = field(repr=False)

    def __post_init__(self) -> None:
        self.path = normalize_path(self.path)
        attach_parents(self.tree)

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleInfo":
        return cls(path=path, source=source, tree=ast.parse(source))

    def matches(self, patterns) -> bool:
        """True when the module path matches any fnmatch *pattern*."""
        return any(fnmatch(self.path, pat) for pat in patterns)

    @cached_property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    @cached_property
    def module_functions(self) -> frozenset[str]:
        """Names bound to ``def`` at module top level (picklable targets)."""
        names = set()
        for stmt in self.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                names.add(stmt.name)
        return frozenset(names)

    @cached_property
    def imported_names(self) -> frozenset[str]:
        """Local names introduced by any ``import``/``from ... import``."""
        names = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return frozenset(names)

    def is_module_level_callable(self, name: str) -> bool:
        """Picklable by reference: a top-level ``def`` or an imported name."""
        return name in self.module_functions or name in self.imported_names

    def local_bindings(self, scope: ast.AST) -> dict[str, list[ast.AST]]:
        """Name -> values assigned within *scope* (no nested defs)."""
        bindings: dict[str, list[ast.AST]] = {}
        for stmt in statements_of(scope):
            targets: list[ast.AST] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(value)
        return bindings

    def local_function_defs(self, scope: ast.AST) -> frozenset[str]:
        """Names of functions defined *inside* a function (unpicklable)."""
        names = set()
        for stmt in getattr(scope, "body", []):
            if isinstance(stmt, _FUNCTION_NODES):
                names.add(stmt.name)
        return frozenset(names)

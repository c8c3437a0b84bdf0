"""Shared AST helpers for the rule catalog.

Everything here is pure functions over :mod:`ast` nodes: import
extraction (with ``TYPE_CHECKING`` / deferred tagging, lazy-export
tables included), stdlib-alias
maps for call-site resolution, and the dotted-module arithmetic used by
the layering rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class ImportedModule:
    """One imported module reference found in a file.

    ``target`` is the absolute dotted module the statement reaches for
    (``from repro.core.model import X`` -> ``repro.core.model``; plain
    ``import repro.core.model`` yields the same).  ``names`` carries the
    ``from``-imported attribute names (empty for plain imports).
    """

    target: str
    names: tuple[str, ...]
    node: ast.stmt
    type_checking: bool  # inside an `if TYPE_CHECKING:` block
    deferred: bool  # inside a function/method body (lazy import)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(module: str | None, level: int, importer: str) -> str | None:
    """Resolve a relative ``from``-import against the importer's name."""
    if level == 0:
        return module
    parts = importer.split(".")
    # Level 1 strips the module's own name, each further level one pkg.
    if level > len(parts):
        return None
    base = parts[: len(parts) - level]
    if module:
        base.append(module)
    return ".".join(base) if base else None


def iter_imports(tree: ast.Module, importer: str = "") -> Iterator[ImportedModule]:
    """Yield every module import in ``tree``, tagged by context."""

    def walk(statements, type_checking: bool, deferred: bool):
        for statement in statements:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    yield ImportedModule(alias.name, (), statement, type_checking, deferred)
            elif isinstance(statement, ast.ImportFrom):
                target = _resolve_relative(statement.module, statement.level, importer)
                if target is not None:
                    names = tuple(alias.name for alias in statement.names)
                    yield ImportedModule(target, names, statement, type_checking, deferred)
            elif isinstance(statement, ast.If):
                inner_tc = type_checking or _is_type_checking_test(statement.test)
                yield from walk(statement.body, inner_tc, deferred)
                yield from walk(statement.orelse, type_checking, deferred)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(statement.body, type_checking, True)
            elif isinstance(statement, ast.ClassDef):
                yield from walk(statement.body, type_checking, deferred)
            elif isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                yield from walk(statement.body, type_checking, deferred)
                yield from walk(statement.orelse, type_checking, deferred)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                yield from walk(statement.body, type_checking, deferred)
            elif isinstance(statement, ast.Try):
                yield from walk(statement.body, type_checking, deferred)
                for handler in statement.handlers:
                    yield from walk(handler.body, type_checking, deferred)
                yield from walk(statement.orelse, type_checking, deferred)
                yield from walk(statement.finalbody, type_checking, deferred)

    yield from walk(tree.body, False, False)
    for statement in lazy_imports(tree):
        names = tuple(alias.name for alias in statement.names)
        yield ImportedModule(statement.module, names, statement, False, True)


def lazy_table(statement: ast.stmt) -> ast.Dict | None:
    """The table of ``__getattr__, __dir__ = lazy_exports(__name__, {...})``.

    ``None`` for any other statement.  The one place that recognises a
    :mod:`repro.common.lazy` table; :func:`lazy_imports` reads it.
    """
    call = statement.value if isinstance(statement, ast.Assign) else None
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "lazy_exports"
        and len(call.args) == 2
        and isinstance(call.args[1], ast.Dict)
    ):
        return call.args[1]
    return None


def lazy_imports(tree: ast.Module) -> Iterator[ast.ImportFrom]:
    """The module's ``lazy_exports`` table, as the ``from`` imports it stands for.

    ``__getattr__, __dir__ = lazy_exports(__name__, {"pkg.mod": ("a",)})``
    (:mod:`repro.common.lazy`) binds ``a`` like ``from pkg.mod import
    a``, deferred to the first read of ``a``: the rules see that import.
    """
    for statement in tree.body:
        table = lazy_table(statement)
        if table is None:
            continue
        for key, value in zip(table.keys, table.values):
            if not (isinstance(key, ast.Constant) and isinstance(value, (ast.Tuple, ast.List))):
                continue
            names = [
                ast.alias(name=element.value)
                for element in value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
            yield ast.copy_location(ast.ImportFrom(module=key.value, names=names, level=0), key)


@dataclass(frozen=True)
class AliasMaps:
    """Name-resolution tables for call-site checks.

    ``modules`` maps a local name to the module it denotes (``import
    numpy as np`` -> ``{"np": "numpy"}``); ``members`` maps a local
    name to its ``(module, attribute)`` origin (``from time import
    perf_counter as pc`` -> ``{"pc": ("time", "perf_counter")}``).
    """

    modules: dict
    members: dict


def alias_maps(tree: ast.Module) -> AliasMaps:
    """Collect import aliases anywhere in ``tree`` (any nesting depth)."""
    modules: dict[str, str] = {}
    members: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                members[alias.asname or alias.name] = (node.module, alias.name)
    return AliasMaps(modules=modules, members=members)


def dotted_call_name(func: ast.expr, aliases: AliasMaps) -> str | None:
    """Resolve a ``Call.func`` to an absolute dotted name when possible.

    ``np.random.seed`` with ``import numpy as np`` resolves to
    ``numpy.random.seed``; ``pc`` with ``from time import perf_counter
    as pc`` resolves to ``time.perf_counter``.  Returns ``None`` for
    anything it cannot resolve statically (method calls on objects,
    subscripts, ...).
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.reverse()
    head = node.id
    if head in aliases.members:
        module, attribute = aliases.members[head]
        return ".".join([module, attribute, *parts])
    if head in aliases.modules:
        return ".".join([aliases.modules[head], *parts])
    return None


def top_segment(module: str, package: str = "repro") -> str | None:
    """The layer segment of an internal module name.

    ``repro.core.allocator`` -> ``core``; top-level modules map to
    their own name (``repro.api`` -> ``api``); the bare package root
    (``repro``) -> ``None``.
    """
    parts = module.split(".")
    if parts[0] != package or len(parts) < 2:
        return None
    return parts[1]

"""API-surface rules: the facade stays coherent and one-directional.

``repro.api`` is the only stability contract (DESIGN.md "Public API
and stability").  Two things keep it honest:

* ``api-all-resolves`` -- every name in a module's ``__all__`` is
  actually bound at module level (applied to every module, which keeps
  each subpackage's re-export list honest too, but exists for
  ``repro.api``: a facade exporting a ghost name is an instant
  downstream break).
* ``api-facade-import`` -- internal modules never import through the
  facade.  The facade depends on everything; an internal module
  reaching back up through it is a disguised cycle and makes the
  public surface load-bearing for internals.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import iter_imports
from repro.analysis.registry import rule

#: Modules allowed to import repro.api: the executables wrapping it.
FACADE_CONSUMERS = frozenset({"repro.cli", "repro.__main__"})


def _module_level_bindings(tree: ast.Module) -> set:
    """Names bound at module scope (follows If/Try/With/For bodies)."""
    bound: set[str] = set()

    def bind_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind_target(element)
        elif isinstance(target, ast.Starred):
            bind_target(target.value)

    def walk(statements) -> None:
        for statement in statements:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    if alias.name == "*":
                        continue
                    bound.add(alias.asname or alias.name)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    bind_target(target)
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                bind_target(statement.target)
            elif isinstance(statement, ast.If):
                walk(statement.body)
                walk(statement.orelse)
            elif isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                bind_target(getattr(statement, "target", ast.Constant(value=None)))
                walk(statement.body)
                walk(statement.orelse)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    if item.optional_vars is not None:
                        bind_target(item.optional_vars)
                walk(statement.body)
            elif isinstance(statement, ast.Try):
                walk(statement.body)
                for handler in statement.handlers:
                    walk(handler.body)
                walk(statement.orelse)
                walk(statement.finalbody)

    walk(tree.body)
    return bound


def _has_star_import(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
        for node in ast.walk(tree)
    )


@rule("api-all-resolves", "every name listed in __all__ must be bound in the module")
def check_all_resolves(ctx) -> Iterator:
    exports: list[tuple[str, ast.expr]] = []
    for statement in ctx.tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        ):
            continue
        if isinstance(statement.value, (ast.List, ast.Tuple)):
            for element in statement.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    exports.append((element.value, element))
    if not exports:
        return
    if _has_star_import(ctx.tree):
        return  # bindings are not statically knowable
    bound = _module_level_bindings(ctx.tree)
    bound.update({"__version__", "__doc__", "__name__", "__all__"})
    for name, node in exports:
        if name not in bound:
            yield ctx.violation(
                "api-all-resolves",
                node,
                f"__all__ exports {name!r} but {ctx.module} never binds it; "
                f"the facade would raise AttributeError on access",
            )


@rule(
    "api-facade-import",
    "internal modules must not import repro.api; the facade points outward only",
)
def check_facade_import(ctx) -> Iterator:
    if not ctx.module.startswith("repro"):
        return
    if ctx.module in FACADE_CONSUMERS or ctx.module == "repro.api":
        return
    for imported in iter_imports(ctx.tree, importer=ctx.module):
        target = imported.target
        if target == "repro.api" or target.startswith("repro.api."):
            yield ctx.violation(
                "api-facade-import",
                imported.node,
                f"{ctx.module} imports {target}: internals must import the "
                f"defining module directly -- reaching through the facade "
                f"creates an upward dependency on the whole package",
            )
        if target == "repro" and "api" in imported.names:
            yield ctx.violation(
                "api-facade-import",
                imported.node,
                f"{ctx.module} imports repro.api (via 'from repro import "
                f"api'): internals must import the defining module directly",
            )


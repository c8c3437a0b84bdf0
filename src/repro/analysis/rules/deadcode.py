"""Dead-export and dead-function audit.

Two decay modes the per-file rules cannot see:

* ``api-dead-export`` -- a name in ``repro.api.__all__`` that no test,
  example or script ever touches.  The facade is the stability
  contract; an export nobody exercises is a promise nobody verifies.
* ``dead-internal-function`` -- a module-level function inside
  ``repro.*`` with zero call-graph in-edges, zero imports and zero name
  references anywhere in the linted tree.  Dead weight accretes fastest
  right after refactors (PR 1's naive-reference allocator survived only
  because tests pin it; this rule finds the ones nothing pins).

Both rules judge *absence of references*, which is only meaningful
when the run actually includes the consumers: they deactivate unless
the linted set contains modules outside the ``repro`` package
(tests/examples/scripts).  The whole-repo gate in
``tests/analysis/test_codebase_clean.py`` provides that; a
``src/repro``-only run stays quiet rather than crying wolf about
helpers whose callers simply were not linted.

Heuristics for liveness are deliberately generous -- decorated
functions are registered by their decorator, dunders are called by the
runtime, string literals count as references (``__all__`` round-trip
tests, ``getattr`` dispatch) -- because a false "dead" claim costs
more trust than a missed one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import get_call_graph
from repro.analysis.project import FunctionSymbol, get_project
from repro.analysis.registry import rule

#: Entry points invoked from outside the import graph (console scripts,
#: ``python -m``) -- never dead even with zero static references.
_ENTRYPOINT_NAMES = frozenset({"main"})


def _consumer_contexts(contexts) -> list:
    """Linted modules outside the repro package (tests, examples, ...)."""
    return [
        context
        for context in contexts
        if context.module.split(".")[0] != "repro"
    ]


def _referenced_identifiers(contexts) -> frozenset:
    """Every Name id, attribute name and identifier-shaped string literal."""
    seen: set[str] = set()
    for context in contexts:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    seen.add(node.value)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    seen.add(alias.name)
    return frozenset(seen)


def _facade_exports(context) -> list:
    """(name, node) pairs of the module's literal ``__all__`` list."""
    exports: list = []
    for statement in context.tree.body:
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
    return exports


@rule(
    "api-dead-export",
    "every repro.api.__all__ entry must be referenced by at least one "
    "linted consumer (tests/examples/scripts)",
    scope="project",
)
def check_dead_exports(contexts) -> Iterator:
    project = get_project(contexts)
    api_table = project.table("repro.api")
    if api_table is None:
        return
    consumers = _consumer_contexts(contexts)
    if not consumers:
        return  # src-only run: absence of references proves nothing
    referenced = _referenced_identifiers(consumers)
    for name, node in _facade_exports(api_table.context):
        if name not in referenced:
            yield api_table.context.violation(
                "api-dead-export",
                node,
                f"repro.api exports {name!r} but no linted test, example or "
                f"script references it: an unexercised stability promise -- "
                f"cover it or drop it from __all__",
            )


def _is_dead_candidate(symbol: FunctionSymbol) -> bool:
    node = symbol.node
    if symbol.name.startswith("__") or symbol.name in _ENTRYPOINT_NAMES:
        return False
    if getattr(node, "decorator_list", None):
        return False  # the decorator registered it somewhere
    return True


@rule(
    "dead-internal-function",
    "module-level functions in repro.* must have at least one call-graph "
    "in-edge, import or name reference in the linted tree",
    scope="project",
)
def check_dead_internal(contexts) -> Iterator:
    project = get_project(contexts)
    if not _consumer_contexts(contexts):
        return  # cannot judge deadness without the consumers in view
    graph = get_call_graph(contexts)
    string_refs = _referenced_identifiers(contexts)

    # `from x import f` / `import x.f` anywhere counts as a reference
    # even if the bound name is never used again (re-export chains).
    imported_targets: set[str] = set()
    for module in project.modules.values():
        for dotted in module.import_bindings.values():
            resolved = project.resolve(dotted)
            if isinstance(resolved, FunctionSymbol):
                imported_targets.add(resolved.qualname)

    for symbol in project.iter_functions():
        if symbol.is_method or not symbol.module.startswith("repro"):
            continue
        if not _is_dead_candidate(symbol):
            continue
        referrers = graph.referrers.get(symbol.qualname, set()) - {symbol.qualname}
        if referrers:
            continue
        if symbol.qualname in imported_targets:
            continue
        if symbol.name in string_refs:
            continue
        context = project.modules[symbol.module].context
        yield context.violation(
            "dead-internal-function",
            symbol.node,
            f"{symbol.qualname} has no call-graph in-edges, no imports and "
            f"no name references anywhere in the linted tree: delete it, or "
            f"wire it to a caller/test",
        )


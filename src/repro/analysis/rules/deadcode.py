"""Dead-export audit.

``api-dead-export`` flags a name in ``repro.api.__all__`` that no test,
example or script ever touches -- a decay mode the per-file rules
cannot see.  The facade is the stability contract; an export nobody
exercises is a promise nobody verifies.

The rule judges *absence of references*, which is only meaningful
when the run actually includes the consumers: it deactivates unless
the linted set contains modules outside the ``repro`` package
(tests/examples/scripts).  The whole-repo gate in
``tests/analysis/test_codebase_clean.py`` provides that; a
``src/repro``-only run stays quiet rather than crying wolf about
exports whose users simply were not linted.  String literals count as
references (``__all__`` round-trip tests, ``getattr`` dispatch),
because a false "dead" claim costs more trust than a missed one.

Dead code inside ``src/repro`` is the reachability test's business
(``tests/integration/test_src_reachable.py``): every definition must
be named by code a command runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.project import get_project
from repro.analysis.registry import rule


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

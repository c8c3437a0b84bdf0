"""The project call graph.

Built on top of :mod:`repro.analysis.project`, this resolves every
call site in the linted tree to, where statically possible, the
function it invokes:

* plain ``Name`` calls against module functions, classes (an
  instantiation edges into ``__init__``/``__post_init__``) and import
  bindings, chasing re-exports;
* ``self.method()`` inside methods, walked up the project-known MRO;
* ``ClassName.method()`` and ``module.func()`` attribute chains;
* ``x.method()`` where ``x = ClassName(...)`` earlier in the same
  function body (single-assignment local type inference);
* ``functools.partial(fn, ...)`` factories -- the partial call edges
  straight into ``fn``, because the strategies layer ships partials
  whose eventual invocation the graph would otherwise never see.

Call sites that resolve to nothing internal but still have a static
dotted name (``time.monotonic``, ``numpy.random.default_rng``) are
kept as *external calls* per function -- the raw material of the
determinism taint rule.  Bare name references to internal functions
(callbacks, decorator arguments, ``default_factory=fn``) are tracked
as reference edges so the dead-code audit does not flag callback-only
functions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.project import (
    ClassSymbol,
    FunctionSymbol,
    Project,
    get_project,
)

_PARTIAL_NAMES = frozenset({"functools.partial", "functools.partialmethod"})
_INIT_METHODS = ("__init__", "__post_init__")


@dataclass(frozen=True)
class ExternalCall:
    """A call site whose target lives outside the linted tree."""

    dotted: str  # absolute dotted name, e.g. ``time.monotonic``
    node: ast.Call
    caller: str  # qualname of the enclosing function, or the module name


@dataclass
class CallGraph:
    """Adjacency over function qualnames plus external call records."""

    project: Project
    #: caller qualname -> callee qualname -> first call-site node.
    edges: dict = field(default_factory=dict)
    #: caller qualname -> referenced qualnames (superset of ``edges``):
    #: includes bare-name references without a call.
    refs: dict = field(default_factory=dict)
    #: caller qualname -> list[ExternalCall], in source order.
    external: dict = field(default_factory=dict)
    #: callee qualname -> set of caller qualnames (reverse of ``edges``).
    callers: dict = field(default_factory=dict)
    #: qualname -> set of referencing caller qualnames (reverse of refs).
    referrers: dict = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str, node: ast.AST) -> None:
        self.edges.setdefault(caller, {}).setdefault(callee, node)
        self.callers.setdefault(callee, set()).add(caller)
        self.add_ref(caller, callee)

    def add_ref(self, caller: str, callee: str) -> None:
        self.refs.setdefault(caller, set()).add(callee)
        self.referrers.setdefault(callee, set()).add(caller)

    def add_external(self, caller: str, dotted: str, node: ast.Call) -> None:
        self.external.setdefault(caller, []).append(
            ExternalCall(dotted=dotted, node=node, caller=caller)
        )

    def iter_external(self) -> Iterator[ExternalCall]:
        for caller in sorted(self.external):
            yield from self.external[caller]


class _FunctionWalker:
    """Resolve every call/reference inside one function (or module) body."""

    def __init__(
        self,
        graph: CallGraph,
        module: str,
        caller: str,
        class_name: str | None,
    ) -> None:
        self.graph = graph
        self.project = graph.project
        self.module = module
        self.table = graph.project.modules[module]
        self.caller = caller
        self.class_name = class_name
        #: local var name -> ClassSymbol inferred from ``x = Cls(...)``.
        self.var_types: dict[str, ClassSymbol] = {}
        #: local var name -> FunctionSymbol from ``x = functools.partial(f)``.
        self.var_partials: dict[str, FunctionSymbol] = {}

    # -- dotted-name resolution ------------------------------------------

    def _attribute_chain(self, func: ast.expr):
        """Split ``a.b.c`` into (head Name id, ["b", "c"]) or None."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        return node.id, parts

    def resolve_callable(self, func: ast.expr):
        """Resolve a call target expression.

        Returns a :class:`FunctionSymbol`, :class:`ClassSymbol`, an
        external dotted-name string, or ``None`` (statically opaque).
        """
        chain = self._attribute_chain(func)
        if chain is None:
            return None
        head, rest = chain

        if not rest:  # bare name call
            if head in self.var_partials:
                return self.var_partials[head]
            if head in self.table.functions:
                return self.table.functions[head]
            if head in self.table.classes:
                return self.table.classes[head]
            if head in self.table.import_bindings:
                dotted = self.table.import_bindings[head]
                resolved = self.project.resolve(dotted)
                if isinstance(resolved, (FunctionSymbol, ClassSymbol)):
                    return resolved
                if resolved is None:
                    return dotted  # external (time, numpy, ...)
            return None

        if head == "self" and self.class_name is not None:
            owner = self.table.classes.get(self.class_name)
            if owner is not None and len(rest) == 1:
                return self.project.resolve_method(owner, rest[0])
            return None
        if head in self.var_types and len(rest) == 1:
            return self.project.resolve_method(self.var_types[head], rest[0])
        if head in self.table.classes and len(rest) == 1:
            return self.project.resolve_method(self.table.classes[head], rest[0])
        if head in self.table.import_bindings:
            dotted = ".".join([self.table.import_bindings[head], *rest])
            resolved = self.project.resolve(dotted)
            if isinstance(resolved, (FunctionSymbol, ClassSymbol)):
                return resolved
            if resolved is None:
                return dotted
        return None

    # -- recording --------------------------------------------------------

    def _record_target(self, target, node: ast.AST) -> None:
        if isinstance(target, FunctionSymbol):
            self.graph.add_edge(self.caller, target.qualname, node)
        elif isinstance(target, ClassSymbol):
            self.graph.add_ref(self.caller, target.qualname)
            for init_name in _INIT_METHODS:
                init = self.project.resolve_method(target, init_name)
                if init is not None:
                    self.graph.add_edge(self.caller, init.qualname, node)
        elif isinstance(target, str) and isinstance(node, ast.Call):
            self.graph.add_external(self.caller, target, node)

    def _handle_call(self, node: ast.Call) -> None:
        target = self.resolve_callable(node.func)
        if isinstance(target, str) and target in _PARTIAL_NAMES:
            # partial(fn, ...) will eventually invoke fn: edge through.
            if node.args:
                wrapped = self.resolve_callable(node.args[0])
                self._record_target(wrapped, node)
            return
        self._record_target(target, node)

    def _handle_assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        if not isinstance(value, ast.Call):
            return
        target = self.resolve_callable(value.func)
        if isinstance(target, ClassSymbol):
            self.var_types[name] = target
        elif isinstance(target, str) and target in _PARTIAL_NAMES and value.args:
            wrapped = self.resolve_callable(value.args[0])
            if isinstance(wrapped, FunctionSymbol):
                self.var_partials[name] = wrapped

    def _handle_name_ref(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if node.id in self.table.functions:
            self.graph.add_ref(self.caller, self.table.functions[node.id].qualname)
        elif node.id in self.table.import_bindings:
            resolved = self.project.resolve(self.table.import_bindings[node.id])
            if isinstance(resolved, (FunctionSymbol, ClassSymbol)):
                self.graph.add_ref(self.caller, resolved.qualname)

    def walk(self, nodes) -> None:
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Assign):
                    self._handle_assign(node)
                elif isinstance(node, ast.Call):
                    self._handle_call(node)
                elif isinstance(node, ast.Name):
                    self._handle_name_ref(node)


def _module_level_statements(tree: ast.Module):
    """Top-level and class-body statements that are not function defs.

    Function bodies get their own walkers; everything else (module
    constants, registration calls, dataclass ``field(default_factory=...)``
    expressions, decorators on module functions) executes at import time
    and is attributed to the module itself.
    """
    def strip(statements):
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Decorators/defaults/annotations evaluate at import time.
                yield from statement.decorator_list
                yield from statement.args.defaults
                # kw_defaults holds None for kw-only args without one.
                yield from (d for d in statement.args.kw_defaults if d is not None)
            elif isinstance(statement, ast.ClassDef):
                yield from statement.decorator_list
                yield from statement.bases
                yield from strip(statement.body)
            else:
                yield statement

    return list(strip(tree.body))


def build_call_graph(project: Project) -> CallGraph:
    """Index every call site of every module in ``project``."""
    graph = CallGraph(project=project)
    for module in sorted(project.modules):
        table = project.modules[module]
        tree = table.context.tree
        module_walker = _FunctionWalker(graph, module, caller=module, class_name=None)
        module_walker.walk(_module_level_statements(tree))
        for name in sorted(table.functions):
            symbol = table.functions[name]
            walker = _FunctionWalker(
                graph, module, caller=symbol.qualname, class_name=None
            )
            walker.walk(symbol.node.body)
        for class_name in sorted(table.classes):
            cls_symbol = table.classes[class_name]
            for method_name in sorted(cls_symbol.methods):
                method = cls_symbol.methods[method_name]
                walker = _FunctionWalker(
                    graph, module, caller=method.qualname, class_name=class_name
                )
                walker.walk(method.node.body)
    return graph


def get_call_graph(contexts) -> CallGraph:
    """The shared :class:`CallGraph` for a lint run (cached like the project)."""
    cached = getattr(contexts, "_call_graph", None)
    if isinstance(cached, CallGraph):
        return cached
    graph = build_call_graph(get_project(contexts))
    try:
        contexts._call_graph = graph
    except AttributeError:
        pass
    return graph

"""Interprocedural determinism taint.

The per-file determinism rules (:mod:`repro.analysis.rules.determinism`)
see a wall-clock read only in the file that makes it.  A nondeterministic
helper two hops away from the allocator slips through: ``repro.common``
is outside their layer scope, so a ``time.time()`` there goes unflagged
even when ``repro.sim`` calls it on a scoring path.  This rule closes
that hole with the project call graph: every *source* (wall clock,
unseeded RNG, environment read, unordered-``set`` iteration) taints its
enclosing function, taint propagates from callee to caller, and a
finding is reported when the taint reaches a **protected** module --
the layers whose equal-seed bit-identity is the repo's headline
property: ``core``, ``sim``, ``strategies`` and ``repro.service.session``.

Findings are aggregated per ``(source module, source name)`` and
anchored at the first offending read, so one deliberate measurement
point reads as one finding.  Sanctioning a justified source takes an
explicit ``# repro: allow determinism-taint -- why`` on the read (the
vocabulary is deliberately separate from ``determinism-wallclock``:
silencing the shallow rule does not silence the graph-scoped one).
Since an aggregated finding sits at its first read, one directive there
sanctions the whole group.  The tree carries exactly two: the opt-in
anytime ``Deadline`` and the simulator's placement-latency histogram,
each naming both rules on its first wall-clock read.

Seeded RNG construction is *not* a source: ``numpy.random.default_rng(seed)``
and friends with an explicit seed argument are exactly how
:mod:`repro.common.rng` manufactures determinism.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import top_segment
from repro.analysis.callgraph import get_call_graph
from repro.analysis.registry import rule
from repro.analysis.rules.determinism import WALLCLOCK_CALLS

#: Layers whose code must stay a pure function of (inputs, seed).
PROTECTED_LAYERS = frozenset({"core", "sim", "strategies"})

#: Module prefixes protected regardless of layer: the deterministic
#: session state machine (the HTTP server around it may read clocks for
#: latency metrics; the session itself may not).
PROTECTED_PREFIXES = ("repro.service.session",)

#: Modules whose sources never seed taint: the tracer's whole point is
#: stamping ``t_wall``.
SANCTIONED_MODULES = frozenset({"repro.obs.tracer"})

#: ``numpy.random`` constructors that are deterministic when given an
#: explicit seed/seed-sequence argument.
SEEDED_RNG_CTORS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)

#: Pseudo source name for unordered-set iteration (not a call target).
SET_ITERATION = "set-iteration"


def _is_protected(module: str) -> bool:
    if top_segment(module) in PROTECTED_LAYERS:
        return True
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in PROTECTED_PREFIXES
    )


def classify_source(dotted: str, node: ast.Call) -> str | None:
    """The human-readable source kind of an external call, or ``None``."""
    if dotted in WALLCLOCK_CALLS:
        return "wall-clock read"
    if dotted == "random" or dotted.startswith("random."):
        return "stdlib random draw"
    if dotted.startswith("numpy.random."):
        tail = dotted.rsplit(".", 1)[1]
        if tail in SEEDED_RNG_CTORS and (node.args or node.keywords):
            return None  # explicitly seeded: the sanctioned construction path
        return "unseeded/global numpy RNG"
    if dotted == "os.getenv" or dotted == "os.environ" or dotted.startswith("os.environ."):
        return "environment read"
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and not node.keywords
    )


def _iter_set_iterations(body) -> Iterator[ast.AST]:
    """Loop/comprehension nodes iterating directly over a set."""
    for root in body:
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield node
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield node


class _Source:
    """One nondeterminism source site."""

    __slots__ = ("module", "name", "kind", "node", "caller")

    def __init__(self, module: str, name: str, kind: str, node: ast.AST, caller: str):
        self.module = module
        self.name = name  # dotted call name, or SET_ITERATION
        self.kind = kind
        self.node = node
        self.caller = caller  # enclosing function qualname (or the module)


def _collect_sources(graph) -> list:
    sources: list[_Source] = []
    for call in graph.iter_external():
        module = graph.project.resolve_caller_module(call.caller)
        if module in SANCTIONED_MODULES:
            continue
        kind = classify_source(call.dotted, call.node)
        if kind is not None:
            sources.append(_Source(module, call.dotted, kind, call.node, call.caller))
    # Set iteration is structural, not a call: walk every function body
    # (and module level) directly.
    project = graph.project
    for module in sorted(project.modules):
        if module in SANCTIONED_MODULES:
            continue
        table = project.modules[module]
        bodies = [(module, [table.context.tree])]
        for symbol in sorted(table.functions):
            fn = table.functions[symbol]
            bodies.append((fn.qualname, fn.node.body))
        for class_name in sorted(table.classes):
            for method_name in sorted(table.classes[class_name].methods):
                method = table.classes[class_name].methods[method_name]
                bodies.append((method.qualname, method.node.body))
        # The module walk above covers nested function bodies too; the
        # per-function entries exist to attribute the site to its
        # enclosing callable, so drop the module-level duplicates.
        seen: set[int] = set()
        for caller, body in bodies[1:]:
            for node in _iter_set_iterations(body):
                seen.add(id(node))
                sources.append(
                    _Source(module, SET_ITERATION, "iteration over an unordered set", node, caller)
                )
        for node in _iter_set_iterations(bodies[0][1]):
            if id(node) not in seen:
                sources.append(
                    _Source(module, SET_ITERATION, "iteration over an unordered set", node, module)
                )
    return sources


def _taint_path(graph, caller_modules: dict, start: str) -> list | None:
    """Shortest caller chain [protected fn, ..., start], or ``None``.

    Walks the reverse call graph (callee -> callers) breadth-first from
    the source's enclosing function; the first function met that lives
    in a protected module proves the flow.
    """
    if _is_protected(caller_modules.get(start, "")):
        return [start]
    parents: dict[str, str] = {start: ""}
    frontier = [start]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for caller in sorted(graph.callers.get(node, ())):
                if caller in parents:
                    continue
                parents[caller] = node
                if _is_protected(caller_modules.get(caller, "")):
                    path = [caller]
                    cursor = node
                    while cursor:
                        path.append(cursor)
                        cursor = parents[cursor]
                    return path
                next_frontier.append(caller)
        frontier = next_frontier
    return None


@rule(
    "determinism-taint",
    "no call path from core/sim/strategies/service.session may reach a "
    "wall clock, unseeded RNG, environment read or set iteration",
    scope="project",
)
def check_taint(contexts) -> Iterator:
    graph = get_call_graph(contexts)
    project = graph.project
    caller_modules: dict[str, str] = {m: m for m in project.modules}
    for symbol in project.iter_functions():
        caller_modules[symbol.qualname] = symbol.module

    tainting: dict[tuple, list] = {}
    for source in _collect_sources(graph):
        path = _taint_path(graph, caller_modules, source.caller)
        if path is None:
            continue
        tainting.setdefault((source.module, source.name), []).append((source, path))

    for module, name in sorted(tainting):
        group = tainting[(module, name)]
        group.sort(key=lambda pair: (pair[0].node.lineno, pair[0].node.col_offset))
        anchor, path = group[0]
        context = project.modules[module].context
        label = f"{name}()" if name != SET_ITERATION else anchor.kind
        where = (
            f"at module level of {module}"
            if anchor.caller == module
            else f"in {anchor.caller}"
        )
        if len(path) == 1:
            message = (
                f"{label} is a {anchor.kind} {where}, inside protected module "
                f"{module}: deterministic layers must be pure functions of "
                f"(inputs, seed) -- take time from the event queue / an "
                f"injected clock, or sanction a justified measurement point "
                f"with '# repro: allow determinism-taint -- why'"
            )
        else:
            chain = " -> ".join(path)
            message = (
                f"{label} is a {anchor.kind} {where}, reached from protected "
                f"module {caller_modules[path[0]]} (call path: {chain}): "
                f"deterministic layers must not call nondeterministic "
                f"helpers -- inject the ambient value, or sanction the read "
                f"with '# repro: allow determinism-taint -- why'"
            )
        yield context.violation("determinism-taint", anchor.node, message)

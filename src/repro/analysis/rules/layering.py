"""Layering rules: the downward-only import matrix and cycle freedom.

The package is layered (DESIGN.md "Enforced invariants"); each layer
may import only from the layers below it:

.. code-block:: text

    common                   (leaf: import nothing internal)
    analysis, testbed, obs   -> common
    faults                   -> common, obs
    profiling                -> common, testbed
    campaign                 -> common, testbed, obs
    workloads                -> common, testbed, campaign
    core                     -> common, testbed, campaign, obs
    strategies               -> core + everything core may use
    sim                      -> strategies, workloads, campaign, faults, ...
    exec                     -> sim + everything sim may use, core, faults
    experiments, ext         -> any of the above
    service                  -> any of the above (the HTTP front end)
    api, cli, __main__, root -> unconstrained (the wiring crust)

The fault-injection vocabulary (``faults``) is deliberately low in the
stack: ``sim`` and ``exec`` consume its event types, while ``faults``
itself must never reach up into strategies or experiments.

The execution engine (``exec``) sits above the simulator: layers below
it (e.g. the campaign runner) parallelize through an *injected*
``mapper(fn, items, payload)`` rather than importing the engine.  The
sharded-campaign split follows the same rule: ``repro.sim.shard`` is
pure partition/merge bookkeeping (importable from ``sim``), while the
fan-out over the pool lives in ``repro.exec.sharded`` -- a shard
helper importing ``repro.exec`` from inside ``sim`` inverts the order
and is flagged (``tests/analysis/fixtures/bad_shard_layering.py``).
Strategies likewise reach the free-capacity index through one
duck-typed ``free_candidates`` hook (read only by
``strategies.slotfit.free_candidates``, the slot strategies' one
candidate source), and the class buckets through the duck-typed
``class_heads`` hook beside it, never by importing ``sim``.

On top of the matrix one submodule edge is singled out: ``core`` must
not import ``repro.obs.runtime`` (the process-global observability
state) -- the allocator takes an injected ``Observability`` instead,
so the model/search layer stays usable without ambient state.  The one
historical exception is suppressed in ``core/allocator.py`` with a
justification.

``layering-cycle`` additionally requires the module-level import graph
to be acyclic.  Imports under ``if TYPE_CHECKING:`` are ignored by
both rules (they vanish at runtime), and function-local (deferred)
imports are ignored by the cycle rule only: a lazy import cannot
deadlock module initialization, but it still couples layers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import iter_imports, top_segment
from repro.analysis.registry import rule

#: Marker: this layer may import anything (the wiring crust).
FREE = None

#: layer -> internal top-segments it may import (itself always allowed).
ALLOWED_IMPORTS = {
    "common": frozenset(),
    # The linter shares the CLI flag-validation family (typed_flag +
    # parse_lint_format) with the package CLI; nothing else.
    "analysis": frozenset({"common"}),
    "testbed": frozenset({"common"}),
    "obs": frozenset({"common"}),
    "faults": frozenset({"common", "obs"}),
    "profiling": frozenset({"common", "testbed"}),
    "campaign": frozenset({"common", "testbed", "obs"}),
    "workloads": frozenset({"common", "testbed", "campaign"}),
    "core": frozenset({"common", "testbed", "campaign", "obs"}),
    "strategies": frozenset({"common", "testbed", "campaign", "core", "obs"}),
    "sim": frozenset(
        {"common", "testbed", "campaign", "obs", "strategies", "workloads", "faults"}
    ),
    "exec": frozenset(
        {
            "common",
            "testbed",
            "campaign",
            "workloads",
            "core",
            "obs",
            "strategies",
            "sim",
            "faults",
        }
    ),
    "experiments": frozenset(
        {
            "common",
            "testbed",
            "campaign",
            "workloads",
            "core",
            "obs",
            "strategies",
            "sim",
            "profiling",
            "exec",
            "faults",
        }
    ),
    "ext": frozenset(
        {
            "common",
            "testbed",
            "campaign",
            "workloads",
            "core",
            "obs",
            "strategies",
            "sim",
            "profiling",
            "exec",
            "experiments",
            "faults",
        }
    ),
    "service": frozenset(
        {
            "common",
            "testbed",
            "campaign",
            "workloads",
            "core",
            "obs",
            "strategies",
            "sim",
            "profiling",
            "exec",
            "experiments",
            "faults",
        }
    ),
    "api": FREE,
    "cli": FREE,
    "__main__": FREE,
}

#: (layer, forbidden module prefix) edges that the matrix alone would
#: permit.  core may use obs.registry/tracer types but must not touch
#: the process-global runtime state.
FORBIDDEN_EDGES = (
    (
        "core",
        "repro.obs.runtime",
        "core must not read the process-global observability state; accept "
        "an injected Observability instead",
    ),
)


def _layer_of(module: str) -> str | None:
    """The layer a module belongs to; None means unconstrained."""
    if not module.startswith("repro"):
        return None
    segment = top_segment(module)
    if segment is None:  # the bare package root
        return None
    return segment


@rule("layering-import", "imports must follow the downward-only layer matrix")
def check_imports(ctx) -> Iterator:
    layer = _layer_of(ctx.module)
    if layer is None:
        return
    allowed = ALLOWED_IMPORTS.get(layer)
    if allowed is FREE:
        return
    for imported in iter_imports(ctx.tree, importer=ctx.module):
        if imported.type_checking:
            continue
        target = imported.target
        if not (target == "repro" or target.startswith("repro.")):
            continue
        for source_layer, prefix, why in FORBIDDEN_EDGES:
            if layer == source_layer and (target == prefix or target.startswith(prefix + ".")):
                yield ctx.violation(
                    "layering-import", imported.node, f"{ctx.module} imports {target}: {why}"
                )
                break
        else:
            target_layer = top_segment(target)
            if target_layer == layer:
                continue
            if target_layer is None or target_layer not in allowed:
                reached = target_layer or "the package root"
                yield ctx.violation(
                    "layering-import",
                    imported.node,
                    f"{ctx.module} (layer '{layer}') imports {target}: layer "
                    f"'{layer}' may only reach "
                    f"{sorted(allowed) if allowed else 'nothing internal'}, "
                    f"not {reached}",
                )


def _module_edges(contexts) -> dict:
    """module -> {imported module (within the linted set): first import node}."""
    known = {context.module for context in contexts}
    edges: dict[str, dict[str, ast.stmt]] = {}
    for context in contexts:
        targets = edges.setdefault(context.module, {})
        for imported in iter_imports(context.tree, importer=context.module):
            if imported.type_checking or imported.deferred:
                continue
            resolved: list[str] = []
            if imported.target in known:
                resolved.append(imported.target)
            # `from pkg import member` may name submodules of pkg.
            for name in imported.names:
                candidate = f"{imported.target}.{name}"
                if candidate in known:
                    resolved.append(candidate)
            for target in resolved:
                if target != context.module:
                    targets.setdefault(target, imported.node)
    return edges


@rule(
    "layering-cycle",
    "the module-level import graph must be acyclic (TYPE_CHECKING and lazy imports excluded)",
    scope="project",
)
def check_cycles(contexts) -> Iterator:
    edges = _module_edges(contexts)
    by_module = {context.module: context for context in contexts}

    # Tarjan's strongly connected components, iteratively.
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(edges.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges.get(node, ()):
                    cycles.append(sorted(component))

    for module in sorted(edges):
        if module not in index:
            strongconnect(module)

    for component in sorted(cycles):
        anchor_module = component[0]
        context = by_module[anchor_module]
        # Anchor the report at the import that enters the cycle.
        node = next(
            (
                edge_node
                for target, edge_node in sorted(edges[anchor_module].items())
                if target in component
            ),
            1,
        )
        chain = " -> ".join(component + [anchor_module])
        yield context.violation(
            "layering-cycle",
            node,
            f"import cycle between modules: {chain}; break it with an "
            f"injected dependency or a TYPE_CHECKING-only import",
        )

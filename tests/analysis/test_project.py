"""Symbol-table and call-graph resolver contracts.

The project rules are only as good as the resolution underneath them:
these tests pin the golden-fixture pair ``callgraph_app.py`` /
``callgraph_lib.py`` (aliased imports, local type inference, method
resolution through a base class, ``functools.partial`` edge-through)
so a resolver regression fails here, not as a silently-empty taint or
dead-code run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.callgraph import build_call_graph, get_call_graph
from repro.analysis.engine import ContextList, load_context
from repro.analysis.project import ClassSymbol, FunctionSymbol, get_project

FIXTURES = Path(__file__).parent / "fixtures"

APP = "repro.experiments.cgapp"
LIB = "repro.experiments.cglib"


def load(*names) -> ContextList:
    contexts = ContextList()
    for name in names:
        contexts.append(load_context(FIXTURES / name))
    return contexts


class TestProjectIndex:
    def test_modules_functions_classes_and_fields(self):
        project = get_project(load("callgraph_lib.py"))
        lib = project.table(LIB)
        assert set(lib.functions) == {"helper"}
        assert set(lib.classes) == {"Base", "Widget"}
        widget = lib.classes["Widget"]
        assert widget.base_names == ("Base",)
        assert set(widget.methods) == {"ping"}

    def test_import_bindings_record_aliases(self):
        project = get_project(load("callgraph_app.py"))
        bindings = project.table(APP).import_bindings
        assert bindings["W"] == f"{LIB}.Widget"
        assert bindings["aliased_helper"] == f"{LIB}.helper"
        assert bindings["functools"] == "functools"

    def test_resolve_chases_import_bindings_across_modules(self):
        project = get_project(load("callgraph_app.py", "callgraph_lib.py"))
        resolved = project.resolve(f"{APP}.W")
        assert isinstance(resolved, ClassSymbol)
        assert resolved.qualname == f"{LIB}.Widget"
        helper = project.resolve(f"{APP}.aliased_helper")
        assert isinstance(helper, FunctionSymbol)
        assert helper.qualname == f"{LIB}.helper"
        assert project.resolve(f"{APP}.no_such_name") is None

    def test_resolve_method_walks_project_known_bases(self):
        project = get_project(load("callgraph_lib.py"))
        widget = project.table(LIB).classes["Widget"]
        shared = project.resolve_method(widget, "shared")
        assert shared is not None
        assert shared.qualname == f"{LIB}.Base.shared"
        assert project.resolve_method(widget, "no_such_method") is None

    def test_resolve_caller_module(self):
        project = get_project(load("callgraph_app.py", "callgraph_lib.py"))
        assert project.resolve_caller_module(APP) == APP
        assert project.resolve_caller_module(f"{LIB}.Widget.ping") == LIB

    def test_index_is_cached_on_the_context_list(self):
        contexts = load("callgraph_app.py", "callgraph_lib.py")
        assert get_project(contexts) is get_project(contexts)
        assert get_call_graph(contexts) is get_call_graph(contexts)


class TestCallGraphResolution:
    def graph(self):
        return get_call_graph(load("callgraph_app.py", "callgraph_lib.py"))

    def test_aliased_class_instantiation_and_method_call(self):
        graph = self.graph()
        run_edges = graph.edges[f"{APP}.run"]
        # `w = W()` then `w.ping()`: inferred local type through the alias.
        assert f"{LIB}.Widget.ping" in run_edges

    def test_self_method_resolves_through_base_class(self):
        graph = self.graph()
        ping_edges = graph.edges[f"{LIB}.Widget.ping"]
        assert f"{LIB}.Base.shared" in ping_edges

    def test_functools_partial_edges_through_to_the_wrapped_function(self):
        graph = self.graph()
        run_edges = graph.edges[f"{APP}.run"]
        assert f"{LIB}.helper" in run_edges
        assert f"{APP}.run" in graph.callers[f"{LIB}.helper"]

    def test_external_calls_keep_their_dotted_names(self):
        graph = get_call_graph(
            load("bad_taint_flow.py", "bad_taint_helper.py")
        )
        dotted = {
            call.dotted
            for call in graph.iter_external()
            if call.caller.startswith("repro.common.badhelper.")
        }
        assert "time.time" in dotted
        assert "os.getenv" in dotted

    def test_build_call_graph_is_deterministic(self):
        contexts = load("callgraph_app.py", "callgraph_lib.py")
        project = get_project(contexts)
        first = build_call_graph(project)
        second = build_call_graph(project)
        assert {c: set(e) for c, e in first.edges.items()} == {
            c: set(e) for c, e in second.edges.items()
        }

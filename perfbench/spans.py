"""Outside-in layer spans for the traced benchmark run.

:func:`install` replaces the public entry point of each layer of
``repro`` with a timing wrapper, from outside the program: no file of
the package changes.  Spans stay in memory as per-(phase, layer)
aggregates and are written out once, when the program process exits.

A layer's *self* time is its span's duration minus the time of the
wrapped spans it called, so the self times of all layers plus the
unattributed remainder add up to the wall time of a phase.  A call
counts once per outermost span of its layer: a wrapped function that
calls another entry point of the same layer is one call, not two.

Spans are bucketed by the phase that was current when they started
(``setup``, then ``measured``, then ``teardown``), so work done while
the program sets up never mixes into the measured phase's breakdown.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

class Tracer:
    """Per-phase aggregates of layer spans and counts."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: (phase, layer) -> [calls, self_s]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        #: (phase, name) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(int)
        #: Child time of each open span, innermost last.
        self._children: list[float] = []
        #: Open spans per layer (a call counts when it closes the last).
        self._depth: dict[str, int] = defaultdict(int)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.phase, name)] += value

    def _close(self, layer: str, phase: str, elapsed: float) -> None:
        children = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        entry = self.spans[(phase, layer)]
        if depth == 0:
            entry[0] += 1
        entry[1] += elapsed - children

    def wrap(self, layer: str | None, fn, after=None):
        """A wrapper timing ``fn`` as ``layer`` (``None``: count only).

        ``after(tracer, result, error)`` runs once the call returns or
        raises, to count what the call did.
        """
        clock = time.perf_counter
        children = self._children
        depth = self._depth

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                phase = self.phase
                depth[layer] += 1
                children.append(0.0)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(layer, phase, clock() - start)

            return traced_async

        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception as error:
                    after(self, None, error)
                    raise
                after(self, result, None)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            depth[layer] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                self._close(layer, phase, clock() - start)
                if after is not None:
                    after(self, None, error)
                raise
            self._close(layer, phase, clock() - start)
            if after is not None:
                after(self, result, None)
            return result

        return traced

    def phase_totals(self, phase: str) -> dict:
        """``{layer: (calls, self_s)}`` and ``{count: value}`` of one phase."""
        spans = {
            layer: tuple(value)
            for (span_phase, layer), value in self.spans.items()
            if span_phase == phase
        }
        counts = {
            name: value
            for (count_phase, name), value in self.counts.items()
            if count_phase == phase
        }
        return {"spans": spans, "counts": counts}

    def document(self) -> dict:
        return {
            phase: self.phase_totals(phase)
            for phase in sorted({key[0] for key in (*self.spans, *self.counts)})
        }


# -- what each layer's span counts -----------------------------------------


def _allocator_done(tracer: Tracer, plan, error) -> None:
    if error is not None:
        tracer.count("core.allocator.failures")
        return
    provenance = plan.search_provenance
    if provenance is None:
        return
    tracer.count("core.allocator.partitions", provenance.partitions_enumerated)
    tracer.count("core.allocator.feasible", provenance.candidates_feasible)
    tracer.count("core.allocator.grid_hits", provenance.grid_hits)
    tracer.count("core.allocator.grid_lookups", provenance.grid_hits + provenance.grid_misses)


def _place_done(tracer: Tracer, placement, error) -> None:
    if error is None and placement is None:
        tracer.count("strategies.place.rejections")


def _task_done(tracer: Tracer, capture, error) -> None:
    if error is None:
        tracer.count("exec.tasks")
        tracer.count("exec.retries", capture.retries)


def _evaluation_done(tracer: Tracer, result, error) -> None:
    if error is None:
        tracer.count("experiments.eval_cells", len(result.outcomes))


# -- installation --------------------------------------------------------


def _patch_function(module, name: str, wrapper) -> None:
    """Rebind ``module.name`` and every ``repro`` module's import of it."""
    original = getattr(module, name)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name != "repro" and not loaded_name.startswith("repro."):
            continue
        namespace = getattr(loaded, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(loaded, attr, wrapper)


def _patch_method(cls, name: str, wrapper_of) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(wrapper_of(raw.__func__)))
    else:
        setattr(cls, name, wrapper_of(raw))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; import the layers first."""
    import repro.cli  # noqa: F401  (binds the names the CLI imported)
    import repro.experiments.paper_summary  # noqa: F401  (likewise)

    def module(name):
        # By name, because packages re-export functions under their
        # module's name (repro.experiments.fig1_profiles is a function).
        return importlib.import_module(f"repro.{name}")

    from repro.core.allocator import ProactiveAllocator
    from repro.core.model import ModelDatabase
    from repro.ext.carbon.signal import TemporalSignals
    from repro.service.server import Service
    from repro.service.session import BatchRecord, Session
    from repro.sim.chronicle import Chronicle
    from repro.sim.datacenter import DatacenterSimulator
    from repro.sim.server import ServerRuntime
    from repro.strategies.base import AllocationStrategy
    from repro.testbed.contention import MixModel

    evaluation = module("experiments.evaluation")
    swf = module("workloads.swf")
    cleaning = module("workloads.cleaning")
    assignment = module("workloads.assignment")
    platformrunner = module("campaign.platformrunner")
    shard = module("sim.shard")
    engine = module("exec.engine")
    fig1_profiles = module("experiments.fig1_profiles")
    fig2_basecurve = module("experiments.fig2_basecurve")
    fig4_accounting = module("experiments.fig4_accounting")
    schema = module("service.schema")

    def function(module, name, layer, after=None):
        _patch_function(module, name, tracer.wrap(layer, getattr(module, name), after))

    def method(cls, name, layer, after=None):
        _patch_method(cls, name, lambda fn: tracer.wrap(layer, fn, after))

    function(evaluation, "prepare_workload", "workloads.prepare")
    function(swf, "read_swf", "workloads.prepare")
    function(cleaning, "clean_trace", "workloads.prepare")
    function(assignment, "assign_profiles_and_vms", "workloads.prepare")
    function(assignment, "truncate_to_vm_budget", "workloads.prepare")
    function(platformrunner, "run_campaign", "campaign.run")
    method(ModelDatabase, "from_campaign", "core.model.build")
    method(ModelDatabase, "from_files", "core.model.build")
    method(ProactiveAllocator, "allocate", "core.allocator", _allocator_done)
    for cls in _subclasses(AllocationStrategy):
        if "place" in cls.__dict__:
            method(cls, "place", "strategies.place", _place_done)
    method(DatacenterSimulator, "run", "sim.datacenter")
    method(ServerRuntime, "sync", "sim.server.sync")
    method(MixModel, "slowdowns_and_loads", "testbed.contention")
    method(MixModel, "slowdowns", "testbed.contention")
    method(MixModel, "subsystem_loads", "testbed.contention")
    method(Chronicle, "record", "sim.chronicle")
    method(TemporalSignals, "accrue", "ext.carbon")
    function(shard, "partition_jobs", "exec.partition")
    function(shard, "merge_results", "exec.merge")
    function(engine, "_run_task_with_retries", None, _task_done)
    function(evaluation, "run_evaluation", None, _evaluation_done)
    function(fig1_profiles, "fig1_profiles", "experiments.figures")
    function(fig2_basecurve, "fig2_basecurve", "experiments.figures")
    function(fig4_accounting, "fig4_worked_example", "experiments.figures")
    method(Service, "_dispatch", "service.server")
    method(Service, "_write_response", "service.schema.encode")
    function(schema, "plan_document", "service.schema.encode")
    method(BatchRecord, "to_document", "service.schema.encode")
    for name in ("__init__", "admit", "flush", "run_ready_batches"):
        method(Session, name, "service.session")

"""Multi-resource contention model for co-located VMs.

This module is the heart of the testbed emulator.  Given the set of VMs
active on one server (each in a particular execution phase), it
computes

* the per-subsystem load factors ``rho_s = sum_i d_{i,s} / C_s``,
* the per-VM execution slowdown, and
* the aggregate RAM occupancy (for the thrashing penalty).

The slowdown of VM *i* under mix *m* is::

    slowdown_i(m) = bottleneck_i(m) * interference_i(m) * thrash(m) * virt(n)

with

``bottleneck_i``
    a demand-weighted blend of per-subsystem stretches,
    ``sum_s w_{i,s} * max(1, rho_s)`` with ``w_{i,s}`` the fraction of
    VM *i*'s total demand directed at subsystem *s* -- when a
    subsystem is oversubscribed its demanders get their fair share and
    stretch proportionally, weighted by how much of their time they
    actually spend on it (a CPU-bound code with a 2 % disk demand
    barely notices a saturated disk);

``interference_i``
    pairwise cache/scheduler interference: co-tenants of the *same*
    workload class hurt more than complementary classes (the
    "compatibility" effect the application-centric allocator exploits);

``thrash``
    a superlinear penalty once the summed resident sets of active VMs
    exceed the guest-usable RAM -- this is what makes the average
    execution time blow up past ~11 FFTW VMs in Fig. 2;

``virt(n)``
    per-co-tenant virtualization (hypervisor scheduling) overhead.

All coefficients live in :class:`ContentionParams` and are exercised by
the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import BenchmarkSpec, WorkloadClass
from repro.testbed.spec import SUBSYSTEMS, ServerSpec, Subsystem


@dataclass(frozen=True)
class ContentionParams:
    """Tunable coefficients of the contention model.

    Defaults are calibrated so the emulator reproduces the qualitative
    response surface reported by the paper (see
    ``tests/testbed/test_fig2_shape.py``): FFTW's average execution
    time per VM is minimized around 9 co-located VMs and degrades to
    worse-than-sequential past 11.
    """

    #: Fractional slowdown added per additional co-tenant by the
    #: hypervisor (Xen credit-scheduler overhead).
    virt_overhead_per_vm: float = 0.02
    #: Pairwise interference added per same-class co-tenant.
    same_class_interference: float = 0.006
    #: Pairwise interference added per different-class co-tenant.
    cross_class_interference: float = 0.001
    #: Multiplier of the thrashing penalty term.
    thrash_coeff: float = 1.2
    #: Exponent of the thrashing penalty term.
    thrash_exponent: float = 1.2

    def __post_init__(self) -> None:
        for name in (
            "virt_overhead_per_vm",
            "same_class_interference",
            "cross_class_interference",
            "thrash_coeff",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.thrash_exponent < 1.0:
            raise ConfigurationError(
                f"thrash_exponent must be >= 1 (superlinear), got {self.thrash_exponent}"
            )


@dataclass(frozen=True)
class ActiveVM:
    """One VM participating in a mix, in a specific execution phase.

    ``demand_scale`` is 1.0 in the work phase and
    ``benchmark.init_demand_scale`` in the initialization phase;
    ``contended`` is False during initialization (progress there is
    dominated by serial setup, not by shared-resource throughput).
    """

    benchmark: BenchmarkSpec
    demand_scale: float = 1.0
    contended: bool = True

    def demand(self, subsystem: Subsystem) -> float:
        return self.benchmark.demand(subsystem) * self.demand_scale


class KindRecord(NamedTuple):
    """What :meth:`MixModel.slowdowns_and_loads` needs of one VM kind.

    A kind is a benchmark in one stage: every VM of that benchmark in
    that stage presents the same view (an :class:`ActiveVM` with the
    stage's ``demand_scale`` and ``contended`` flag), so a mix is
    priced from its VMs' records alone (:func:`stage_kinds`).
    """

    #: Per-subsystem demands in ``SUBSYSTEMS`` order.
    demands: tuple[float, ...]
    workload_class: WorkloadClass
    #: ``(subsystem index, demand / total_demand)`` for demands > 0,
    #: the exact weights :meth:`MixModel.bottleneck_factor` computes;
    #: None when the total demand is <= 0.
    weights: tuple[tuple[int, float], ...] | None
    ram_gb: float
    contended: bool
    #: Pins the spec so its id cannot be recycled while the record lives.
    benchmark: BenchmarkSpec


def _kind(benchmark: BenchmarkSpec, demands: tuple[float, ...], contended: bool) -> KindRecord:
    total_demand = sum(demands)
    if total_demand <= 0.0:
        weights = None
    else:
        weights = tuple(
            [(i, demand / total_demand) for i, demand in enumerate(demands) if demand > 0.0]
        )
    return KindRecord(
        demands, benchmark.workload_class, weights, benchmark.ram_gb, contended, benchmark
    )


def stage_kinds(benchmark: BenchmarkSpec) -> tuple[KindRecord, KindRecord]:
    """The ``(init, work)`` kind records of ``benchmark``.

    They are the records of its two stage views,
    ``ActiveVM(benchmark, benchmark.init_demand_scale, contended=False)``
    and ``ActiveVM(benchmark)``: each demand is the view's
    ``benchmark.demand(s) * demand_scale``, the same float.
    """
    base = [benchmark.demands[s] for s in SUBSYSTEMS]
    scale = benchmark.init_demand_scale
    return (
        _kind(benchmark, tuple([demand * scale for demand in base]), False),
        _kind(benchmark, tuple([demand * 1.0 for demand in base]), True),
    )


class MixModel:
    """Evaluates loads, slowdowns and power-relevant state for one mix.

    Instances are cheap and immutable; build one per (server, params)
    pair and query it with varying mixes.
    """

    def __init__(self, server: ServerSpec, params: ContentionParams | None = None):
        self._server = server
        self._params = params or ContentionParams()
        self._capacities = tuple(server.capacity(s) for s in SUBSYSTEMS)

    @property
    def server(self) -> ServerSpec:
        return self._server

    @property
    def params(self) -> ContentionParams:
        return self._params

    def subsystem_loads(self, mix: Sequence[ActiveVM]) -> Mapping[Subsystem, float]:
        """Per-subsystem load factors ``rho_s`` (can exceed 1.0)."""
        loads: dict[Subsystem, float] = {}
        for subsystem in SUBSYSTEMS:
            total = sum(vm.demand(subsystem) for vm in mix)
            loads[subsystem] = total / self._server.capacity(subsystem)
        return loads

    def ram_occupancy_gb(self, mix: Sequence[ActiveVM]) -> float:
        """Summed resident sets of the active VMs in GiB."""
        return sum(vm.benchmark.ram_gb for vm in mix)

    def thrash_factor(self, mix: Sequence[ActiveVM]) -> float:
        """Swap-thrashing multiplier, >= 1.0.

        1.0 while the mix fits in guest-usable RAM; grows
        superlinearly (coeff * excess_gb ** exponent) beyond it.
        """
        return self._thrash(self.ram_occupancy_gb(mix))

    def _thrash(self, ram_gb: float) -> float:
        excess = ram_gb - self._server.usable_ram_gb
        if excess <= 0.0:
            return 1.0
        return 1.0 + self._params.thrash_coeff * excess**self._params.thrash_exponent

    def virt_factor(self, mix: Sequence[ActiveVM]) -> float:
        """Hypervisor overhead multiplier for an ``n``-VM mix, >= 1.0."""
        n = len(mix)
        if n <= 1:
            return 1.0
        return 1.0 + self._params.virt_overhead_per_vm * (n - 1)

    def interference_factor(self, vm: ActiveVM, mix: Sequence[ActiveVM]) -> float:
        """Pairwise cache/scheduler interference multiplier for ``vm``.

        ``vm`` must be an element of ``mix`` (identity membership);
        the factor counts its co-tenants, weighting same-class ones by
        ``same_class_interference`` and others by
        ``cross_class_interference``.
        """
        same = 0
        cross = 0
        seen_self = False
        for other in mix:
            if other is vm and not seen_self:
                seen_self = True
                continue
            if other.benchmark.workload_class is vm.benchmark.workload_class:
                same += 1
            else:
                cross += 1
        if not seen_self:
            raise ValueError("vm must be a member of mix")
        p = self._params
        return 1.0 + p.same_class_interference * same + p.cross_class_interference * cross

    def bottleneck_factor(self, vm: ActiveVM, loads: Mapping[Subsystem, float]) -> float:
        """Demand-weighted stretch for ``vm`` under precomputed loads.

        ``sum_s w_s * max(1, rho_s)`` with ``w_s`` = share of the VM's
        total demand on subsystem ``s``; equals 1.0 when nothing the VM
        touches is saturated.
        """
        total_demand = sum(vm.demand(s) for s in SUBSYSTEMS)
        if total_demand <= 0.0:
            return 1.0
        stretch = 0.0
        for subsystem in SUBSYSTEMS:
            demand = vm.demand(subsystem)
            if demand > 0.0:
                stretch += (demand / total_demand) * max(1.0, loads[subsystem])
        return stretch

    def slowdown(self, vm: ActiveVM, mix: Sequence[ActiveVM]) -> float:
        """Execution slowdown of ``vm`` under ``mix`` (>= 1.0).

        Uncontended phases (``vm.contended`` False) only pay the
        hypervisor overhead; contended phases additionally pay
        bottleneck stretching, interference and thrashing.
        """
        virt = self.virt_factor(mix)
        if not vm.contended:
            return virt
        loads = self.subsystem_loads(mix)
        return (
            self.bottleneck_factor(vm, loads)
            * self.interference_factor(vm, mix)
            * self.thrash_factor(mix)
            * virt
        )

    def slowdowns(self, mix: Sequence[ActiveVM]) -> list[float]:
        """Slowdowns for every VM of the mix (shares the load computation)."""
        if not mix:
            return []
        virt = self.virt_factor(mix)
        loads = self.subsystem_loads(mix)
        thrash = self.thrash_factor(mix)
        result: list[float] = []
        # Count classes once; per-VM interference excludes the VM itself.
        class_counts: dict[WorkloadClass, int] = {}
        for vm in mix:
            cls = vm.benchmark.workload_class
            class_counts[cls] = class_counts.get(cls, 0) + 1
        n = len(mix)
        p = self._params
        for vm in mix:
            if not vm.contended:
                result.append(virt)
                continue
            cls = vm.benchmark.workload_class
            same = class_counts[cls] - 1
            cross = n - 1 - same
            interference = 1.0 + p.same_class_interference * same + p.cross_class_interference * cross
            result.append(self.bottleneck_factor(vm, loads) * interference * thrash * virt)
        return result

    def slowdowns_and_loads(
        self, kinds: Sequence[KindRecord]
    ) -> tuple[list[float], Mapping[Subsystem, float]]:
        """Slowdowns plus the loads they were derived from, bit-exactly.

        The fast sibling of calling :meth:`slowdowns` and
        :meth:`subsystem_loads` on the mix's views, for callers that
        need both (they also price power off the loads).  ``kinds``
        holds each VM's :class:`KindRecord` in VM order (from
        :func:`stage_kinds`): the simulator's kind registry and the
        testbed runner both intern them, so neither builds a view.
        VMs of one kind have identical demand vectors and bottleneck
        weights, so each kind's slowdown is evaluated once per mix.
        Every reused value is the exact float the naive formulas
        produce; each load and the RAM occupancy are still a ``sum()``
        over the per-VM addends in VM order, and each stretch still
        adds ``w * max(1, rho)`` to 0.0 in ``SUBSYSTEMS`` order, so the
        pair equals the naive results bit for bit on every interpreter
        (``sum()`` of floats is compensated from Python 3.12 on, so a
        hand-written fold would not) -- asserted in
        ``tests/testbed/test_contention.py``.  The loads dict is fresh
        on every call.
        """
        if not kinds:
            return [], self.subsystem_loads(())
        loads: dict[Subsystem, float] = {}
        load_values: list[float] = []
        # One column of per-VM addends per subsystem, in VM order.
        columns = zip(*[kind.demands for kind in kinds])
        for subsystem, column, capacity in zip(SUBSYSTEMS, columns, self._capacities):
            load = sum(column) / capacity
            loads[subsystem] = load
            load_values.append(load)
        n = len(kinds)
        virt = self.virt_factor(kinds)
        thrash = self._thrash(sum([kind.ram_gb for kind in kinds]))
        class_counts: dict[WorkloadClass, int] = {}
        for kind in kinds:
            cls = kind.workload_class
            class_counts[cls] = class_counts.get(cls, 0) + 1
        p = self._params
        result: list[float] = []
        kind_slowdowns: dict[int, float] = {}
        for kind in kinds:
            if not kind.contended:
                result.append(virt)
                continue
            value = kind_slowdowns.get(id(kind))
            if value is None:
                same = class_counts[kind.workload_class] - 1
                cross = n - 1 - same
                interference = (
                    1.0 + p.same_class_interference * same + p.cross_class_interference * cross
                )
                if kind.weights is None:
                    bottleneck = 1.0
                else:
                    bottleneck = 0.0
                    for i, weight in kind.weights:
                        bottleneck += weight * max(1.0, load_values[i])
                value = bottleneck * interference * thrash * virt
                kind_slowdowns[id(kind)] = value
            result.append(value)
        return result, loads

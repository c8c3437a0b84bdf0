"""The per-VM mix runner: the identity oracle of ``run_mix``.

:func:`reference_run_mix` is the testbed runner's event loop as it was
before VMs were grouped: every VM keeps its own state, and every step
builds a fresh :class:`~repro.testbed.contention.ActiveVM` view per
active VM and prices the mix with the naive
``MixModel.slowdowns`` + ``MixModel.subsystem_loads`` pair.  The
production :func:`~repro.testbed.runner.run_mix` advances groups of
identical VMs on interned kind records; its :class:`MixRunResult` must
equal this one bit for bit (``tests/testbed/test_runner.py``).

:func:`view_of` and :func:`view_record` are the view side of a kind:
the view a VM presents in a stage, and the record the contention
model reads of that view.  :func:`mix_power` prices one mix of views
the same naive way.  :func:`build_mix_instances` gives the VM instances
of one combined-test mix, as the campaign slices them from its pools.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.campaign.combined_tests import _instance_pools
from repro.campaign.records import MixKey
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.quantities import Seconds
from repro.testbed.benchmarks import BenchmarkSpec, WorkloadClass
from repro.testbed.contention import ActiveVM, ContentionParams, KindRecord, MixModel
from repro.testbed.meter import PowerMeter, PowerSegment, exact_energy, exact_max_power
from repro.testbed.power import instantaneous_power
from repro.testbed.runner import MixRunResult, VMInstance, VMRunOutcome
from repro.testbed.spec import SUBSYSTEMS, ServerSpec, Subsystem

_EPSILON_S = 1e-9


def build_mix_instances(
    key: MixKey,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None = None,
) -> list[VMInstance]:
    """The VM instances of a (Ncpu, Nmem, Nio) mix: CPU, then MEM, then
    IO, named by class and index as in the combined tests' pools."""
    cpu, mem, io = _instance_pools(key, benchmarks)
    return cpu + mem + io


def view_of(benchmark: BenchmarkSpec, stage: int) -> ActiveVM:
    """The contention model's view of a VM of ``benchmark`` in ``stage``
    (0 = init, uncontended at reduced demand; otherwise work)."""
    if stage == 0:
        return ActiveVM(benchmark, demand_scale=benchmark.init_demand_scale, contended=False)
    return ActiveVM(benchmark, demand_scale=1.0, contended=True)


def view_record(vm: ActiveVM) -> KindRecord:
    """The :class:`KindRecord` of ``vm``'s kind, derived from the view
    through the naive formulas' own reads."""
    demands = tuple(vm.demand(s) for s in SUBSYSTEMS)
    total_demand = sum(demands)
    if total_demand <= 0.0:
        weights = None
    else:
        weights = tuple(
            (i, demand / total_demand) for i, demand in enumerate(demands) if demand > 0.0
        )
    bench = vm.benchmark
    return KindRecord(demands, bench.workload_class, weights, bench.ram_gb, vm.contended, bench)


class _OracleVM:
    """Mutable per-VM state inside the oracle's event loop."""

    def __init__(self, instance: VMInstance):
        self.instance = instance
        self.stage = 0
        bench = instance.benchmark
        self.remaining = [bench.serial_time_s, bench.work_time_s]
        while self.stage < 2 and self.remaining[self.stage] <= 0.0:
            self.stage += 1
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def done(self) -> bool:
        return self.stage >= 2

    def advance(self, dt: float, slowdown: float) -> None:
        self.remaining[self.stage] -= dt / slowdown
        if self.remaining[self.stage] <= _EPSILON_S:
            self.remaining[self.stage] = 0.0
            self.stage += 1
            while self.stage < 2 and self.remaining[self.stage] <= 0.0:
                self.stage += 1


def reference_run_mix(
    server: ServerSpec,
    vms: Sequence[VMInstance],
    params: ContentionParams | None = None,
    meter: PowerMeter | None = None,
    max_steps: int = 1_000_000,
) -> MixRunResult:
    """``run_mix`` one VM at a time, on fresh views and the naive pair."""
    if not vms:
        raise ConfigurationError("cannot run an empty mix")
    if len(vms) > server.max_vms:
        raise ConfigurationError(
            f"mix of {len(vms)} VMs exceeds server capacity of {server.max_vms} VMs"
        )
    ids = [vm.vm_id for vm in vms]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate vm_id in mix: {ids}")

    model = MixModel(server, params)
    running = sorted((_OracleVM(vm) for vm in vms), key=lambda r: r.instance.start_offset_s)

    now = 0.0
    segments: list[PowerSegment] = []
    load_profile: list[tuple[float, float, Mapping[Subsystem, float]]] = []

    for _ in range(max_steps):
        active = [r for r in running if not r.done and r.instance.start_offset_s <= now + _EPSILON_S]
        pending = [r for r in running if not r.done and r.instance.start_offset_s > now + _EPSILON_S]
        if not active and not pending:
            break

        for r in active:
            if r.started_at is None:
                r.started_at = now

        next_arrival = min((r.instance.start_offset_s for r in pending), default=None)

        if not active:
            assert next_arrival is not None
            idle_loads = {s: 0.0 for s in SUBSYSTEMS}
            power = instantaneous_power(idle_loads, 0, server.power)
            segments.append((now, next_arrival, power))
            load_profile.append((now, next_arrival, idle_loads))
            now = next_arrival
            continue

        views = [view_of(r.instance.benchmark, r.stage) for r in active]
        slowdowns = model.slowdowns(views)
        loads = model.subsystem_loads(views)
        power = instantaneous_power(loads, len(active), server.power)

        dt = min(r.remaining[r.stage] * s for r, s in zip(active, slowdowns))
        if next_arrival is not None:
            dt = min(dt, next_arrival - now)
        if dt <= _EPSILON_S:
            dt = _EPSILON_S

        segments.append((now, now + dt, power))
        load_profile.append((now, now + dt, dict(loads)))

        for r, s in zip(active, slowdowns):
            r.advance(dt, s)
            if r.done and r.finished_at is None:
                r.finished_at = now + dt
        now += dt
    else:
        raise SimulationError(f"mix run did not converge within {max_steps} steps")

    outcomes = []
    for r in sorted(running, key=lambda r: r.instance.vm_id):
        if r.started_at is None or r.finished_at is None:
            raise SimulationError(f"VM {r.instance.vm_id!r} never completed")
        outcomes.append(
            VMRunOutcome(
                vm_id=r.instance.vm_id,
                benchmark_name=r.instance.benchmark.name,
                start_s=Seconds(r.instance.start_offset_s),
                finish_s=Seconds(r.finished_at),
            )
        )

    total_time = Seconds(max(o.finish_s for o in outcomes))
    reading = meter.measure(segments) if meter is not None else None
    return MixRunResult(
        outcomes=tuple(outcomes),
        total_time_s=total_time,
        energy_j=exact_energy(segments),
        max_power_w=exact_max_power(segments),
        segments=tuple(segments),
        load_profile=tuple(load_profile),
        meter_reading=reading,
    )


def mix_power(model: MixModel, mix: Sequence[ActiveVM]) -> float:
    """Power draw of a mix of views on ``model``'s server.

    An empty mix draws idle power (server on, nothing running).
    """
    loads = model.subsystem_loads(mix)
    return instantaneous_power(loads, len(mix), model.server.power)

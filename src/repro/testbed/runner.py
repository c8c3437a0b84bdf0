"""Run a mix of VMs on one emulated server.

This is the emulator's substitute for "run the benchmarks on the Dell
box and watch the power meter": a small event loop that advances the
mix through phase boundaries and VM completions, recomputing every VM's
progress rate from the contention model whenever the active mix
changes, and recording the piecewise-constant power and utilization
profile along the way.

Semantics
---------
* Every VM executes two sequential stages: the initialization phase
  (uncontended, reduced demand) and the work phase (contended).
* Progress rate of a stage is ``1 / slowdown`` under the current mix;
  when a VM finishes, the survivors speed up -- exactly the
  interval-weighted behaviour of the paper's Fig. 4.
* Power per interval comes from :func:`repro.testbed.power
  .instantaneous_power` on the interval's load factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.quantities import Joules, Seconds, Watts, energy_delay_product
from repro.testbed.benchmarks import BenchmarkSpec
from repro.testbed.contention import ContentionParams, KindRecord, MixModel, stage_kinds
from repro.testbed.meter import MeterReading, PowerMeter, PowerSegment, exact_energy, exact_max_power
from repro.testbed.power import instantaneous_power
from repro.testbed.spec import SUBSYSTEMS, ServerSpec, Subsystem

#: Numerical guard: stage advances smaller than this are treated as
#: completions to avoid infinite loops on floating-point residue.
_EPSILON_S = 1e-9


@dataclass(frozen=True)
class VMInstance:
    """One VM scheduled onto the emulated server.

    ``start_offset_s`` lets callers stagger arrivals; the model-building
    campaign always uses 0 (all VMs of a test start together).
    """

    vm_id: str
    benchmark: BenchmarkSpec
    start_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.vm_id:
            raise ConfigurationError("vm_id must be non-empty")
        if not 0.0 <= self.start_offset_s < math.inf:
            raise ConfigurationError(
                f"start_offset_s must be finite and >= 0, got {self.start_offset_s}"
            )


@dataclass(frozen=True)
class VMRunOutcome:
    """Per-VM timing of one mix run."""

    vm_id: str
    benchmark_name: str
    start_s: Seconds
    finish_s: Seconds


@dataclass(frozen=True)
class MixRunResult:
    """Everything the emulated testbed measures for one mix run.

    ``total_time_s`` is the paper's "Time" field (total execution time
    of the outcome); ``avg_time_vm_s`` is "avgTimeVM = Time / N".
    Energy/max-power are the exact (noise-free) integrals; a meter
    reading with sampling and accuracy noise can be attached by passing
    a :class:`~repro.testbed.meter.PowerMeter` to :func:`run_mix`.
    """

    outcomes: tuple[VMRunOutcome, ...]
    total_time_s: Seconds
    energy_j: Joules
    max_power_w: Watts
    segments: tuple[PowerSegment, ...]
    load_profile: tuple[tuple[float, float, Mapping[Subsystem, float]], ...]
    meter_reading: MeterReading | None = None

    @property
    def n_vms(self) -> int:
        return len(self.outcomes)

    @property
    def avg_time_vm_s(self) -> Seconds:
        """Average execution time per VM: Time / (Ncpu + Nmem + Nio)."""
        if not self.outcomes:
            return Seconds(0.0)
        return Seconds(self.total_time_s / len(self.outcomes))

    @property
    def edp(self) -> float:
        """Energy-Delay Product (J*s), Table II's tertiary metric."""
        return energy_delay_product(self.energy_j, self.total_time_s)


class _RunningVM:
    """Mutable state of one group of VMs inside the event loop.

    VMs with the same benchmark object and start offset share one
    state: every step gives them the same slowdown (their kind
    records are the same objects), so they advance alike, float for
    float.  ``kind`` is the group's current stage's record.
    """

    __slots__ = ("kinds", "offset", "stage", "remaining", "kind", "live", "started_at", "finished_at")

    def __init__(self, benchmark: BenchmarkSpec, offset: float, kinds: tuple[KindRecord, KindRecord]):
        self.kinds = kinds
        self.offset = offset
        self.stage = 0  # 0 = init, 1 = work, 2 = done
        self.remaining = [benchmark.serial_time_s, benchmark.work_time_s]
        # Skip empty stages up front (serial_fraction == 0).
        while self.stage < 2 and self.remaining[self.stage] <= 0.0:
            self.stage += 1
        self.kind = kinds[self.stage] if self.stage < 2 else None
        self.live = False
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def advance(self, dt: float, slowdown: float) -> None:
        self.remaining[self.stage] -= dt / slowdown
        if self.remaining[self.stage] <= _EPSILON_S:
            self.remaining[self.stage] = 0.0
            self.stage += 1
            while self.stage < 2 and self.remaining[self.stage] <= 0.0:
                self.stage += 1
            if self.stage < 2:
                self.kind = self.kinds[self.stage]


def run_mix(
    server: ServerSpec,
    vms: Sequence[VMInstance],
    params: ContentionParams | None = None,
    meter: PowerMeter | None = None,
    max_steps: int = 1_000_000,
) -> MixRunResult:
    """Execute a mix of VMs on one emulated server.

    Parameters
    ----------
    server:
        The server specification (capacities, RAM, power model).
    vms:
        The VM instances to run; must not exceed ``server.max_vms``.
    params:
        Contention-model coefficients (defaults are the calibrated ones).
    meter:
        If given, the power profile is additionally measured through the
        1 Hz meter emulation and attached as ``meter_reading``.
    max_steps:
        Safety bound on event-loop iterations.

    Returns
    -------
    MixRunResult
        Per-VM timings, total time, exact energy/max power, the
        piecewise power/load profile, and the optional meter reading.

    VMs of one benchmark object and start offset advance as one group
    (:class:`_RunningVM`); each step prices the mix from the groups'
    kind records listed once per VM in start order, so every load is
    the same ``sum()`` over per-VM addends a per-VM loop computes.
    ``tests/oracles/runner.py`` keeps that per-VM loop as the oracle.
    """
    if not vms:
        raise ConfigurationError("cannot run an empty mix")
    if len(vms) > server.max_vms:
        raise ConfigurationError(
            f"mix of {len(vms)} VMs exceeds server capacity of {server.max_vms} VMs"
        )
    ids = [vm.vm_id for vm in vms]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate vm_id in mix: {ids}")

    price = MixModel(server, params).slowdowns_and_loads
    kinds_of: dict[int, tuple[KindRecord, KindRecord]] = {}
    groups: dict[tuple[int, float], _RunningVM] = {}
    # Each VM with its group, in start order (ties keep input order).
    members: list[tuple[VMInstance, _RunningVM]] = []
    for vm in sorted(vms, key=lambda vm: vm.start_offset_s):
        bench = vm.benchmark
        key = (id(bench), vm.start_offset_s)
        group = groups.get(key)
        if group is None:
            kinds = kinds_of.get(id(bench))
            if kinds is None:
                kinds = kinds_of[id(bench)] = stage_kinds(bench)
            group = groups[key] = _RunningVM(bench, vm.start_offset_s, kinds)
        members.append((vm, group))
    order = [group for _, group in members]
    everyone = list(groups.values())

    now = 0.0
    segments: list[PowerSegment] = []
    load_profile: list[tuple[float, float, Mapping[Subsystem, float]]] = []

    for _ in range(max_steps):
        horizon = now + _EPSILON_S
        active = []
        next_arrival = None
        for group in everyone:
            group.live = group.stage < 2 and group.offset <= horizon
            if group.live:
                active.append(group)
                if group.started_at is None:
                    group.started_at = now
            elif group.stage < 2 and group.offset > horizon:
                if next_arrival is None or group.offset < next_arrival:
                    next_arrival = group.offset
        if not active and next_arrival is None:
            break

        if not active:
            # Idle gap before the next arrival: server on, nothing running.
            idle_loads = {s: 0.0 for s in SUBSYSTEMS}
            power = instantaneous_power(idle_loads, 0, server.power)
            segments.append((now, next_arrival, power))
            load_profile.append((now, next_arrival, idle_loads))
            now = next_arrival
            continue

        running = [group for group in order if group.live]
        slowdowns, loads = price([group.kind for group in running])
        slowdown_of = dict(zip(running, slowdowns))
        power = instantaneous_power(loads, len(running), server.power)

        # Earliest stage-completion among active VMs, bounded by arrivals.
        dt = min([group.remaining[group.stage] * slowdown_of[group] for group in active])
        if next_arrival is not None:
            dt = min(dt, next_arrival - now)
        if dt <= _EPSILON_S:
            dt = _EPSILON_S  # force progress on degenerate boundaries

        end = now + dt
        segments.append((now, end, power))
        load_profile.append((now, end, loads))

        for group in active:
            group.advance(dt, slowdown_of[group])
            if group.stage >= 2 and group.finished_at is None:
                group.finished_at = end
        now = end
    else:
        raise SimulationError(f"mix run did not converge within {max_steps} steps")

    outcomes = []
    for vm, group in sorted(members, key=lambda member: member[0].vm_id):
        if group.started_at is None or group.finished_at is None:
            raise SimulationError(f"VM {vm.vm_id!r} never completed")
        outcomes.append(
            VMRunOutcome(
                vm_id=vm.vm_id,
                benchmark_name=vm.benchmark.name,
                start_s=Seconds(vm.start_offset_s),
                finish_s=Seconds(group.finished_at),
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

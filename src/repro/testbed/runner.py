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

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.quantities import Joules, Seconds, Watts, energy_delay_product
from repro.testbed.benchmarks import BenchmarkSpec
from repro.testbed.contention import ActiveVM, ContentionParams, MixModel
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
        if self.start_offset_s < 0:
            raise ConfigurationError(
                f"start_offset_s must be >= 0, got {self.start_offset_s}"
            )


@dataclass(frozen=True)
class VMRunOutcome:
    """Per-VM timing of one mix run."""

    vm_id: str
    benchmark_name: str
    start_s: Seconds
    finish_s: Seconds

    @property
    def exec_time_s(self) -> Seconds:
        return Seconds(self.finish_s - self.start_s)


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

    def exec_time_of(self, vm_id: str) -> Seconds:
        for outcome in self.outcomes:
            if outcome.vm_id == vm_id:
                return outcome.exec_time_s
        raise KeyError(f"no VM {vm_id!r} in this run")


class _RunningVM:
    """Mutable per-VM state inside the event loop."""

    __slots__ = ("instance", "stage", "remaining", "started_at", "finished_at")

    def __init__(self, instance: VMInstance):
        self.instance = instance
        self.stage = 0  # 0 = init, 1 = work, 2 = done
        bench = instance.benchmark
        self.remaining = [bench.serial_time_s, bench.work_time_s]
        # Skip empty stages up front (serial_fraction == 0).
        while self.stage < 2 and self.remaining[self.stage] <= 0.0:
            self.stage += 1
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def done(self) -> bool:
        return self.stage >= 2

    def active_view(self) -> ActiveVM:
        bench = self.instance.benchmark
        if self.stage == 0:
            return ActiveVM(bench, demand_scale=bench.init_demand_scale, contended=False)
        return ActiveVM(bench, demand_scale=1.0, contended=True)

    def advance(self, dt: float, slowdown: float) -> None:
        self.remaining[self.stage] -= dt / slowdown
        if self.remaining[self.stage] <= _EPSILON_S:
            self.remaining[self.stage] = 0.0
            self.stage += 1
            while self.stage < 2 and self.remaining[self.stage] <= 0.0:
                self.stage += 1


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

    model = MixModel(server, params)
    running = sorted((_RunningVM(vm) for vm in vms), key=lambda r: r.instance.start_offset_s)

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
            # Idle gap before the next arrival: server on, nothing running.
            assert next_arrival is not None
            idle_loads = {s: 0.0 for s in SUBSYSTEMS}
            power = instantaneous_power(idle_loads, 0, server.power)
            segments.append((now, next_arrival, power))
            load_profile.append((now, next_arrival, idle_loads))
            now = next_arrival
            continue

        views = [r.active_view() for r in active]
        slowdowns, loads = model.slowdowns_and_loads(views)
        power = instantaneous_power(loads, len(active), server.power)

        # Earliest stage-completion among active VMs, bounded by arrivals.
        dt = min(r.remaining[r.stage] * s for r, s in zip(active, slowdowns))
        if next_arrival is not None:
            dt = min(dt, next_arrival - now)
        if dt <= _EPSILON_S:
            dt = _EPSILON_S  # force progress on degenerate boundaries

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

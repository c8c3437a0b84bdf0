"""Reactive migration controller.

Operates directly on live :class:`~repro.sim.server.ServerRuntime`
instances (between event-loop steps, or in standalone what-if studies):

1. **detect**: a server is overloaded when its current mix falls
   outside the model grid or its slowest VM's estimated completion
   exceeds a responsiveness threshold;
2. **select**: migrate the VM whose removal most improves the source
   mix (smallest estimated time of the remaining mix), mirroring the
   "which VMs are best candidates" question of Kochut et al.;
3. **charge**: live migration is not free -- the moved VM pays a
   stop-and-copy penalty (extra remaining work) proportional to its
   RAM footprint over the migration link bandwidth;
4. **re-attach** on the least-loaded feasible destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.campaign.records import MixKey, total_vms
from repro.common.errors import ConfigurationError, ModelLookupError
from repro.core.model import ModelDatabase
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass

_CLASS_INDEX = {
    WorkloadClass.CPU: 0,
    WorkloadClass.MEM: 1,
    WorkloadClass.IO: 2,
}


@dataclass(frozen=True)
class MigrationPolicy:
    """Knobs of the reactive controller."""

    #: A server whose current-mix estimated completion exceeds this
    #: multiple of the slowest class's solo time is overloaded.
    overload_factor: float = 3.0
    #: Migration link bandwidth (GiB/s); stop-and-copy time is
    #: ram_gb / bandwidth, added to the VM's remaining work.
    link_bandwidth_gbps: float = 0.1
    #: Never migrate more than this many VMs per invocation.
    max_migrations: int = 4

    def __post_init__(self) -> None:
        if self.overload_factor <= 1.0:
            raise ConfigurationError(
                f"overload_factor must exceed 1, got {self.overload_factor}"
            )
        if self.link_bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"link bandwidth must be positive, got {self.link_bandwidth_gbps}"
            )
        if self.max_migrations < 1:
            raise ConfigurationError(
                f"max_migrations must be >= 1, got {self.max_migrations}"
            )


@dataclass(frozen=True)
class MigrationDecision:
    """One planned move."""

    vm_id: str
    source_id: str
    target_id: str
    penalty_s: float


def _without(mix: MixKey, workload_class: WorkloadClass) -> MixKey:
    index = _CLASS_INDEX[workload_class]
    counts = list(mix)
    counts[index] -= 1
    return (counts[0], counts[1], counts[2])


def _with(mix: MixKey, workload_class: WorkloadClass) -> MixKey:
    index = _CLASS_INDEX[workload_class]
    counts = list(mix)
    counts[index] += 1
    return (counts[0], counts[1], counts[2])


def _estimated_time(database: ModelDatabase, mix: MixKey) -> float:
    if total_vms(mix) == 0:
        return 0.0
    try:
        return database.estimate(mix).time_s
    except ModelLookupError:
        return float("inf")  # off-grid: worse than anything measured


def _is_overloaded(database: ModelDatabase, mix: MixKey, policy: MigrationPolicy) -> bool:
    if total_vms(mix) == 0:
        return False
    if not database.within_bounds(mix):
        return True
    slowest_solo = max(
        database.reference_time(WorkloadClass.CPU) if mix[0] else 0.0,
        database.reference_time(WorkloadClass.MEM) if mix[1] else 0.0,
        database.reference_time(WorkloadClass.IO) if mix[2] else 0.0,
    )
    return _estimated_time(database, mix) > policy.overload_factor * slowest_solo


def plan_migrations(
    servers: Sequence[ServerRuntime],
    database: ModelDatabase,
    policy: MigrationPolicy | None = None,
) -> list[MigrationDecision]:
    """Plan reactive migrations for the current cluster state.

    Pure planning -- no state is mutated; apply with
    :func:`apply_migrations`.
    """
    policy = policy or MigrationPolicy()
    decisions: list[MigrationDecision] = []
    mixes: dict[str, MixKey] = {s.server_id: s.mix_key() for s in servers}

    overloaded = [s for s in servers if _is_overloaded(database, mixes[s.server_id], policy)]
    for source in overloaded:
        if len(decisions) >= policy.max_migrations:
            break
        source_mix = mixes[source.server_id]
        # Candidate = the VM whose removal best relieves the source.
        best_vm: SimVM | None = None
        best_remaining = float("inf")
        for vm in source.vms:
            remaining = _estimated_time(database, _without(source_mix, vm.workload_class))
            if remaining < best_remaining:
                best_remaining = remaining
                best_vm = vm
        if best_vm is None:
            continue
        # Destination = feasible server with the fastest combined mix.
        best_target: ServerRuntime | None = None
        best_target_time = float("inf")
        for target in servers:
            if target.server_id == source.server_id:
                continue
            combined = _with(mixes[target.server_id], best_vm.workload_class)
            if not database.within_bounds(combined):
                continue
            if total_vms(combined) > target.spec.max_vms:
                continue
            combined_time = _estimated_time(database, combined)
            if combined_time < best_target_time:
                best_target_time = combined_time
                best_target = target
        if best_target is None:
            continue
        assert best_vm.benchmark is not None
        penalty = best_vm.benchmark.ram_gb / policy.link_bandwidth_gbps
        decisions.append(
            MigrationDecision(
                vm_id=best_vm.vm_id,
                source_id=source.server_id,
                target_id=best_target.server_id,
                penalty_s=penalty,
            )
        )
        mixes[source.server_id] = _without(source_mix, best_vm.workload_class)
        mixes[best_target.server_id] = _with(mixes[best_target.server_id], best_vm.workload_class)
    return decisions


def apply_migrations(
    decisions: Sequence[MigrationDecision],
    servers: Sequence[ServerRuntime],
    now_s: float,
) -> int:
    """Execute planned migrations at time ``now_s``; returns the count.

    Standalone convenience (what-if studies); event-loop integrations
    should use :func:`apply_migrations_collecting` so VMs that complete
    exactly at the migration instant are surfaced instead of silently
    removed by the syncs.
    """
    applied, finished = apply_migrations_collecting(decisions, servers, now_s)
    if finished:
        raise ConfigurationError(
            f"{len(finished)} VMs completed at the migration instant; use "
            f"apply_migrations_collecting to receive them"
        )
    return applied


def apply_migrations_collecting(
    decisions: Sequence[MigrationDecision],
    servers: Sequence[ServerRuntime],
    now_s: float,
) -> tuple[int, list[SimVM]]:
    """Execute planned migrations; returns (applied, finished VMs).

    ``finished`` holds VMs whose stage ran out exactly at ``now_s``
    during the pre-migration syncs -- the caller owns their lifecycle
    completion.
    """
    by_id = {s.server_id: s for s in servers}
    applied = 0
    finished: list[SimVM] = []
    for decision in decisions:
        source = by_id[decision.source_id]
        target = by_id[decision.target_id]
        finished.extend(source.sync(now_s))
        vm = next((v for v in source.vms if v.vm_id == decision.vm_id), None)
        if vm is None:
            continue  # finished in the meantime
        source.detach_vm(vm, now_s)
        finished.extend(target.sync(now_s))
        target.attach_vm(vm, now_s)
        vm.remaining[min(vm.stage, 1)] += decision.penalty_s
        applied += 1
    return applied, finished

"""Sharded campaigns: partition a cluster, merge the shard results.

A million-VM campaign does not fit one event loop's lifetime budget;
this module splits the server pool into contiguous shards, routes each
job (and each scheduled fault) to exactly one shard, and merges the
per-shard :class:`~repro.sim.datacenter.SimulationResult` objects back
into one -- deterministically, so the merged result is a pure function
of ``(jobs, config, plan, fault spec)`` and therefore bit-identical no
matter how many workers executed the shards (the execution side lives
in :mod:`repro.exec.sharded`, which fans the shards over ``pmap``).

Everything here is pure bookkeeping over value objects: no processes,
no observability, no wall clock -- which is what keeps this module in
the ``sim`` layer (it must not import ``exec``; the lint matrix and
``tests/analysis`` fixtures pin that down).

Determinism argument for the merge (DESIGN.md "Simulation at scale"):

1. The plan's server split is arithmetic on ``(n_servers, n_shards)``.
2. Job partitioning is a greedy balance over the deterministically
   ordered job list (sorted by ``(submit_time_s, job_id)``, the same
   order the simulator itself uses), breaking ties toward the lowest
   shard id -- no randomness, no iteration over unordered containers.
3. Fault routing is a pure function of each timeline entry (server
   offsets for server faults, the vm id's job for VM aborts).
4. Each shard simulation is deterministic by the simulator's own
   contract, and ``exec.pmap`` returns results in input order at any
   worker count.
5. The merge sorts outcomes by the total order ``(completion_time_s,
   submit_time_s, job_id)`` and the fault log by ``time_s`` (stable,
   over the shard-ordered concatenation); energies and chronicles are
   concatenated in shard order, which *is* global server order because
   the split is contiguous.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.faults import FaultSchedule, ScheduledFault
from repro.sim.datacenter import DatacenterConfig, SimulationResult
from repro.sim.metrics import compute_metrics
from repro.workloads.assignment import PreparedJob


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous split of ``n_servers`` into ``n_shards`` groups.

    The first ``n_servers % n_shards`` shards hold one extra server,
    so sizes differ by at most one and the concatenation of the shards
    in order reproduces the unsharded server list exactly.
    """

    n_servers: int
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_servers < self.n_shards:
            raise ConfigurationError(
                f"cannot split {self.n_servers} servers into {self.n_shards} shards"
            )

    def size(self, shard: int) -> int:
        base, extra = divmod(self.n_servers, self.n_shards)
        return base + (1 if shard < extra else 0)

    def offset(self, shard: int) -> int:
        """Global index of the shard's first server."""
        base, extra = divmod(self.n_servers, self.n_shards)
        return base * shard + min(shard, extra)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(self.offset(shard) for shard in range(self.n_shards))

    def shard_of_server(self, server: int) -> int:
        """Which shard owns a global server index."""
        if not 0 <= server < self.n_servers:
            raise ConfigurationError(
                f"server {server} outside cluster of {self.n_servers}"
            )
        return bisect_right(self.offsets, server) - 1


def assign_shards(
    jobs: Iterable[PreparedJob], plan: ShardPlan
) -> Iterator[tuple[PreparedJob, int]]:
    """The greedy balance, one job at a time in the order given.

    Each job goes to the shard with the lowest assigned-VMs-to-capacity
    ratio (ties to the lowest shard id), so heterogeneous shard sizes
    fill evenly.  Yields ``(job, shard)``; the only state is one load
    per shard, so a lazy iterable streams through.
    """
    capacities = [plan.size(shard) for shard in range(plan.n_shards)]
    loads = [0] * plan.n_shards
    for job in jobs:
        best = 0
        best_ratio = loads[0] / capacities[0]
        for shard in range(1, plan.n_shards):
            ratio = loads[shard] / capacities[shard]
            if ratio < best_ratio:
                best, best_ratio = shard, ratio
        loads[best] += job.n_vms
        yield job, best


def partition_jobs(
    jobs: Sequence[PreparedJob], plan: ShardPlan
) -> tuple[list[list[PreparedJob]], dict[int, int]]:
    """Deterministically route each job to one shard.

    :func:`assign_shards` over the canonical job order.  Returns the
    per-shard job lists plus the ``job_id -> shard`` map used to route
    VM-abort faults.
    """
    ordered = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
    groups: list[list[PreparedJob]] = [[] for _ in range(plan.n_shards)]
    job_to_shard: dict[int, int] = {}
    for job, shard in assign_shards(ordered, plan):
        groups[shard].append(job)
        if job.job_id in job_to_shard:
            raise SimulationError(f"duplicate job id {job.job_id} in trace")
        job_to_shard[job.job_id] = shard
    return groups, job_to_shard


def _job_of_vm(vm_id: str) -> int | None:
    """Recover the job id from the simulator's ``j{job}-{k}`` vm ids."""
    if not vm_id.startswith("j"):
        return None
    head, sep, _ = vm_id.rpartition("-")
    if not sep:
        return None
    try:
        return int(head[1:])
    except ValueError:
        return None


def partition_schedule(
    schedule: FaultSchedule, plan: ShardPlan, job_to_shard: dict[int, int]
) -> list[FaultSchedule]:
    """Split a materialized fault timeline across the shards.

    Server faults follow their server's shard (remapped to the shard's
    local indexing); VM aborts follow the targeted VM's job.  Aborts
    naming an unparseable or unknown VM go to shard 0, where the
    simulator logs them as unapplied exactly as the unsharded run
    would.  Every timeline entry lands in exactly one shard, in its
    original relative order (the property suite checks both).  Worker
    failures are an exec-level concern and stay out of the per-shard
    schedules.
    """
    timelines: list[list[ScheduledFault]] = [[] for _ in range(plan.n_shards)]
    for entry in schedule.timeline:
        if entry.server is not None:
            shard = plan.shard_of_server(entry.server)
            timelines[shard].append(
                replace(entry, server=entry.server - plan.offset(shard))
            )
        else:
            job_id = _job_of_vm(entry.vm) if entry.vm is not None else None
            shard = job_to_shard.get(job_id, 0) if job_id is not None else 0
            timelines[shard].append(entry)
    return [FaultSchedule(timeline=tuple(timeline)) for timeline in timelines]


def shard_config(
    config: DatacenterConfig,
    plan: ShardPlan,
    shard: int,
    spill_path: str | None = None,
) -> DatacenterConfig:
    """The shard's view of the cluster config.

    The server slice keeps its global naming through
    ``server_id_offset``, so merged chronicles, fault logs, and traces
    carry the same ids an unsharded run would produce.
    """
    if config.n_servers != plan.n_servers:
        raise ConfigurationError(
            f"plan covers {plan.n_servers} servers but config has {config.n_servers}"
        )
    offset, size = plan.offset(shard), plan.size(shard)
    return replace(
        config,
        n_servers=size,
        server_id_offset=config.server_id_offset + offset,
        chronicle_spill_path=(
            spill_path if spill_path is not None else config.chronicle_spill_path
        ),
    )


def merge_results(results: Sequence[SimulationResult]) -> SimulationResult:
    """Deterministically fold shard results into one cluster result.

    See the module docstring for why each field's merge is
    order-independent of *execution* (worker count, completion timing)
    while staying a pure function of the shard decomposition.
    """
    if not results:
        raise SimulationError("merge_results needs at least one shard result")
    names = {result.strategy_name for result in results}
    if len(names) > 1:
        raise SimulationError(f"cannot merge results of different strategies: {names}")
    outcomes = [o for result in results for o in result.outcomes]
    outcomes.sort(key=lambda o: (o.completion_time_s, o.submit_time_s, o.job_id))
    fault_log = [record for result in results for record in result.fault_log]
    fault_log.sort(key=lambda record: record.time_s)
    max_queue = max(result.metrics.max_queue_length for result in results)
    metrics = compute_metrics(
        outcomes,
        energy_busy_j=sum(result.metrics.busy_energy_j for result in results),
        energy_idle_j=sum(result.metrics.idle_energy_j for result in results),
        max_queue_length=max_queue,
        # Shard-order folds, mirroring the energy merge: a pure
        # function of the decomposition, invariant to worker count.
        carbon_g=sum(result.metrics.carbon_g for result in results),
        cost=sum(result.metrics.cost for result in results),
    )
    return SimulationResult(
        strategy_name=results[0].strategy_name,
        metrics=metrics,
        outcomes=tuple(outcomes),
        per_server_busy_j=tuple(
            j for result in results for j in result.per_server_busy_j
        ),
        per_server_idle_j=tuple(
            j for result in results for j in result.per_server_idle_j
        ),
        n_servers=sum(result.n_servers for result in results),
        chronicles=tuple(c for result in results for c in result.chronicles),
        fault_log=tuple(fault_log),
        per_server_carbon_g=tuple(
            g for result in results for g in result.per_server_carbon_g
        ),
        per_server_cost=tuple(
            c for result in results for c in result.per_server_cost
        ),
    )

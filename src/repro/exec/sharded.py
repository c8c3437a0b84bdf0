"""Sharded simulation execution: shard fan-out over the pmap pool.

:mod:`repro.sim.shard` decides *what* each shard simulates and how the
results fold back together; this module is the execution half that
actually runs the shards -- serially or over :func:`repro.exec.pmap`'s
spawn-safe pool -- and guarantees the merged result is bit-identical
at any worker count:

* shard payloads are frozen and shipped once per worker; the strategy
  is deep-copied per shard task, because pool workers (and the serial
  path) reuse state across tasks and a stateful strategy (seeded
  random placement, memoized allocators) must start every shard from
  the same fresh state regardless of which worker runs it;
* ``pmap`` returns shard results in input order whatever the
  completion order, and per-task observability captures merge back in
  input order, so metrics snapshots match serial runs too;
* fault specs are materialized once against the *global* cluster, then
  split along shard ownership (:func:`repro.sim.shard.partition_schedule`)
  -- the timeline every shard sees is independent of worker count, and
  worker-failure clauses go to the pool itself, not into the shards.
"""

from __future__ import annotations

import copy
import os
import pickle
from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import ConfigurationError, SimulationError
from repro.exec.engine import pmap
from repro.faults import FaultSchedule, FaultSpec, materialize
from repro.obs.runtime import Observability, get_observability
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator, SimulationResult
from repro.sim.shard import (
    ShardPlan,
    assign_shards,
    merge_results,
    partition_jobs,
    partition_schedule,
    shard_config,
)
from repro.strategies.base import AllocationStrategy
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


@dataclass(frozen=True)
class _ShardPayload:
    """Read-only state shipped to every shard task (once per worker)."""

    config: DatacenterConfig
    qos: QoSPolicy
    strategy: AllocationStrategy
    #: In-memory shard job lists, or None when the jobs were spooled to
    #: disk (then ``group_paths`` carries one pickle path per shard).
    groups: tuple[tuple[PreparedJob, ...], ...] | None
    schedules: tuple[FaultSchedule | None, ...]
    plan: ShardPlan
    spill_paths: tuple[str | None, ...]
    group_paths: tuple[str, ...] | None = None


#: Jobs buffered per shard before each pickle append during spooling.
_SPOOL_CHUNK = 1024


def _shard_jobs(payload: _ShardPayload, shard: int) -> list[PreparedJob]:
    if payload.groups is not None:
        return list(payload.groups[shard])
    assert payload.group_paths is not None
    jobs: list[PreparedJob] = []
    with open(payload.group_paths[shard], "rb") as handle:
        while True:
            try:
                jobs.extend(pickle.load(handle))
            except EOFError:
                return jobs


def _spool_partition(
    jobs,
    plan: ShardPlan,
    spool_dir: str,
    job_to_shard: "dict[int, int] | None",
) -> tuple[str, ...]:
    """Stream jobs straight into per-shard spool files.

    Jobs go through :func:`assign_shards`, the balance
    :func:`partition_jobs` runs, with only a small pickle buffer per
    shard resident -- so a lazy job iterable is partitioned in
    O(shards) memory instead of O(jobs).  That only reproduces
    ``partition_jobs`` if jobs arrive in its canonical
    ``(submit_time_s, job_id)`` order, so the first out-of-order pair
    raises rather than silently producing a different (still valid,
    but not bit-identical) decomposition.  ``job_to_shard`` is filled
    when a dict is passed (fault routing needs the map; it is O(jobs),
    so callers without faults skip it -- duplicate job-id detection
    rides on the map and is skipped with it).
    """
    paths = tuple(
        os.path.join(spool_dir, f"jobs_shard{shard:03d}.pkl")
        for shard in range(plan.n_shards)
    )
    handles = [open(path, "wb") for path in paths]
    buffers: list[list[PreparedJob]] = [[] for _ in range(plan.n_shards)]
    last_key: tuple[float, int] | None = None
    try:
        for job, shard in assign_shards(jobs, plan):
            key = (job.submit_time_s, job.job_id)
            if last_key is not None and key < last_key:
                raise ConfigurationError(
                    "spooled jobs must arrive sorted by (submit_time_s, "
                    f"job_id); job {job.job_id} at t={job.submit_time_s} "
                    f"arrived after {last_key}"
                )
            last_key = key
            buffers[shard].append(job)
            if job_to_shard is not None:
                if job.job_id in job_to_shard:
                    raise SimulationError(f"duplicate job id {job.job_id} in trace")
                job_to_shard[job.job_id] = shard
            if len(buffers[shard]) >= _SPOOL_CHUNK:
                pickle.dump(buffers[shard], handles[shard])
                buffers[shard].clear()
        for shard, buffer in enumerate(buffers):
            if buffer:
                pickle.dump(buffer, handles[shard])
    finally:
        for handle in handles:
            handle.close()
    return paths


def _run_shard(payload: _ShardPayload, shard: int) -> SimulationResult:
    """Simulate one shard; runs serial or inside a pool worker."""
    config = shard_config(
        payload.config, payload.plan, shard, spill_path=payload.spill_paths[shard]
    )
    # Fresh strategy state per shard: the serial path hands every task
    # the same payload object and pool workers persist across tasks, so
    # sharing one instance would leak state between shards in a
    # worker-count-dependent way.
    strategy = copy.deepcopy(payload.strategy)
    simulator = DatacenterSimulator(config, obs=get_observability())
    return simulator.run(
        _shard_jobs(payload, shard),
        strategy,
        payload.qos,
        faults=payload.schedules[shard],
    )


def shard_spill_paths(
    config: DatacenterConfig, n_shards: int
) -> tuple[str | None, ...]:
    """Per-shard spill files derived from the configured base path.

    With more than one shard every shard needs its own file (parallel
    writers cannot share an append stream); a single shard keeps the
    configured path untouched.  ``(None, ...)`` when no spill is set.
    """
    base = config.chronicle_spill_path
    if base is None:
        return (None,) * n_shards
    if n_shards == 1:
        return (base,)
    return tuple(f"{base}.shard{shard:03d}" for shard in range(n_shards))


def run_sharded(
    jobs: "Iterable[PreparedJob]",
    strategy: AllocationStrategy,
    qos: QoSPolicy,
    config: DatacenterConfig,
    *,
    shards: int,
    workers: int = 1,
    faults: FaultSpec | None = None,
    obs: Observability | None = None,
    spool_dir: str | None = None,
) -> SimulationResult:
    """Run one (trace, strategy) campaign sharded across server groups.

    ``shards`` partitions the cluster (jobs balance across shards by
    VM load); ``workers`` sets the pool size -- results, metrics
    snapshots, and chronicles are bit-identical for any value,
    including 1 (fully serial).  ``faults`` is a declarative spec, as
    in the evaluation runner: sim events route to the owning shard,
    worker-failure clauses exercise the pool's retry path.

    ``spool_dir`` (a caller-owned directory) bounds resident memory
    for very large campaigns: jobs are streamed into one pickle spool
    file per shard as they are partitioned, so while shards run, only
    the shard currently simulating holds its jobs in RAM.  Pass a
    *lazy* iterable (e.g. a generator reading a trace file) in
    canonical ``(submit_time_s, job_id)`` order and the whole job list
    is never resident at once; lists and tuples are accepted in any
    order (they are sorted first, as the in-memory path would).
    Shards replay the exact objects the partition visited, so results
    are bit-identical with and without spooling.  Spool files are left
    in place; pass a temporary directory to have them cleaned up.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    plan = ShardPlan(n_servers=config.n_servers, n_shards=shards)
    faulted = faults is not None and not faults.is_empty()
    group_paths: tuple[str, ...] | None = None
    if spool_dir is not None:
        job_to_shard: "dict[int, int] | None" = {} if faulted else None
        if isinstance(jobs, (list, tuple)):
            jobs = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        group_paths = _spool_partition(jobs, plan, spool_dir, job_to_shard)
        groups = None
        # Release every whole-campaign job container this frame holds;
        # the caller drops its own reference to get the full benefit.
        del jobs
    else:
        groups, job_to_shard = partition_jobs(jobs, plan)
    schedules: "tuple[FaultSchedule | None, ...]"
    worker_failures = None
    if faulted:
        schedule = materialize(faults, config.n_servers)
        schedules = tuple(partition_schedule(schedule, plan, job_to_shard))
        worker_failures = faults.worker_failures or None
    else:
        schedules = (None,) * shards
    del job_to_shard
    payload = _ShardPayload(
        config=config,
        qos=qos,
        strategy=strategy,
        groups=None if groups is None else tuple(tuple(group) for group in groups),
        schedules=schedules,
        plan=plan,
        spill_paths=shard_spill_paths(config, shards),
        group_paths=group_paths,
    )
    del groups
    results = pmap(
        _run_shard,
        list(range(shards)),
        jobs=workers,
        payload=payload,
        obs=obs,
        fault_plan=worker_failures,
    )
    return merge_results(results)

"""Top-level datacenter simulation driver (paper Sect. IV).

Binds a prepared workload trace to an allocation strategy over a
cluster of emulated servers:

* job requests arrive at their trace submit times; each job's VMs are
  placed atomically by the strategy or queued FCFS (head-of-line
  blocking, as in batch schedulers) until capacity frees up;
* VM execution follows the testbed contention model -- the simulation
  ground truth -- with progress and energy integrated between mix
  changes (the event-driven realization of Fig. 4's interval-weighted
  accounting);
* powered-on servers draw at least the paper's fixed 125 W; empty
  servers power off by default (consolidation's energy lever);
* completion, energy, and SLA outcomes feed
  :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.common.errors import ConfigurationError, SimulationError, UnplaceableJobError
from repro.faults import (
    FAULTS_INJECTED,
    FAULTS_REALLOCATIONS,
    FaultAction,
    FaultRecord,
    FaultSchedule,
    ScheduledFault,
)
from repro.obs.runtime import Observability, get_observability
from repro.sim.chronicle import ChronicleSpill
from repro.sim.engine import EventQueue
from repro.sim.index import ClusterState
from repro.sim.metrics import JobOutcome, SimulationMetrics, compute_metrics
from repro.sim.server import KindRegistry, ServerRuntime
from repro.sim.vm import SimVM, VMState
from repro.strategies.base import AllocationStrategy, ServerView, VMDescriptor
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec, Subsystem, default_server
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

_Event = tuple[Literal["arrival", "boundary", "fault"], int, int]
# ("arrival", job_index, 0), ("boundary", server_index, token), or
# ("fault", timeline_index, 0)

#: What one fault did: (applied, no-op detail, evicted VM ids, lost work).
_FaultOutcome = tuple[bool, str, tuple[str, ...], float]

#: Per server-fault action: the chronicle note it leaves when applied,
#: and why it is a no-op otherwise (each action needs a healthy server,
#: except a recovery, which needs a failed one).
_SERVER_FAULTS = {
    FaultAction.CRASH: ("crash", "already failed"),
    FaultAction.RECOVER: ("recover", "not failed"),
    FaultAction.SLOWDOWN_START: ("slowdown", "server failed"),
    FaultAction.SLOWDOWN_END: ("slowdown_end", "server failed"),
}


@dataclass(frozen=True)
class DatacenterConfig:
    """Cluster configuration for one simulation run."""

    n_servers: int
    server_spec: ServerSpec = field(default_factory=default_server)
    params: ContentionParams | None = None
    power_off_when_empty: bool = True
    #: Record per-server interval chronicles (power/mix audit trails;
    #: costs memory proportional to event count).  Consumed by the
    #: accounting consistency checks.
    record_chronicles: bool = False
    #: Queue discipline: 0 = strict FCFS (a blocked head blocks
    #: everyone, as in the paper's implicit batch model); N > 0 = EASY
    #: backfilling, letting up to N queued jobs behind a blocked head
    #: be placed when capacity suits them.
    backfill_window: int = 0
    #: Ring-buffer capacity per chronicle (None = retain everything).
    #: Requires ``record_chronicles``; bounds chronicle memory at
    #: ``capacity`` intervals per server regardless of run length.
    chronicle_capacity: int | None = None
    #: JSONL spill file for intervals evicted from bounded chronicles
    #: (shared by all servers of the run; see
    #: :class:`repro.sim.chronicle.ChronicleSpill`).  Requires
    #: ``chronicle_capacity``.
    chronicle_spill_path: str | None = None
    #: Global index of this cluster's first server: server ids are
    #: ``s{offset+i:04d}``.  Sharded campaigns (repro.sim.shard) give
    #: each shard its slice's offset so ids match the unsharded
    #: cluster's naming.
    server_id_offset: int = 0
    #: Temporal carbon/price signals for per-interval carbon mass and
    #: energy-cost accounting (duck-typed fused ``accrue``,
    #: see :class:`repro.ext.carbon.signal.TemporalSignals`; sim never
    #: imports ext).  ``None`` -- the default -- leaves every float of
    #: the signal-free simulation untouched.
    signals: object | None = None

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.backfill_window < 0:
            raise ConfigurationError(
                f"backfill_window must be >= 0, got {self.backfill_window}"
            )
        if self.chronicle_capacity is not None:
            if self.chronicle_capacity < 1:
                raise ConfigurationError(
                    f"chronicle_capacity must be >= 1, got {self.chronicle_capacity}"
                )
            if not self.record_chronicles:
                raise ConfigurationError(
                    "chronicle_capacity requires record_chronicles=True"
                )
        if self.chronicle_spill_path is not None and self.chronicle_capacity is None:
            raise ConfigurationError(
                "chronicle_spill_path requires chronicle_capacity (intervals "
                "spill only when the ring evicts)"
            )
        if self.server_id_offset < 0:
            raise ConfigurationError(
                f"server_id_offset must be >= 0, got {self.server_id_offset}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Everything one run produces.

    ``chronicles`` is populated only when the config asked for
    recording (one entry per server, in server order).
    """

    strategy_name: str
    metrics: SimulationMetrics
    outcomes: tuple[JobOutcome, ...]
    per_server_busy_j: tuple[float, ...]
    per_server_idle_j: tuple[float, ...]
    n_servers: int
    chronicles: tuple = ()
    #: What the fault schedule actually did (empty without faults);
    #: one :class:`repro.faults.FaultRecord` per timeline entry.
    fault_log: tuple = ()
    #: Per-server carbon mass (gCO2) / energy cost, populated only when
    #: the config carried temporal signals (empty tuples otherwise).
    per_server_carbon_g: tuple = ()
    per_server_cost: tuple = ()

    @property
    def energy_j(self) -> float:
        return self.metrics.energy_j

    @property
    def makespan_s(self) -> float:
        return self.metrics.makespan_s

    @property
    def sla_violation_pct(self) -> float:
        return self.metrics.sla_violation_pct


class _JobTracker:
    """Mutable per-job completion bookkeeping."""

    __slots__ = ("job", "vms", "unfinished", "completion_s")

    def __init__(self, job: PreparedJob, vms: list[SimVM]):
        self.job = job
        self.vms = vms
        self.unfinished = len(vms)
        self.completion_s = float("nan")


class DatacenterSimulator:
    """Simulates one (trace, strategy) combination on a cluster.

    ``obs`` (see :mod:`repro.obs`) instruments the run: a ``sim.run``
    root span, one ``sim.job`` span per job (arrival to completion,
    in sim time), ``sim.place`` points, queue-depth and powered-server
    gauges, deterministic sim-time histograms (queue wait, job
    response) and a volatile wall-clock histogram of per-placement
    strategy latency.  ``None`` resolves the process-local default,
    which is the no-op bundle unless one was installed.
    """

    #: The server and cluster-state types the event loop builds; the
    #: test oracle (``tests/oracles/sim.py``) names its naive ones here.
    _server_type = ServerRuntime
    _cluster_type = ClusterState

    def __init__(self, config: DatacenterConfig, obs: Observability | None = None):
        self._config = config
        self._obs = obs

    @property
    def config(self) -> DatacenterConfig:
        return self._config

    def run(
        self,
        jobs: Sequence[PreparedJob],
        strategy: AllocationStrategy,
        qos: QoSPolicy,
        faults: FaultSchedule | None = None,
    ) -> SimulationResult:
        """Run the simulation to completion and aggregate metrics.

        Parameters
        ----------
        faults:
            Optional materialized fault timeline (see
            :func:`repro.faults.materialize`).  Crashed servers evict
            their VMs, which restart from scratch via the strategy's
            :meth:`~repro.strategies.base.AllocationStrategy.reallocate`
            hook; the run's :class:`~repro.faults.FaultRecord` log lands
            on ``SimulationResult.fault_log``.  ``None`` or an empty
            schedule leaves every code path of the fault-free simulation
            untouched.

        Raises
        ------
        SimulationError
            If some job can never be placed (queue deadlock with an
            empty cluster -- the strategy rejects the job even with
            everything idle), to fail loudly instead of looping.  With
            faults the idle-cluster check is deferred until no failed
            server or pending fault event could still change capacity.
        """
        path = self._config.chronicle_spill_path
        # The spill outlives the event loop (final syncs may still
        # record) and closes on every exit, so a failed run neither
        # leaks the handle nor loses buffered lines.
        with ChronicleSpill(path) if path is not None else nullcontext() as spill:
            return self._simulate(jobs, strategy, qos, faults, spill)

    def _simulate(
        self,
        jobs: Sequence[PreparedJob],
        strategy: AllocationStrategy,
        qos: QoSPolicy,
        faults: FaultSchedule | None,
        spill: ChronicleSpill | None,
    ) -> SimulationResult:
        obs = self._obs if self._obs is not None else get_observability()
        enabled = obs.enabled
        tracer = obs.tracer
        if enabled:
            registry = obs.registry
            label = {"strategy": strategy.name}
            c_arrived = registry.counter("sim.jobs_arrived", **label)
            c_placed = registry.counter("sim.jobs_placed", **label)
            c_completed = registry.counter("sim.jobs_completed", **label)
            c_vms = registry.counter("sim.vms_placed", **label)
            c_attempts = registry.counter("sim.place_attempts", **label)
            c_rejected = registry.counter("sim.place_rejections", **label)
            c_backfilled = registry.counter("sim.jobs_backfilled", **label)
            g_queue = registry.gauge("sim.queue_depth", **label)
            g_powered = registry.gauge("sim.powered_servers", **label)
            h_wait = registry.histogram("sim.queue_wait_s", unit="s", **label)
            h_response = registry.histogram("sim.job_response_s", unit="s", **label)
            h_place = registry.histogram(
                "sim.place_latency_s", unit="s", volatile=True, **label
            )

        config = self._config
        # A run has one spec and one set of params, so every server
        # shares one mix-physics memo, multiplying the hit rate by the
        # cluster size, and the kind registry its keys are coded in.
        mix_cache: dict = {}
        kinds = KindRegistry()
        servers = [
            self._server_type(
                server_id=f"s{config.server_id_offset + i:04d}",
                spec=config.server_spec,
                params=config.params,
                power_off_when_empty=config.power_off_when_empty,
                record_chronicle=config.record_chronicles,
                chronicle_capacity=config.chronicle_capacity,
                chronicle_spill=spill,
                mix_cache=mix_cache,
                kinds=kinds,
                signals=config.signals,
            )
            for i in range(config.n_servers)
        ]
        server_index = {server.server_id: i for i, server in enumerate(servers)}

        ordered_jobs = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        trackers: list[_JobTracker] = []
        for job in ordered_jobs:
            deadline = qos.deadline_for(job.workload_class, job.submit_time_s)
            vms = [
                SimVM(
                    vm_id=f"j{job.job_id}-{k}",
                    job_id=job.job_id,
                    workload_class=job.workload_class,
                    submit_time_s=job.submit_time_s,
                    deadline_s=deadline,
                )
                for k in range(job.n_vms)
            ]
            trackers.append(_JobTracker(job, vms))

        vm_to_tracker: dict[str, _JobTracker] = {
            vm.vm_id: tracker for tracker in trackers for vm in tracker.vms
        }

        events: EventQueue[_Event] = EventQueue()
        for index, tracker in enumerate(trackers):
            events.schedule(tracker.job.submit_time_s, ("arrival", index, 0))

        fault_timeline = faults.timeline if faults is not None else ()
        if faults is not None:
            faults.validate_servers(config.n_servers)
        for findex, entry in enumerate(fault_timeline):
            events.schedule(entry.time_s, ("fault", findex, 0))
        faults_remaining = len(fault_timeline)
        fault_log: list[FaultRecord] = []
        #: Evicted VM groups (one per job) awaiting re-placement, FIFO.
        realloc_queue: deque[tuple[_JobTracker, list[SimVM]]] = deque()

        boundary_tokens = [0] * len(servers)
        queue: deque[_JobTracker] = deque()
        outcomes: list[JobOutcome] = []
        max_queue_length = 0
        run_span = tracer.start(
            "sim.run",
            t_sim=0.0,
            strategy=strategy.name,
            n_servers=config.n_servers,
            n_jobs=len(ordered_jobs),
        )
        job_spans: dict[int, object] = {}

        # One spec per run: every view carries its slot counts.
        max_vms = config.server_spec.max_vms
        cpu_slots = int(config.server_spec.capacity(Subsystem.CPU))

        def make_view(slot: int) -> ServerView:
            server = servers[slot]
            return ServerView(
                server_id=server.server_id,
                mix=server.mix_key(),
                max_vms=max_vms,
                cpu_slots=cpu_slots,
                powered_on=server.powered_on,
            )

        cluster = self._cluster_type(servers, make_view)

        def schedule_boundary(index: int, now: float) -> None:
            boundary = servers[index].next_boundary(now)
            if boundary is None:
                return
            boundary_tokens[index] += 1
            events.schedule(boundary, ("boundary", index, boundary_tokens[index]))

        def place_group(
            tracker: _JobTracker, vms: list[SimVM], now: float, replacing: bool
        ) -> bool:
            """The one placement step, for a queued job's VMs and for a
            group a fault evicted (``replacing``); True when placed.

            The VMs are added in group order, each server synced once,
            before its first VM; the touched servers' boundaries are
            then scheduled, and VMs the syncs found finished are
            completed last.
            """
            descriptors = [
                VMDescriptor(
                    vm_id=vm.vm_id,
                    workload_class=vm.workload_class,
                    remaining_deadline_s=(
                        None
                        if math.isinf(vm.deadline_s)
                        else max(vm.deadline_s - now, 0.0)
                    ),
                )
                for vm in vms
            ]
            if replacing:
                placement = ask_reallocate(tracker, vms, descriptors, now)
            else:
                placement = ask_place(tracker, descriptors, now)
            if placement is None:
                return False
            missing = {vm.vm_id for vm in vms} - set(placement)
            if missing:
                raise SimulationError(
                    f"strategy {strategy.name} returned a partial "
                    f"{'re-placement' if replacing else 'placement'} "
                    f"(missing {sorted(missing)})"
                )
            touched: set[int] = set()
            finished_during_sync: list[SimVM] = []
            for vm in vms:
                index = server_index[placement[vm.vm_id]]
                server = servers[index]
                if index not in touched:
                    touched.add(index)
                    # A sync at placement time can surface VMs that
                    # complete exactly now; they must not be dropped.
                    # A second sync at the same instant would be empty.
                    finished_during_sync.extend(server.sync(now))
                server.add_vm(vm, now)
                if replacing and server.chronicle is not None:
                    server.chronicle.note(now, "replace", vm.vm_id)
            for index in touched:
                schedule_boundary(index, now)
            if finished_during_sync:
                complete_vms(finished_during_sync, now)
            return True

        def ask_place(
            tracker: _JobTracker, descriptors: list[VMDescriptor], now: float
        ) -> dict | None:
            """Ask the strategy to place a queued job, counting the
            attempt and its outcome."""
            if enabled:
                c_attempts.inc()
                # Real wall latency of strategy.place() for the obs
                # histogram only; simulated time (`now`) never sees it.
                # repro: allow determinism-wallclock, determinism-taint -- obs-only measurement
                wall0 = time.perf_counter()
            placement = strategy.place(descriptors, cluster.views())
            if not enabled:
                return placement
            h_place.observe(time.perf_counter() - wall0)  # repro: allow determinism-wallclock -- obs-only
            if placement is None:
                c_rejected.inc()
                return None
            c_placed.inc()
            c_vms.inc(len(tracker.vms))
            h_wait.observe(now - tracker.job.submit_time_s)
            if tracer.enabled:
                tracer.point(
                    "sim.place",
                    t_sim=now,
                    job_id=tracker.job.job_id,
                    n_vms=len(tracker.vms),
                    wait_s=now - tracker.job.submit_time_s,
                    servers=sorted(set(placement.values())),
                )
            return placement

        def ask_reallocate(
            tracker: _JobTracker,
            group: list[SimVM],
            descriptors: list[VMDescriptor],
            now: float,
        ) -> dict | None:
            """Ask the strategy to re-place an evicted group, counting
            the re-placement."""
            placement = strategy.reallocate(descriptors, cluster.views())
            if placement is not None and enabled:
                registry.counter(FAULTS_REALLOCATIONS, **label).inc(len(group))
                if tracer.enabled:
                    tracer.point(
                        "sim.fault.replace",
                        t_sim=now,
                        job_id=tracker.job.job_id,
                        n_vms=len(group),
                        servers=sorted(set(placement.values())),
                    )
            return placement

        def drain_queue(now: float) -> None:
            nonlocal max_queue_length
            while queue:
                if place_group(queue[0], queue[0].vms, now, False):
                    queue.popleft()
                    continue
                if cluster.idle() and faults_remaining == 0 and not realloc_queue:
                    # With a failed server or faults still pending,
                    # capacity may yet return; the end-of-run unfinished
                    # check is the backstop against a silent hang.
                    raise UnplaceableJobError(queue[0].job.job_id, strategy.name)
                # Head blocked: optionally backfill a bounded window of
                # later jobs (EASY-style; placing them cannot unblock
                # the head, so one pass suffices).
                window = config.backfill_window
                index = 1
                scanned = 0
                while window > 0 and index < len(queue) and scanned < window:
                    if place_group(queue[index], queue[index].vms, now, False):
                        del queue[index]
                        if enabled:
                            c_backfilled.inc()
                    else:
                        index += 1
                    scanned += 1
                break
            max_queue_length = max(max_queue_length, len(queue))
            if enabled:
                g_queue.set(len(queue))

        def complete_vms(finished: list[SimVM], now: float) -> None:
            for vm in finished:
                vm.finish(now)
                tracker = vm_to_tracker[vm.vm_id]
                tracker.unfinished -= 1
                if tracker.unfinished == 0:
                    tracker.completion_s = now
                    outcomes.append(
                        JobOutcome(
                            job_id=tracker.job.job_id,
                            workload_class=tracker.job.workload_class.value,
                            n_vms=tracker.job.n_vms,
                            submit_time_s=tracker.job.submit_time_s,
                            completion_time_s=now,
                            deadline_s=vm.deadline_s,
                        )
                    )
                    if enabled:
                        c_completed.inc()
                        h_response.observe(now - tracker.job.submit_time_s)
                        span = job_spans.pop(tracker.job.job_id, None)
                        if span is not None:
                            span.end(
                                t_sim=now,
                                missed_deadline=now > vm.deadline_s,
                            )

        def respawn(vm: SimVM) -> tuple[SimVM, float]:
            """Fresh restart of an evicted/aborted VM.

            A crash loses the VM's progress; the replacement keeps the
            identity (vm_id, deadline) so QoS accounting and chronicle
            audits see one logical VM, restarted.  Returns the fresh VM
            and the discarded seconds-of-solo-work.
            """
            total = vm.benchmark.serial_time_s + vm.benchmark.work_time_s
            lost = total - sum(vm.remaining)
            fresh = SimVM(
                vm_id=vm.vm_id,
                job_id=vm.job_id,
                workload_class=vm.workload_class,
                submit_time_s=vm.submit_time_s,
                deadline_s=vm.deadline_s,
                benchmark=vm.benchmark,
            )
            tracker = vm_to_tracker[vm.vm_id]
            for i, existing in enumerate(tracker.vms):
                if existing is vm:
                    tracker.vms[i] = fresh
                    break
            else:  # pragma: no cover - tracker bookkeeping invariant
                raise SimulationError(f"VM {vm.vm_id!r} missing from its tracker")
            return fresh, lost

        def drain_realloc(now: float) -> None:
            """Re-place evicted VM groups FIFO; stop at the first the
            strategy cannot host (retried at the next state change)."""
            while realloc_queue:
                tracker, group = realloc_queue[0]
                if not place_group(tracker, group, now, True):
                    break
                realloc_queue.popleft()

        def drain_all(now: float) -> None:
            drain_realloc(now)
            drain_queue(now)

        def server_fault(entry: ScheduledFault, now: float) -> _FaultOutcome:
            """A crash, recovery, or slowdown start or end: each checks
            the server's state, syncs it, acts, refreshes its boundary,
            completes the VMs the sync finished and notes the chronicle."""
            action = entry.action
            server = servers[entry.server]
            note, noop = _SERVER_FAULTS[action]
            if server.failed != (action is FaultAction.RECOVER):
                # A crash reset any slowdown factor, so a slowdown
                # ending on a failed server is moot.
                return False, noop, (), 0.0
            finished = server.sync(now)
            vm_ids: tuple[str, ...] = ()
            lost_total = 0.0
            detail = ""
            if action is FaultAction.CRASH:
                evicted = server.fail(now)
                # Nothing left to predict: only invalidate.
                boundary_tokens[entry.server] += 1
                vm_ids = tuple(vm.vm_id for vm in evicted)
                groups: dict[int, list[SimVM]] = {}
                for vm in evicted:
                    fresh, lost = respawn(vm)
                    lost_total += lost
                    groups.setdefault(vm.job_id, []).append(fresh)
                for group in groups.values():
                    realloc_queue.append((vm_to_tracker[group[0].vm_id], group))
                detail = f"evicted={len(evicted)}"
            elif action is FaultAction.RECOVER:
                server.recover(now)
            elif action is FaultAction.SLOWDOWN_START:
                server.set_slowdown(entry.factor, now)
                schedule_boundary(entry.server, now)
                detail = f"factor={entry.factor}"
            else:  # SLOWDOWN_END
                server.clear_slowdown(now)
                schedule_boundary(entry.server, now)
            if finished:
                complete_vms(finished, now)
            if server.chronicle is not None:
                server.chronicle.note(now, note, detail)
            return True, "", vm_ids, lost_total

        def abort_vm(vm_id: str, now: float) -> _FaultOutcome:
            """One VM abort; restarts the VM through re-placement."""
            tracker = vm_to_tracker.get(vm_id)
            victim = None
            if tracker is not None:
                for vm in tracker.vms:
                    if vm.vm_id == vm_id:
                        victim = vm
                        break
            if victim is None:
                return False, "unknown VM", (), 0.0
            if victim.state is not VMState.RUNNING:
                return False, f"VM is {victim.state.value}", (), 0.0
            sidx = server_index[victim.server_id]
            finished = servers[sidx].sync(now)
            if victim.done:
                schedule_boundary(sidx, now)
                complete_vms(finished, now)
                return False, "completed at abort time", (), 0.0
            servers[sidx].detach_vm(victim, now)
            boundary_tokens[sidx] += 1
            schedule_boundary(sidx, now)
            if finished:
                complete_vms(finished, now)
            fresh, lost = respawn(victim)
            assert tracker is not None
            realloc_queue.append((tracker, [fresh]))
            if servers[sidx].chronicle is not None:
                servers[sidx].chronicle.note(now, "abort", victim.vm_id)
            return True, "", (victim.vm_id,), lost

        def handle_fault(entry: ScheduledFault, now: float) -> None:
            if entry.action is FaultAction.ABORT_VM:
                target = entry.vm
                applied, detail, vm_ids, lost_total = abort_vm(entry.vm, now)
            else:
                target = servers[entry.server].server_id
                applied, detail, vm_ids, lost_total = server_fault(entry, now)
            fault_log.append(
                FaultRecord(
                    time_s=now,
                    kind=entry.action.value,
                    target=target,
                    vm_ids=vm_ids,
                    lost_work_s=lost_total,
                    applied=applied,
                    detail=detail,
                )
            )
            if enabled and applied:
                registry.counter(FAULTS_INJECTED, **label).inc()
                if tracer.enabled:
                    tracer.point(
                        "sim.fault",
                        t_sim=now,
                        action=entry.action.value,
                        target=target,
                        n_evicted=len(vm_ids),
                    )

        while events:
            now, (kind, index, token) = events.pop()
            if kind == "arrival":
                tracker = trackers[index]
                queue.append(tracker)
                max_queue_length = max(max_queue_length, len(queue))
                if enabled:
                    c_arrived.inc()
                    g_queue.set(len(queue))
                    if tracer.enabled:
                        job_spans[tracker.job.job_id] = tracer.start(
                            "sim.job",
                            t_sim=now,
                            detached=True,
                            job_id=tracker.job.job_id,
                            workload_class=tracker.job.workload_class.value,
                            n_vms=tracker.job.n_vms,
                        )
                drain_all(now)
                if enabled:
                    g_powered.set(cluster.powered_count())
            elif kind == "fault":
                faults_remaining -= 1
                handle_fault(fault_timeline[index], now)
                drain_all(now)
                if enabled:
                    g_powered.set(cluster.powered_count())
            else:  # boundary
                if token != boundary_tokens[index]:
                    continue  # stale prediction: the mix changed since
                finished = servers[index].sync(now)
                schedule_boundary(index, now)
                if finished:
                    complete_vms(finished, now)
                    drain_all(now)
                    if enabled:
                        g_powered.set(cluster.powered_count())

        if queue or realloc_queue or any(tracker.unfinished for tracker in trackers):
            stuck = [t.job.job_id for t in trackers if t.unfinished]
            raise SimulationError(f"simulation ended with unfinished jobs: {stuck[:10]}")

        end_time = max((o.completion_time_s for o in outcomes), default=0.0)
        for server in servers:
            # A fault handled after the last completion may have synced
            # its server past end_time; never rewind.
            server.sync(max(end_time, server.last_sync_s))

        if enabled:
            g_queue.set(0)
            g_powered.set(cluster.powered_count())
            registry.gauge("sim.max_queue_length", **label).set(max_queue_length)
        run_span.end(
            t_sim=end_time,
            n_outcomes=len(outcomes),
            max_queue_length=max_queue_length,
        )

        energies = [server.energy() for server in servers]
        busy_j = tuple(energy.busy_j for energy in energies)
        idle_j = tuple(energy.idle_j for energy in energies)
        if config.signals is not None:
            per_carbon_g = tuple(server.carbon_g() for server in servers)
            per_cost = tuple(server.cost() for server in servers)
            carbon_g = sum(per_carbon_g)
            cost = sum(per_cost)
            if enabled:
                registry.counter("carbon.grams", **label).inc(carbon_g)
                registry.counter("cost.currency", **label).inc(cost)
        else:
            per_carbon_g = per_cost = ()
            carbon_g = 0.0
            cost = 0.0
        metrics = compute_metrics(
            outcomes,
            energy_busy_j=sum(busy_j),
            energy_idle_j=sum(idle_j),
            max_queue_length=max_queue_length,
            carbon_g=carbon_g,
            cost=cost,
        )
        return SimulationResult(
            strategy_name=strategy.name,
            metrics=metrics,
            outcomes=tuple(outcomes),
            per_server_busy_j=busy_j,
            per_server_idle_j=idle_j,
            n_servers=len(servers),
            chronicles=(
                tuple(s.chronicle for s in servers)
                if config.record_chronicles
                else ()
            ),
            fault_log=tuple(fault_log),
            per_server_carbon_g=per_carbon_g,
            per_server_cost=per_cost,
        )

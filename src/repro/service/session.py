"""Multi-tenant allocation sessions: the deterministic half of the service.

A :class:`Session` owns one tenant's datacenter view -- a list of
:class:`~repro.core.allocator.ServerState` plus the placements made so
far -- and admits a *stream* of VM requests instead of one batch.  The
design constraint is the repo's headline property, extended to the
service: **the sequence of admitted requests alone determines every
plan**, independent of how clients chunked the stream into HTTP calls.

That rules out time-based coalescing.  Batches are cut by *admission
ordinal*: every ``coalesce`` admitted requests form one window, and a
window is handed to :class:`~repro.core.allocator.ProactiveAllocator`
exactly when it completes (or at an explicit flush, which also
allocates the partial tail).  Whether the requests arrived one per
call or a thousand per call, the windows -- and therefore the plans --
are bit-identical to the equivalent one-shot allocator calls (pinned
in ``tests/service/test_session.py``).

Backpressure is a hard bound on unallocated admissions
(``max_queue``); exceeding it raises
:class:`~repro.common.errors.BackpressureError`, which the HTTP layer
maps to 429.  Fault-spec application (server crashes evicting and
re-queueing resident VMs, FIFO) reuses the PR 5 vocabulary:
:func:`repro.faults.schedule.materialize` expands the spec into the
same deterministic timeline the simulator would see.

Everything here is synchronous and wall-clock free; the asyncio
batching loop and all latency measurement live in
:mod:`repro.service.server`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Mapping, Sequence

from repro.common.errors import (
    AllocationError,
    BackpressureError,
    ConfigurationError,
    ModelLookupError,
    SchemaError,
)
from repro.common.validation import (
    parse_alpha,
    parse_count,
    parse_time_budget,
)
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.model import ModelDatabase
from repro.faults.schedule import FaultAction, materialize
from repro.faults.spec import FaultRecord, FaultSpec
from repro.obs.registry import MetricsRegistry
import repro.service.schema as schema
from repro.testbed.benchmarks import WorkloadClass

#: Index into a (ncpu, nmem, nio) mix per workload class.
_CLASS_INDEX = {WorkloadClass.CPU: 0, WorkloadClass.MEM: 1, WorkloadClass.IO: 2}


@dataclass(frozen=True)
class SessionConfig:
    """One tenant's datacenter shape and allocation policy.

    The wire form (``POST /v1/sessions`` body) is
    ``EvaluationConfig``-shaped: a server count plus the allocation
    knobs.  Validation routes through the same
    :mod:`repro.common.validation` parsers the CLI flags use, so a bad
    ``alpha`` in a session body carries the exact message ``repro
    allocate --alpha`` would print.
    """

    n_servers: int = 4
    alpha: float = 0.5
    coalesce: int = 8
    max_queue: int = 1024
    strict_qos: bool = False
    time_budget_s: float | None = None
    max_vms_per_server: int | None = None

    def __post_init__(self) -> None:
        parse_count("n_servers", self.n_servers)
        parse_alpha(self.alpha)
        parse_count("coalesce", self.coalesce)
        parse_count("max_queue", self.max_queue)
        if self.time_budget_s is not None:
            parse_time_budget(self.time_budget_s)
        if self.max_vms_per_server is not None:
            parse_count("max_vms_per_server", self.max_vms_per_server)
        if self.coalesce > self.max_queue:
            raise ValueError(
                f"coalesce ({self.coalesce}) must not exceed max_queue "
                f"({self.max_queue}); a window could never fill"
            )

    @classmethod
    def from_document(cls, document) -> "SessionConfig":
        """Build from a session-creation body (unknown keys rejected)."""
        if not isinstance(document, Mapping):
            raise SchemaError(
                f"session config must be a JSON object, got {type(document).__name__}"
            )
        unknown = set(document) - set(_CONFIG_FIELDS) - {"schema_version"}
        if unknown:
            raise SchemaError(f"session config: unknown keys {sorted(unknown)}")
        values = {name: document[name] for name in _CONFIG_FIELDS if name in document}
        for flag in ("strict_qos",):
            if flag in values and not isinstance(values[flag], bool):
                raise SchemaError(
                    f"session config: {flag!r} must be a boolean, got {values[flag]!r}"
                )
        # The CLI parsers below accept strings (they read argv); a JSON
        # body must carry real numbers, so bool and str stop here.
        for name in ("alpha", "time_budget_s"):
            if values.get(name) is not None:
                values[name] = schema.NUMBER.decode(values[name], name, "session config")
        try:
            return cls(**values)
        except ValueError as error:
            if isinstance(error, SchemaError):
                raise
            raise SchemaError(f"session config: {error}") from None

    def to_document(self) -> dict:
        return schema.stamp({name: getattr(self, name) for name in _CONFIG_FIELDS})


_CONFIG_FIELDS = tuple(field.name for field in fields(SessionConfig))


@dataclass(frozen=True)
class BatchRecord:
    """One coalesced window's outcome: a plan or a recorded failure.

    ``index`` is the batch ordinal within the session; ``first_ordinal``
    is the admission ordinal of the window's first request (latency
    attribution in the server layer keys off it).  Exactly one of
    ``plan`` / ``error`` is set: an infeasible or QoS-failing window is
    *recorded*, not retried -- its requests are dropped from the
    session and reported to the client, never silently re-queued (a
    wedged window would otherwise block the stream forever).
    """

    index: int
    first_ordinal: int
    vm_ids: tuple[str, ...]
    plan: object | None = None
    error: "tuple[str, str] | None" = None

    def to_document(self) -> dict:
        return schema.stamp(
            {
                "batch": self.index,
                "first_ordinal": self.first_ordinal,
                "vm_ids": list(self.vm_ids),
                "plan": schema.plan_document(self.plan) if self.plan is not None else None,
                "error": (
                    {"code": self.error[0], "message": self.error[1]}
                    if self.error is not None
                    else None
                ),
            }
        )


@dataclass(frozen=True)
class _Placement:
    """Where one admitted VM currently runs (for eviction/re-queue)."""

    vm_id: str
    server_id: str
    workload_class: WorkloadClass
    max_exec_time_s: float | None = None


@dataclass(frozen=True)
class _ServerEntry:
    """One server of a snapshot: its id, current mix and failure flag."""

    server_id: str
    allocated: "tuple[int, int, int]"
    failed: bool = False


@dataclass(frozen=True)
class _Snapshot:
    """A session's state, as snapshots carry it (the id travels apart)."""

    config: SessionConfig
    servers: "tuple[_ServerEntry, ...]"
    pending: "tuple[VMRequest, ...]"
    placements: "tuple[_Placement, ...]"
    admitted_total: int
    next_ordinal: int
    batches_completed: int


def _placement_class(value, path: str, kind: str) -> WorkloadClass:
    try:
        return WorkloadClass(value)
    except ValueError:
        raise SchemaError(
            f"{kind} document: {path.rpartition('.')[0]} has unknown "
            f"workload_class {value!r}"
        ) from None


_SERVER_ENTRY = schema.Wire(
    _ServerEntry,
    {"server_id": schema.STRING, "allocated": schema.MIX, "failed": schema.BOOLEAN},
)
_PLACEMENT = schema.Wire(
    _Placement,
    {"vm_id": schema.STRING, "server_id": schema.STRING,
     # An absent class reads as null: an unknown one.
     "workload_class": schema.Codec(_placement_class, attrgetter("value"), absent=None),
     "max_exec_time_s": schema.DEADLINE},
)
_SNAPSHOT = schema.Wire(
    _Snapshot,
    {"config": schema.mapping(SessionConfig.from_document, SessionConfig.to_document),
     "servers": schema.array(_SERVER_ENTRY), "pending": schema.REQUEST_DOCUMENTS,
     "placements": schema.array(_PLACEMENT), "admitted_total": schema.INTEGER,
     "next_ordinal": schema.INTEGER, "batches_completed": schema.INTEGER},
    kind="session_state",
)


class Session:
    """One tenant's streaming-allocation state machine.

    All methods are synchronous and deterministic; the server's
    single-threaded event loop calls them without locking (no method
    yields control mid-mutation).
    """

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        database: ModelDatabase,
        registry: MetricsRegistry | None = None,
    ):
        self.session_id = session_id
        self.config = config
        self._database = database
        self._registry = registry
        self._allocator = ProactiveAllocator(
            database,
            alpha=config.alpha,
            strict_qos=config.strict_qos,
            time_budget_s=config.time_budget_s,
        )
        self._server_order: list[str] = [f"s{i}" for i in range(config.n_servers)]
        self._servers: dict[str, ServerState] = {
            server_id: ServerState(server_id, max_vms=config.max_vms_per_server)
            for server_id in self._server_order
        }
        self._failed: set[str] = set()
        self._pending: deque[VMRequest] = deque()
        self._known_vms: set[str] = set()
        self._placements: dict[str, _Placement] = {}
        self._admitted_total = 0
        self._next_ordinal = 0  # admission ordinal of the pending window head
        self._batch_index_base = 0  # batches completed before a restore
        self.batches: list[BatchRecord] = []
        self.fault_log: list[FaultRecord] = []

    # -- admission -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Admitted-but-unallocated requests (the backpressure quantity)."""
        return len(self._pending)

    @property
    def admitted_total(self) -> int:
        return self._admitted_total

    def admit(self, requests: Sequence[VMRequest]) -> int:
        """Append requests to the admission queue; returns the count.

        All-or-nothing: a duplicate ``vm_id`` or a full queue rejects
        the entire call without admitting a prefix, so clients can
        retry the whole body safely.
        """
        if not requests:
            raise SchemaError("admission body: 'requests' must not be empty")
        if len(self._pending) + len(requests) > self.config.max_queue:
            raise BackpressureError(
                f"session {self.session_id}: admission queue is full "
                f"({self.queue_depth} pending + {len(requests)} offered > "
                f"max_queue {self.config.max_queue}); retry after the "
                f"batching loop drains"
            )
        fresh: set[str] = set()
        for request in requests:
            if request.vm_id in self._known_vms or request.vm_id in fresh:
                raise SchemaError(
                    f"admission body: vm_id {request.vm_id!r} was already "
                    f"admitted to session {self.session_id}"
                )
            fresh.add(request.vm_id)
        self._pending.extend(requests)
        self._known_vms |= fresh
        self._admitted_total += len(requests)
        if self._registry is not None:
            self._registry.counter("service.requests.admitted").inc(len(requests))
            self._registry.gauge(
                "service.queue_depth", session=self.session_id
            ).set(self.queue_depth)
        return len(requests)

    # -- coalescing ----------------------------------------------------

    def window_ready(self) -> bool:
        """Whether a full coalescing window is waiting to be allocated."""
        return len(self._pending) >= self.config.coalesce

    def run_ready_batches(self) -> "list[BatchRecord]":
        """Allocate every complete window (the batching loop's drain step)."""
        records: list[BatchRecord] = []
        while self.window_ready():
            records.append(self._allocate_window(self.config.coalesce))
        return records

    def flush(self) -> "list[BatchRecord]":
        """Allocate all complete windows, then the partial tail (if any)."""
        records = self.run_ready_batches()
        if self._pending:
            records.append(self._allocate_window(len(self._pending)))
        return records

    def _allocate_window(self, size: int) -> BatchRecord:
        batch = [self._pending.popleft() for _ in range(size)]
        first_ordinal = self._next_ordinal
        self._next_ordinal += size
        eligible = [
            self._servers[server_id]
            for server_id in self._server_order
            if server_id not in self._failed
        ]
        vm_ids = tuple(request.vm_id for request in batch)
        try:
            plan = self._allocator.allocate(batch, eligible)
        except (AllocationError, ModelLookupError) as error:
            # The window is recorded as failed and its requests dropped;
            # re-queueing would wedge the stream on the same error.
            for request in batch:
                self._known_vms.discard(request.vm_id)
            record = BatchRecord(
                index=self._batch_index_base + len(self.batches),
                first_ordinal=first_ordinal,
                vm_ids=vm_ids,
                error=("infeasible", str(error)),
            )
            self.batches.append(record)
            self._note_batch(record, len(batch))
            return record
        by_id = {request.vm_id: request for request in batch}
        for assignment in plan.assignments:
            server = self._servers[assignment.server_id]
            self._servers[assignment.server_id] = replace(
                server, allocated=assignment.combined_key
            )
            for vm_id in assignment.vm_ids:
                request = by_id[vm_id]
                self._placements[vm_id] = _Placement(
                    vm_id=vm_id,
                    server_id=assignment.server_id,
                    workload_class=request.workload_class,
                    max_exec_time_s=request.max_exec_time_s,
                )
        record = BatchRecord(
            index=self._batch_index_base + len(self.batches),
            first_ordinal=first_ordinal,
            vm_ids=vm_ids,
            plan=plan,
        )
        self.batches.append(record)
        self._note_batch(record, len(batch))
        return record

    def _note_batch(self, record: BatchRecord, size: int) -> None:
        if self._registry is None:
            return
        self._registry.counter("service.batches").inc()
        if record.error is not None:
            self._registry.counter("service.batch_failures").inc()
        self._registry.histogram("service.batch_size", unit="vms").observe(size)
        self._registry.gauge(
            "service.queue_depth", session=self.session_id
        ).set(self.queue_depth)

    # -- fault application ---------------------------------------------

    def apply_faults(self, spec: FaultSpec) -> "list[FaultRecord]":
        """Apply a fault spec to the live session (chaos endpoint).

        The spec expands through the same
        :func:`~repro.faults.schedule.materialize` timeline the
        simulator consumes -- explicit events plus the seeded random
        clause, ordered by ``(time_s, declaration order)``.  Sessions
        have no simulated clock, so entries apply in timeline order:
        crashes evict the server's resident VMs back into the admission
        queue (FIFO, deadline preserved, re-queue exempt from the
        backpressure bound -- the VMs were already admitted), recoveries
        return the empty server to the eligible set, and time-extended
        actions (slowdowns) are recorded as not-applied.
        """
        schedule = materialize(spec, len(self._server_order))
        records: list[FaultRecord] = []
        for fault in schedule.timeline:
            records.append(self._apply_fault(fault))
        self.fault_log.extend(records)
        if self._registry is not None and records:
            applied = sum(1 for record in records if record.applied)
            if applied:
                self._registry.counter("service.faults.injected").inc(applied)
            requeued = sum(len(record.vm_ids) for record in records)
            if requeued:
                self._registry.counter("service.faults.requeued_vms").inc(requeued)
            self._registry.gauge(
                "service.queue_depth", session=self.session_id
            ).set(self.queue_depth)
        return records

    def _apply_fault(self, fault) -> FaultRecord:
        if fault.action is FaultAction.CRASH:
            server_id = self._server_order[fault.server]
            if server_id in self._failed:
                return FaultRecord(
                    time_s=fault.time_s,
                    kind="server_crash",
                    target=server_id,
                    applied=False,
                    detail="server already failed",
                )
            self._failed.add(server_id)
            evicted = self._evict(server_id)
            return FaultRecord(
                time_s=fault.time_s,
                kind="server_crash",
                target=server_id,
                vm_ids=evicted,
                detail=f"{len(evicted)} VMs re-queued",
            )
        if fault.action is FaultAction.RECOVER:
            server_id = self._server_order[fault.server]
            if server_id not in self._failed:
                return FaultRecord(
                    time_s=fault.time_s,
                    kind="server_recover",
                    target=server_id,
                    applied=False,
                    detail="server was not failed",
                )
            self._failed.discard(server_id)
            return FaultRecord(
                time_s=fault.time_s, kind="server_recover", target=server_id
            )
        if fault.action is FaultAction.ABORT_VM:
            placement = self._placements.get(fault.vm)
            if placement is None:
                return FaultRecord(
                    time_s=fault.time_s,
                    kind="vm_abort",
                    target=fault.vm,
                    applied=False,
                    detail="VM not placed in this session",
                )
            self._remove_placement(placement)
            self._requeue([placement])
            return FaultRecord(
                time_s=fault.time_s,
                kind="vm_abort",
                target=fault.vm,
                vm_ids=(fault.vm,),
                detail=f"evicted from {placement.server_id}, re-queued",
            )
        # Slowdown start/end: sessions carry no execution clock, so a
        # transient rate change has nothing to act on.  Recorded so the
        # chaos suite can assert the no-op.
        server_id = (
            self._server_order[fault.server] if fault.server is not None else ""
        )
        return FaultRecord(
            time_s=fault.time_s,
            kind=fault.action.value,
            target=server_id,
            applied=False,
            detail="sessions have no execution clock; slowdowns are inert",
        )

    def _evict(self, server_id: str) -> "tuple[str, ...]":
        evicted = [
            placement
            for placement in self._placements.values()
            if placement.server_id == server_id
        ]
        for placement in evicted:
            del self._placements[placement.vm_id]
        self._servers[server_id] = replace(
            self._servers[server_id], allocated=(0, 0, 0)
        )
        self._requeue(evicted)
        return tuple(placement.vm_id for placement in evicted)

    def _remove_placement(self, placement: _Placement) -> None:
        server = self._servers[placement.server_id]
        index = _CLASS_INDEX[placement.workload_class]
        mix = list(server.allocated)
        mix[index] -= 1
        self._servers[placement.server_id] = replace(
            server, allocated=(mix[0], mix[1], mix[2])
        )
        del self._placements[placement.vm_id]

    def _requeue(self, placements: Sequence[_Placement]) -> None:
        # FIFO re-allocation, mirroring the simulator: evicted VMs go to
        # the back of the admission queue with identity and deadline
        # preserved.  Deliberately exempt from max_queue -- these VMs
        # were admitted once already.
        for placement in placements:
            self._pending.append(
                VMRequest(
                    placement.vm_id,
                    placement.workload_class,
                    placement.max_exec_time_s,
                )
            )

    # -- snapshot / restore --------------------------------------------

    def state_document(self) -> dict:
        """The session's full state as one wire document (``GET .../state``)."""
        snapshot = _Snapshot(
            config=self.config,
            servers=tuple(
                _ServerEntry(
                    server_id, self._servers[server_id].allocated, server_id in self._failed
                )
                for server_id in self._server_order
            ),
            pending=tuple(self._pending),
            placements=tuple(self._placements.values()),
            admitted_total=self._admitted_total,
            next_ordinal=self._next_ordinal,
            batches_completed=self._batch_index_base + len(self.batches),
        )
        return _SNAPSHOT.encode(snapshot, schema.stamp({"session_id": self.session_id}))

    def restore(self, document) -> None:
        """Replace this session's state from a snapshot (``PUT .../state``).

        The snapshot's config replaces the session's; completed batch
        records and the fault log are *not* transported (they are
        history, not state) -- ``batches_completed`` seeds the batch
        index so restored sessions keep monotonic ordinals.
        """
        kind = "session_state"
        snapshot = _SNAPSHOT.decode(document)
        config = snapshot.config
        if len(snapshot.servers) != config.n_servers:
            raise SchemaError(
                f"{kind} document: {len(snapshot.servers)} servers listed but the "
                f"config says n_servers={config.n_servers}"
            )
        servers: dict[str, ServerState] = {}
        for entry in snapshot.servers:
            if entry.server_id in servers:
                raise SchemaError(
                    f"{kind} document: duplicate server_id {entry.server_id!r}"
                )
            try:
                servers[entry.server_id] = ServerState(
                    entry.server_id, allocated=entry.allocated, max_vms=config.max_vms_per_server
                )
            except ConfigurationError as error:
                # A bad server entry is the client's input, not a fault.
                raise SchemaError(str(error)) from None
        for i, placement in enumerate(snapshot.placements):
            if placement.server_id not in servers:
                raise SchemaError(
                    f"{kind} document: placements[{i}] names unknown server "
                    f"{placement.server_id!r}"
                )
        # All validated; commit atomically.
        self.config = config
        self._allocator = ProactiveAllocator(
            self._database,
            alpha=config.alpha,
            strict_qos=config.strict_qos,
            time_budget_s=config.time_budget_s,
        )
        self._server_order = list(servers)
        self._servers = servers
        self._failed = {entry.server_id for entry in snapshot.servers if entry.failed}
        self._pending = deque(snapshot.pending)
        self._placements = {
            placement.vm_id: placement for placement in snapshot.placements
        }
        self._known_vms = set(self._placements) | {
            request.vm_id for request in self._pending
        }
        self._admitted_total = snapshot.admitted_total
        self._next_ordinal = snapshot.next_ordinal
        self.batches = []
        self._batch_index_base = snapshot.batches_completed

    def info_document(self) -> dict:
        """The lightweight session summary (``GET /v1/sessions/{id}``)."""
        return schema.stamp(
            {
                "session_id": self.session_id,
                "queue_depth": self.queue_depth,
                "admitted_total": self._admitted_total,
                "batches_completed": self._batch_index_base + len(self.batches),
                "placements": len(self._placements),
                "failed_servers": sorted(self._failed),
                "config": self.config.to_document(),
            }
        )

"""Per-server runtime state for the datacenter simulation.

A :class:`ServerRuntime` integrates VM progress and energy between mix
changes.  Between two consecutive mix changes (VM arrival, VM finish,
or an init-to-work stage transition) every VM's slowdown and the
server's power draw are constant, so the simulation only needs to
re-evaluate the contention model at those boundaries -- this is the
event-driven equivalent of the paper's interval-weighted accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.campaign.records import MixKey
from repro.common.errors import SimulationError
from repro.sim.vm import SimVM, VMState
from repro.testbed.contention import ContentionParams, KindRecord, MixModel, kind_record
from repro.testbed.power import instantaneous_power
from repro.testbed.spec import SUBSYSTEMS, ServerSpec
from repro.testbed.benchmarks import WorkloadClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.chronicle import ChronicleSpill
    from repro.sim.index import ClusterIndex

_EPSILON_S = 1e-9

#: Mix-physics memo entries per cache before it is wholesale cleared.
#: Clearing only costs recomputation; results are unaffected.  Sized
#: above the working set of a 10k-VM campaign (~9k distinct mix
#: sequences) so steady-state runs never thrash; at a few hundred
#: bytes per entry the worst case stays in the tens of megabytes.
_MIX_CACHE_MAX = 32768


class KindRegistry:
    """Small integer codes for the VM kinds of one run.

    A kind is a ``(benchmark, init stage?)`` pair: it fixes the VM's
    view, hence everything the contention model reads of it.  Codes
    are handed out in order of first sight, and ``records[code]`` is
    the kind's :class:`~repro.testbed.contention.KindRecord`, which
    pins the benchmark, so no ``id`` in the table can be recycled
    onto another spec while the registry lives.  Servers of one spec
    share a registry beside their mix memo (see
    :meth:`ServerRuntime._mix_physics`).
    """

    __slots__ = ("_codes", "records")

    def __init__(self) -> None:
        self._codes: dict[tuple[int, bool], int] = {}
        self.records: list[KindRecord] = []

    def code_of(self, vm: SimVM) -> int:
        """The code of ``vm``'s current kind, interned on first sight."""
        key = (id(vm.benchmark), vm.stage == 0)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.records)
            self.records.append(kind_record(vm.active_view()))
        return code


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy accounting of one server over the simulation."""

    busy_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        return self.busy_j + self.idle_j


class ServerRuntime:
    """One powered server hosting VMs under the contention model.

    Lifecycle contract with the datacenter driver:

    * ``sync(now)`` MUST be called before any mutation (add/remove) so
      progress and energy are integrated up to ``now`` under the
      pre-change mix;
    * after mutations, ``next_boundary(now)`` tells the driver when the
      server next needs attention (stage transition or VM completion);
    * ``epoch`` increments on every mix change, letting the driver
      lazily invalidate stale scheduled events.

    Every state mutation that a placement snapshot can see -- hosting
    or unhosting a VM, a power transition, a crash or recovery -- runs
    through the ``_host``/``_unhost``/``_set_power`` helpers below,
    which notify the bound :class:`~repro.sim.index.ClusterIndex`.
    Funneling the notifications here (rather than at the driver's call
    sites) is what keeps the incremental indexes drift-free: there is
    no second code path that could forget to update a counter.
    """

    def __init__(
        self,
        server_id: str,
        spec: ServerSpec,
        params: ContentionParams | None = None,
        power_off_when_empty: bool = True,
        record_chronicle: bool = False,
        chronicle_capacity: int | None = None,
        chronicle_spill: "ChronicleSpill | None" = None,
        mix_cache: "dict | None" = None,
        kinds: KindRegistry | None = None,
        signals: object | None = None,
    ):
        self.server_id = server_id
        self.spec = spec
        self._model = MixModel(spec, params)
        self._vms: list[SimVM] = []
        self._ncpu = 0
        self._nmem = 0
        self._nio = 0
        self._last_sync_s = 0.0
        self._busy_energy_j = 0.0
        self._idle_energy_j = 0.0
        # Temporal carbon/price signals (duck-typed: fused accrue per
        # repro.ext.carbon.signal.TemporalSignals; sim must not
        # import ext).  sync() is the one place an interval's carbon
        # and cost accrue; the chronicle only records the interval.
        # None keeps the accounting entirely absent, so signal-free
        # runs touch no extra floats.
        self._signals = signals
        self._carbon_g = 0.0
        self._cost = 0.0
        self._power_off_when_empty = power_off_when_empty
        self._powered_since_s: float | None = None  # None = off
        self.epoch = 0
        #: Crashed servers host nothing and draw nothing until recovery
        #: (see repro.faults); all mutations except recover() reject.
        self.failed = False
        self._slowdown_factor = 1.0
        # True while a transient slowdown is set, so unfaulted steps
        # skip scaling the slowdowns (a no-op by 1.0).
        self._slowed = False
        self._cluster: "ClusterIndex | None" = None
        self._slot = -1
        # Mix-physics memo and the kind registry its keys are coded
        # in (see _mix_physics): both may be shared between servers
        # with identical (spec, params); None = private ones.
        self._mix_cache: dict = {} if mix_cache is None else mix_cache
        self._kinds = KindRegistry() if kinds is None else kinds
        # The physics of the current mix (cleared on every mix change),
        # and the kind code of each hosted VM, parallel to _vms (None
        # until the memo is first consulted).
        self._physics: tuple | None = None
        self._codes: list[int] | None = None
        if record_chronicle:
            from repro.sim.chronicle import Chronicle

            self.chronicle: "Chronicle | None" = Chronicle(
                server_id,
                capacity=chronicle_capacity,
                spill=chronicle_spill,
            )
        else:
            self.chronicle = None

    def bind_index(self, cluster: "ClusterIndex", slot: int) -> None:
        """Attach this server to the datacenter's incremental index.

        Folds the current state into the counters, so binding is exact
        regardless of when it happens; afterwards every mutation
        helper notifies ``cluster`` with this server's ``slot``.
        """
        self._cluster = cluster
        self._slot = slot
        cluster.adopt(slot, powered=self.powered_on, n_vms=len(self._vms), failed=self.failed)

    # -- index-notifying mutation helpers ------------------------------

    def _host(self, vm: SimVM) -> None:
        self._vms.append(vm)
        if self._codes is not None:
            self._codes.append(self._kinds.code_of(vm))
        self._physics = None
        cls = vm.workload_class
        if cls is WorkloadClass.CPU:
            self._ncpu += 1
        elif cls is WorkloadClass.MEM:
            self._nmem += 1
        else:
            self._nio += 1
        if self._cluster is not None:
            self._cluster.on_host(self._slot)

    def _unhost(self, vm: SimVM) -> None:
        # By identity: list.remove would run SimVM's field-by-field
        # __eq__ on every VM ahead of the target.
        vms = self._vms
        for i, hosted in enumerate(vms):
            if hosted is vm:
                break
        else:
            raise ValueError(f"VM {vm.vm_id!r} is not hosted")  # detach_vm reports it
        del vms[i]
        if self._codes is not None:
            del self._codes[i]
        self._physics = None
        cls = vm.workload_class
        if cls is WorkloadClass.CPU:
            self._ncpu -= 1
        elif cls is WorkloadClass.MEM:
            self._nmem -= 1
        else:
            self._nio -= 1
        if self._cluster is not None:
            self._cluster.on_unhost(self._slot)

    def _set_power(self, since_s: float | None) -> None:
        was_on = self._powered_since_s is not None
        self._powered_since_s = since_s
        now_on = since_s is not None
        if now_on != was_on and self._cluster is not None:
            self._cluster.on_power(self._slot, now_on)

    # -- views ---------------------------------------------------------

    @property
    def vms(self) -> tuple[SimVM, ...]:
        return tuple(self._vms)

    @property
    def n_vms(self) -> int:
        return len(self._vms)

    @property
    def powered_on(self) -> bool:
        return self._powered_since_s is not None

    @property
    def slowdown_factor(self) -> float:
        """Transient-fault progress multiplier (1.0 = nominal speed)."""
        return self._slowdown_factor

    @property
    def last_sync_s(self) -> float:
        """Sim time up to which progress/energy are integrated."""
        return self._last_sync_s

    def mix_key(self) -> MixKey:
        """Current (Ncpu, Nmem, Nio) counts, maintained incrementally
        by ``_host``/``_unhost`` (O(1), not a VM-list scan)."""
        return (self._ncpu, self._nmem, self._nio)

    def energy(self) -> EnergyBreakdown:
        return EnergyBreakdown(busy_j=self._busy_energy_j, idle_j=self._idle_energy_j)

    def carbon_g(self) -> float:
        """Time-integrated carbon mass (gCO2); 0.0 without signals."""
        return self._carbon_g

    def cost(self) -> float:
        """Time-integrated energy cost; 0.0 without signals."""
        return self._cost

    def current_power_w(self) -> float:
        """Instantaneous draw under the current mix (0 when off)."""
        if not self.powered_on:
            return 0.0
        return self._mix_physics()[2]

    def _mix_physics(self) -> tuple:
        """(slowdowns, loads, power) for the current mix, memoized
        bit-exactly at two levels.

        The contention model is a pure function of the per-VM views,
        and a view is determined by the VM's kind, ``(benchmark, init
        stage?)``.  Physics changes only when the mix does, so the
        first level is this server's entry for its current mix: it is
        returned without building any key, and cleared by ``_host``/
        ``_unhost`` (every placement, finish, eviction, migration and
        crash) and by :meth:`sync` when a VM changes stage.

        The second level is the per-run memo, shared by servers of one
        spec and keyed by the *sequence* of kind codes (``_codes``, one
        per hosted VM in VM order, interned by the shared
        :class:`KindRegistry`), not the multiset: the model sums
        demands in VM-list order, and float addition is
        order-sensitive, so only an order-exact key preserves the
        bit-identity contract with the naive oracle.  The codes are
        interned on the first consultation and then kept current by
        ``_host``/``_unhost`` and the stage change in :meth:`sync`, so
        a lookup only copies the list into a tuple.  A miss is priced
        from the registry's records.

        Slowdowns are cached raw -- callers apply the transient-fault
        ``_slowdown_factor``, which varies independently of the mix.
        """
        physics = self._physics
        if physics is not None:
            return physics
        codes = self._codes
        if codes is None:
            code_of = self._kinds.code_of
            codes = self._codes = [code_of(vm) for vm in self._vms]
        key = tuple(codes)
        cache = self._mix_cache
        physics = cache.get(key)
        if physics is None:
            records = self._kinds.records
            slowdowns, loads = self._model.slowdowns_and_loads([records[c] for c in key])
            power = instantaneous_power(loads, len(key), self.spec.power)
            if len(cache) >= _MIX_CACHE_MAX:
                cache.clear()
            physics = cache[key] = (slowdowns, loads, power)
        self._physics = physics
        return physics

    # -- integration -----------------------------------------------------

    def sync(self, now_s: float) -> list[SimVM]:
        """Integrate progress/energy up to ``now_s``.

        Correct for arbitrary jumps: the integration steps through
        every internal stage boundary (init-to-work transitions and VM
        completions change the mix, hence everyone's rates), re-solving
        the contention model at each.  When the driver syncs exactly at
        predicted boundaries this loop runs a single step.

        Returns the VMs that completed within the interval; their
        ``done`` flag is set, but lifecycle completion
        (:meth:`SimVM.finish`) is the caller's job.
        """
        if now_s < self._last_sync_s - 1e-9:
            raise SimulationError(
                f"server {self.server_id}: sync to {now_s} before {self._last_sync_s}"
            )
        finished: list[SimVM] = []
        t = self._last_sync_s
        while now_s - t > _EPSILON_S:
            if not self._vms:
                if self.powered_on:
                    if self._power_off_when_empty:
                        self._set_power(None)
                    else:
                        idle_power = self._idle_power_w()
                        self._idle_energy_j += idle_power * (now_s - t)
                        if self._signals is not None:
                            carbon, cost = self._signals.accrue(idle_power, t, now_s)
                            self._carbon_g += carbon
                            self._cost += cost
                        if self.chronicle is not None:
                            self.chronicle.record(t, now_s, (0, 0, 0), idle_power, ())
                t = now_s
                break
            physics = self._mix_physics()
            slowdowns = physics[0]
            if self._slowed:
                slowdowns = [s * self._slowdown_factor for s in slowdowns]
            power = physics[2]
            next_boundary = min(
                vm.remaining[vm.stage] * s for vm, s in zip(self._vms, slowdowns)
            )
            step = min(now_s - t, max(next_boundary, _EPSILON_S))
            self._busy_energy_j += power * step
            if self._signals is not None:
                carbon, cost = self._signals.accrue(power, t, t + step)
                self._carbon_g += carbon
                self._cost += cost
            if self.chronicle is not None:
                self.chronicle.record(
                    t, t + step, self.mix_key(), power, [vm.vm_id for vm in self._vms]
                )
            any_done = False
            for i, (vm, slowdown) in enumerate(zip(self._vms, slowdowns)):
                stage = vm.stage
                vm.advance(step, slowdown, _EPSILON_S)
                if vm.stage != stage:
                    # A stage change is a mix change (SimVM.advance is
                    # the only place a hosted VM's stage moves).
                    self._physics = None
                    if vm.stage == 1:
                        if self._codes is not None:
                            self._codes[i] = self._kinds.code_of(vm)
                    else:
                        # Done: unhosted below, so its code goes too.
                        any_done = True
            if any_done:
                for vm in list(self._vms):
                    if vm.done:
                        finished.append(vm)
                        self._unhost(vm)
            t += step
        if finished:
            # The mix changed: outstanding boundary predictions are stale.
            self.epoch += 1
        if not self._vms and self._power_off_when_empty and self.powered_on:
            self._set_power(None)
        self._last_sync_s = now_s
        return finished

    def _idle_power_w(self) -> float:
        idle_loads = {s: 0.0 for s in SUBSYSTEMS}
        return instantaneous_power(idle_loads, 0, self.spec.power)

    def add_vm(self, vm: SimVM, now_s: float) -> None:
        """Place a VM; caller must have synced to ``now_s`` first."""
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: add_vm at {now_s} without sync "
                f"(last sync {self._last_sync_s})"
            )
        if self.failed:
            raise SimulationError(
                f"server {self.server_id}: cannot place VM on a failed server"
            )
        if not self.powered_on:
            self._set_power(now_s)
        vm.place(self.server_id, now_s)
        self._host(vm)
        self.epoch += 1

    def attach_vm(self, vm: SimVM, now_s: float) -> None:
        """Attach an already-running VM (migration arrival).

        Unlike :meth:`add_vm` this does not run the PENDING->RUNNING
        lifecycle transition; the VM keeps its progress state.  Caller
        must have synced to ``now_s`` first.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: attach_vm at {now_s} without sync"
            )
        if self.failed:
            raise SimulationError(
                f"server {self.server_id}: cannot attach VM to a failed server"
            )
        if vm.done:
            raise SimulationError(f"cannot attach finished VM {vm.vm_id!r}")
        if not self.powered_on:
            self._set_power(now_s)
        vm.server_id = self.server_id
        self._host(vm)
        self.epoch += 1

    def detach_vm(self, vm: SimVM, now_s: float) -> SimVM:
        """Remove a running VM without completing it (for migration).

        Caller must have synced to ``now_s`` first; the VM keeps its
        remaining-work state and can be re-attached to another server
        via :func:`repro.ext.migration.controller.attach_migrated`.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: detach_vm at {now_s} without sync"
            )
        try:
            self._unhost(vm)
        except ValueError:
            raise SimulationError(
                f"server {self.server_id}: VM {vm.vm_id!r} is not hosted here"
            ) from None
        self.epoch += 1
        if not self._vms and self._power_off_when_empty:
            self._set_power(None)
        return vm

    def next_boundary(self, now_s: float) -> float | None:
        """Earliest future time a VM completes its current stage.

        None when the server is idle.  Stage *transitions* (init to
        work) are boundaries too: they change the mix's demand vector,
        hence every co-tenant's rate.
        """
        if not self._vms:
            return None
        slowdowns = self._mix_physics()[0]
        earliest = None
        for vm, slowdown in zip(self._vms, slowdowns):
            eta = vm.remaining[vm.stage] * slowdown * self._slowdown_factor
            if earliest is None or eta < earliest:
                earliest = eta
        assert earliest is not None
        return now_s + max(earliest, _EPSILON_S)

    # -- power management -------------------------------------------------

    def power_on(self, now_s: float) -> None:
        """Explicitly power the server on (for always-on policies)."""
        self.sync(now_s)
        if not self.powered_on:
            self._set_power(now_s)

    def force_power_off(self, now_s: float) -> None:
        """Power off an idle server (error if VMs are running)."""
        self.sync(now_s)
        if self._vms:
            raise SimulationError(
                f"server {self.server_id}: cannot power off with {len(self._vms)} VMs"
            )
        self._set_power(None)

    # -- fault injection --------------------------------------------------

    def fail(self, now_s: float) -> list[SimVM]:
        """Crash the server, evicting its unfinished VMs.

        Caller must have synced to ``now_s`` first (so finished VMs
        were already harvested through :meth:`sync` and progress is
        integrated up to the crash instant).  Returns the evicted VMs
        with their progress state intact; the datacenter driver turns
        them into fresh re-allocation requests.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: fail at {now_s} without sync"
            )
        if self.failed:
            raise SimulationError(f"server {self.server_id}: already failed")
        evicted = [vm for vm in self._vms if not vm.done]
        for vm in list(self._vms):
            self._unhost(vm)
        self.epoch += 1
        self._set_power(None)
        self._slowdown_factor = 1.0
        self._slowed = False
        self.failed = True
        if self._cluster is not None:
            self._cluster.on_failure(self._slot, True)
        return evicted

    def recover(self, now_s: float) -> None:
        """Return a crashed server to service (still powered off)."""
        if not self.failed:
            raise SimulationError(
                f"server {self.server_id}: recover without a prior crash"
            )
        self.sync(now_s)
        self.failed = False
        if self._cluster is not None:
            self._cluster.on_failure(self._slot, False)

    def set_slowdown(self, factor: float, now_s: float) -> None:
        """Begin a transient slowdown; caller must have synced first."""
        if factor < 1.0:
            raise SimulationError(
                f"server {self.server_id}: slowdown factor must be >= 1, got {factor}"
            )
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: set_slowdown at {now_s} without sync"
            )
        self._slowdown_factor = factor
        self._slowed = True
        self.epoch += 1

    def clear_slowdown(self, now_s: float) -> None:
        """End a transient slowdown; caller must have synced first."""
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: clear_slowdown at {now_s} without sync"
            )
        self._slowdown_factor = 1.0
        self._slowed = False
        self.epoch += 1

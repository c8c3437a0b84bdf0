"""Strategy interface between the datacenter simulator and allocators.

A strategy sees the cluster through immutable :class:`ServerView`
snapshots and decides, for one job request's VMs, a placement map
``{vm_id: server_id}`` -- or ``None`` when the job cannot be placed
now and must queue.  Placements are atomic per job: either every VM of
the job is placed or none is (the paper creates "one or more VMs for
every workload or job request" and allocates them together).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.campaign.records import MixKey, total_vms
from repro.testbed.benchmarks import WorkloadClass


@dataclass(frozen=True)
class VMDescriptor:
    """What a strategy knows about one VM awaiting placement."""

    vm_id: str
    workload_class: WorkloadClass
    #: Remaining response-time budget (deadline minus now); None = no QoS.
    remaining_deadline_s: float | None = None


@dataclass(frozen=True)
class ServerView:
    """Immutable snapshot of one server for placement decisions."""

    server_id: str
    mix: MixKey
    max_vms: int
    cpu_slots: int
    powered_on: bool

    @property
    def allocated(self) -> MixKey:
        """The mix under the allocator's name for it, so a view serves
        wherever a :class:`~repro.core.allocator.ServerState` is read."""
        return self.mix

    @property
    def n_vms(self) -> int:
        return total_vms(self.mix)

    def free_slots(self, multiplex: int) -> int:
        """CPU-slot headroom under a given multiplexing level.

        FIRST-FIT-k treats a server as holding up to ``k`` VMs per
        CPU; headroom is that budget minus the VMs already present,
        additionally capped by the hard per-server VM limit.
        """
        budget = min(self.cpu_slots * multiplex, self.max_vms)
        return max(0, budget - self.n_vms)


class AllocationStrategy(abc.ABC):
    """Base class for placement strategies."""

    #: Display name, e.g. "FF-2" or "PA-0.5" (set by subclasses).
    name: str = "unnamed"

    @abc.abstractmethod
    def place(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        """Decide placements for one job's VMs.

        Returns ``{vm_id: server_id}`` covering *all* given VMs, or
        ``None`` if the job cannot be placed under this strategy's
        rules right now (the simulator will queue and retry it).

        Implementations must not assume anything about the identity of
        the snapshots between calls; the simulator rebuilds views after
        every state change.
        """

    def reallocate(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        """Re-place VMs evicted by a server crash or a VM abort.

        The simulator restarts every such VM from scratch: the VMs
        handed over are fresh (same ``vm_id`` and deadline, no
        progress), and the discarded work is logged as
        :attr:`~repro.faults.FaultRecord.lost_work_s`.  The default
        simply reuses :meth:`place`.  Strategies can override to treat
        displaced work differently (e.g. ignore consolidation
        thresholds).  The same atomicity contract applies: cover all
        VMs or return ``None`` to leave them queued.
        """
        return self.place(vms, servers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"

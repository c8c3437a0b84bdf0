"""The PROACTIVE strategy: model-driven application-centric placement.

Wraps :class:`repro.core.allocator.ProactiveAllocator` behind the
simulator's strategy interface.  PA-1 (alpha = 1) minimizes energy,
PA-0 minimizes execution time, PA-0.5 balances the two.

QoS handling ("the algorithm ... returns the allocation of VMs that
best matches the input optimization goal while satisfying the QoS
constraints"):

* while a QoS-compliant placement exists, take the best-scoring one;
* when every candidate would break a deadline, the job *waits* in the
  queue -- the QoS constraint doubles as admission control, which is
  what keeps the proactive strategy from over-consolidating under
  load;
* once a job's remaining budget drops below its class's solo runtime
  Tx, compliance is impossible forever, so the job is placed
  best-effort (relaxed mode) rather than blocking the queue -- the
  missed deadline is then counted by the metrics, matching Fig. 7
  where PROACTIVE also shows violations under high load.
"""

from __future__ import annotations

import copy
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from repro.common.errors import AllocationError, QoSViolationError
from repro.core.allocator import ClassHeads, ProactiveAllocator, VMRequest, class_heads
from repro.core.model import ModelDatabase
from repro.core.plan import AllocationPlan
from repro.core.scoring import CarbonContext
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import get_observability
from repro.strategies.base import AllocationStrategy, ServerView, VMDescriptor

#: Registry counter names (sans prefix) the strategy accumulates per
#: successful plan.
_TOTAL_KEYS = (
    "plans",
    "grid_hits",
    "grid_misses",
    "energy_fallbacks",
    "partitions_enumerated",
    "subtrees_pruned",
)

#: A view's server class, as the allocator groups servers (see class_heads).
_VIEW_CLASS = attrgetter("mix", "max_vms")


class ProactiveStrategy(AllocationStrategy):
    """Application-centric proactive placement (paper Sect. III-D).

    Parameters
    ----------
    database:
        The empirical model database (see :class:`ProactiveAllocator`).
    alpha:
        Optimization goal (1 = energy, 0 = time, 0.5 = balanced).
    time_budget_s:
        Optional wall-clock deadline per allocation, forwarded to the
        underlying allocator; setting it forces its anytime search mode
        (see :mod:`repro.core.anytime`).
    carbon:
        Optional :class:`repro.core.scoring.CarbonContext` forwarded
        verbatim to the underlying allocator, folding carbon mass and
        energy cost into the score as a third axis.  ``None`` (or
        ``alpha_carbon == 0``) keeps the 2-way scorer bit-identical.

    Search-effort counters are recorded as
    ``strategy.<key>{strategy="PA-x"}`` in the process-local
    observability registry when it is enabled at construction, and in a
    private registry otherwise (so :attr:`metrics` always works and
    instances never share counters through the null bundle).  A deep
    copy of a strategy bound to the process registry binds the same way
    where it is made: a sharded run copies its strategy inside each
    shard task, whose registry capture merges back into the caller's.
    A private registry is copied with the strategy.
    """

    def __init__(
        self,
        database: ModelDatabase,
        alpha: float = 0.5,
        time_budget_s: float | None = None,
        carbon: CarbonContext | None = None,
    ):
        self._allocator = ProactiveAllocator(
            database,
            alpha=alpha,
            time_budget_s=time_budget_s,
            carbon=carbon,
        )
        self.name = self._allocator.weights.describe()
        self._last_plan: AllocationPlan | None = None
        self._bind_registry()

    def _bind_registry(self) -> None:
        obs = get_observability()
        self._ambient = obs.enabled
        self._registry = obs.registry if obs.enabled else MetricsRegistry()
        self._counters = {
            key: self._registry.counter(f"strategy.{key}", strategy=self.name)
            for key in _TOTAL_KEYS
        }

    def __deepcopy__(self, memo: dict) -> "ProactiveStrategy":
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        rebind = self._ambient
        for name, value in vars(self).items():
            if rebind and name in ("_ambient", "_registry", "_counters"):
                continue
            setattr(clone, name, copy.deepcopy(value, memo))
        if rebind:
            clone._bind_registry()
        return clone

    @property
    def alpha(self) -> float:
        return self._allocator.alpha

    @property
    def database(self) -> ModelDatabase:
        return self._allocator.database

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding this strategy's ``strategy.*`` counters."""
        return self._registry

    @property
    def last_plan(self) -> Optional[AllocationPlan]:
        """The most recent successful plan (with search provenance)."""
        return self._last_plan

    def _record(self, plan: AllocationPlan) -> AllocationPlan:
        self._last_plan = plan
        provenance = plan.search_provenance
        if provenance is not None:
            counters = self._counters
            counters["plans"].inc()
            counters["grid_hits"].inc(provenance.grid_hits)
            counters["grid_misses"].inc(provenance.grid_misses)
            counters["energy_fallbacks"].inc(provenance.energy_fallbacks)
            counters["partitions_enumerated"].inc(provenance.partitions_enumerated)
            counters["subtrees_pruned"].inc(provenance.subtrees_pruned)
        return plan

    def place(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        # The allocator only ever picks one of the first len(vms)
        # servers of a (mix, max_vms) class, and reads a view as it
        # reads a ServerState (server_id, allocated, max_vms), so the
        # heads go over as they are.  The simulator's views keep the
        # classes bucketed; any other caller's plain list is reduced
        # here, in one pass.
        heads_of = getattr(servers, "class_heads", None)
        if heads_of is not None:
            heads, stands_for = heads_of(len(vms))
        else:
            heads, stands_for = class_heads(servers, _VIEW_CLASS, len(vms))
        offered = ClassHeads(heads, stands_for, len(vms))
        requests = [
            VMRequest(
                vm_id=vm.vm_id,
                workload_class=vm.workload_class,
                max_exec_time_s=(
                    vm.remaining_deadline_s
                    if vm.remaining_deadline_s is not None and vm.remaining_deadline_s > 0
                    else None
                ),
            )
            for vm in vms
        ]
        try:
            return self._record(self._allocator.allocate(requests, offered)).placements()
        except QoSViolationError:
            if not self._hopeless(vms):
                return None  # wait for capacity that can honor the deadline
            # The deadline cannot be met anywhere anymore; waiting longer
            # only makes it worse.  Place best-effort: without deadlines
            # every candidate is compliant, so the strict allocator
            # returns the relaxed optimum.
            relaxed_requests = [
                VMRequest(vm_id=vm.vm_id, workload_class=vm.workload_class)
                for vm in vms
            ]
            try:
                return self._record(
                    self._allocator.allocate(relaxed_requests, offered)
                ).placements()
            except AllocationError:
                return None
        except AllocationError:
            return None

    def _hopeless(self, vms: Sequence[VMDescriptor]) -> bool:
        """True when no future placement can meet some VM's deadline.

        Any placement runs a VM for at least its class's solo runtime
        Tx; a remaining budget below that can never be honored.
        """
        database = self._allocator.database
        for vm in vms:
            if vm.remaining_deadline_s is None:
                continue
            if vm.remaining_deadline_s < database.reference_time(vm.workload_class):
                return True
        return False

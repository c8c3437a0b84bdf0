"""Allocation plans: the output of the VM allocation algorithm.

A plan maps each partition block to a server, together with the model
database's estimate for the server's resulting combined mix; plans are
what strategies hand to the datacenter simulator for enactment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.campaign.records import MixKey, total_vms
from repro.core.model import EstimatedOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimatecache import CacheStats


@dataclass(frozen=True)
class BlockAssignment:
    """One partition block placed on one server.

    Attributes
    ----------
    server_id:
        The receiving server.
    block:
        The (Ncpu, Nmem, Nio) counts of the newly placed VMs.
    vm_ids:
        Concrete VM identifiers backing the block, ordered CPU-class
        first, then MEM, then IO.
    combined_key:
        The server's mix *after* placement (existing + block).
    estimate:
        Database estimate for running the combined mix.
    """

    server_id: str
    block: MixKey
    vm_ids: tuple[str, ...]
    combined_key: MixKey
    estimate: EstimatedOutcome

    def __post_init__(self) -> None:
        if total_vms(self.block) != len(self.vm_ids):
            raise ValueError(
                f"block {self.block} holds {total_vms(self.block)} VMs but "
                f"{len(self.vm_ids)} ids were supplied"
            )


@dataclass(frozen=True)
class AllocationProvenance:
    """How the allocator arrived at a plan (cache and search counters).

    Snapshot of the search pass that produced one plan: dense-grid hit
    rates, the silent-energy-fallback count, how many partitions the
    enumerator expanded versus pruned, and the size of the streamed
    Pareto frontier actually retained in memory.  Purely diagnostic --
    two plans differing only in provenance compare equal.
    """

    grid_hits: int = 0
    grid_misses: int = 0
    energy_fallbacks: int = 0
    partitions_enumerated: int = 0
    candidates_feasible: int = 0
    candidates_compliant: int = 0
    frontier_retained: int = 0
    frontier_peak: int = 0
    pruned_infeasible_subtrees: int = 0
    pruned_dominated_subtrees: int = 0
    aborted_assignments: int = 0
    bnb_active: bool = False
    anytime: bool = False
    anytime_beam_width: int = 0
    anytime_rounds: int = 0
    anytime_evaluated: int = 0
    anytime_budget_exhausted: bool = False
    anytime_exact_fallback: bool = False
    time_budget_s: float | None = None
    budget_consumed_s: float = 0.0

    @property
    def mode(self) -> str:
        """Which search produced the plan: ``"anytime"`` or ``"exact"``."""
        return "anytime" if self.anytime else "exact"

    @property
    def subtrees_pruned(self) -> int:
        return self.pruned_infeasible_subtrees + self.pruned_dominated_subtrees

    @classmethod
    def from_stats(
        cls,
        stats: "CacheStats",
        time_budget_s: float | None = None,
        budget_consumed_s: float = 0.0,
    ) -> "AllocationProvenance":
        """Build from one search pass's
        :class:`~repro.core.estimatecache.CacheStats`.

        Equal to ``AllocationProvenance(**stats.as_dict(), ...)``: the
        ``anytime_*`` counters are read only when the anytime search ran,
        as :meth:`CacheStats.as_dict` includes them only then.  The
        wall-clock budget figures never flow through a numeric counter
        registry, so they come as arguments.
        """
        ran = stats.anytime
        # A frozen dataclass's __init__ pays one object.__setattr__ per
        # field, twenty here, on every allocator call.  The record has
        # no validation to run, so fill its fields in directly.
        provenance = object.__new__(cls)
        provenance.__dict__.update(
            grid_hits=stats.grid_hits,
            grid_misses=stats.grid_misses,
            energy_fallbacks=stats.energy_fallbacks,
            partitions_enumerated=stats.partitions_enumerated,
            candidates_feasible=stats.candidates_feasible,
            candidates_compliant=stats.candidates_compliant,
            frontier_retained=stats.frontier_retained,
            frontier_peak=stats.frontier_peak,
            pruned_infeasible_subtrees=stats.pruned_infeasible_subtrees,
            pruned_dominated_subtrees=stats.pruned_dominated_subtrees,
            aborted_assignments=stats.aborted_assignments,
            bnb_active=stats.bnb_active,
            anytime=ran,
            anytime_beam_width=stats.anytime_beam_width if ran else 0,
            anytime_rounds=stats.anytime_rounds if ran else 0,
            anytime_evaluated=stats.anytime_evaluated if ran else 0,
            anytime_budget_exhausted=ran and stats.anytime_budget_exhausted,
            anytime_exact_fallback=ran and stats.anytime_exact_fallback,
            time_budget_s=time_budget_s,
            budget_consumed_s=budget_consumed_s,
        )
        return provenance

    def as_dict(self) -> dict:
        """The counters as a flat mapping (registry/JSON friendly)."""
        return {name: getattr(self, name) for name in _PROVENANCE_FIELDS}


_PROVENANCE_FIELDS = tuple(f.name for f in fields(AllocationProvenance))


@dataclass(frozen=True)
class AllocationPlan:
    """The chosen partition/assignment for one VM batch.

    ``qos_satisfied`` records whether every placed VM's estimated
    execution time respects its deadline; in relaxed-QoS mode the best
    plan may carry ``qos_satisfied=False``.

    ``search_provenance`` carries the search/cache counters of the
    pass that built the plan (None for plans built outside the
    allocator, such as the test oracle's); the same counters are folded
    into the allocator's metrics registry (see :mod:`repro.obs`).  It
    is excluded from equality so optimized and oracle plans compare
    bit-identical.

    ``alpha_carbon`` is the carbon knob the plan was scored with (0.0
    for 2-way plans); ``estimated_carbon_g``/``estimated_cost`` carry
    the chosen candidate's time-integrated carbon mass (gCO2) and
    energy cost, ``None`` unless a carbon context was active.
    """

    assignments: tuple[BlockAssignment, ...]
    alpha: float
    score: float
    qos_satisfied: bool
    alpha_carbon: float = 0.0
    estimated_carbon_g: float | None = None
    estimated_cost: float | None = None
    search_provenance: AllocationProvenance | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def estimated_makespan_s(self) -> float:
        """Estimated completion of the slowest server's mix."""
        if not self.assignments:
            return 0.0
        return max(a.estimate.time_s for a in self.assignments)

    @property
    def estimated_energy_j(self) -> float:
        """Summed estimated energy over the servers receiving blocks."""
        return sum(a.estimate.energy_j for a in self.assignments)

    @property
    def n_vms(self) -> int:
        return sum(len(a.vm_ids) for a in self.assignments)

    @property
    def servers_used(self) -> tuple[str, ...]:
        return tuple(a.server_id for a in self.assignments)

    def assignment_of(self, vm_id: str) -> BlockAssignment:
        for assignment in self.assignments:
            if vm_id in assignment.vm_ids:
                return assignment
        raise KeyError(f"VM {vm_id!r} not in this plan")

    def placements(self) -> dict[str, str]:
        """Flat {vm_id: server_id} view."""
        mapping: dict[str, str] = {}
        for assignment in self.assignments:
            for vm_id in assignment.vm_ids:
                mapping[vm_id] = assignment.server_id
        return mapping

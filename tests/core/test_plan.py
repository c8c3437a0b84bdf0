"""Unit tests for allocation plans."""

import pytest

from repro.core.model import EstimatedOutcome
from repro.core.plan import AllocationPlan, BlockAssignment


def assignment(server_id="s0", block=(2, 0, 0), vm_ids=("a", "b"), time_s=100.0, energy_j=500.0):
    return BlockAssignment(
        server_id=server_id,
        block=block,
        vm_ids=vm_ids,
        combined_key=block,
        estimate=EstimatedOutcome(key=block, time_s=time_s, energy_j=energy_j, exact=True),
    )


class TestBlockAssignment:
    def test_vm_count_must_match_block(self):
        with pytest.raises(ValueError):
            assignment(block=(3, 0, 0), vm_ids=("a",))


class TestAllocationPlan:
    def test_aggregates(self):
        plan = AllocationPlan(
            assignments=(
                assignment("s0", (2, 0, 0), ("a", "b"), 100.0, 500.0),
                assignment("s1", (0, 1, 0), ("c",), 150.0, 300.0),
            ),
            alpha=0.5,
            score=0.4,
            qos_satisfied=True,
        )
        assert plan.estimated_makespan_s == 150.0
        assert plan.estimated_energy_j == 800.0
        assert plan.n_vms == 3
        assert plan.servers_used == ("s0", "s1")

    def test_placements_flat_view(self):
        plan = AllocationPlan(
            assignments=(assignment(vm_ids=("a", "b")),),
            alpha=0.5,
            score=0.0,
            qos_satisfied=True,
        )
        assert plan.placements() == {"a": "s0", "b": "s0"}

    def test_assignment_of(self):
        plan = AllocationPlan(
            assignments=(assignment(vm_ids=("a", "b")),),
            alpha=0.5,
            score=0.0,
            qos_satisfied=True,
        )
        assert plan.assignment_of("a").server_id == "s0"
        with pytest.raises(KeyError):
            plan.assignment_of("zzz")

    def test_empty_plan(self):
        plan = AllocationPlan(assignments=(), alpha=0.5, score=0.0, qos_satisfied=True)
        assert plan.estimated_makespan_s == 0.0
        assert plan.estimated_energy_j == 0.0
        assert plan.n_vms == 0


class TestProvenanceAccess:
    def plan_with_provenance(self):
        from repro.core.plan import AllocationProvenance

        provenance = AllocationProvenance(partitions_enumerated=7)
        return AllocationPlan(
            assignments=(),
            alpha=0.5,
            score=0.0,
            qos_satisfied=True,
            search_provenance=provenance,
        )

    def test_search_provenance_is_the_plain_attribute(self):
        plan = self.plan_with_provenance()
        assert plan.search_provenance.partitions_enumerated == 7

    def test_counters_default_to_zero(self):
        from repro.core.plan import AllocationProvenance

        provenance = AllocationProvenance()
        assert provenance.partitions_enumerated == 0
        assert provenance.as_dict()["grid_hits"] == 0

    def test_as_dict_round_trips(self):
        from repro.core.plan import AllocationProvenance

        provenance = AllocationProvenance(grid_hits=3, frontier_peak=2)
        assert AllocationProvenance(**provenance.as_dict()) == provenance

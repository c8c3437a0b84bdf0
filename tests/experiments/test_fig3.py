"""Experiment tests: the Fig. 3 algorithm contract."""

import pytest

from benchmarks.bench_fig3_algorithm import fig3_contract


@pytest.fixture(scope="module")
def result(campaign):
    return fig3_contract(campaign=campaign)


class TestFig3Contract:
    def test_all_four_inputs_consumed(self, result):
        assert result.all_inputs_used

    def test_output_is_partition_and_allocation(self, result):
        plan = result.plan
        # Blocks partition the request set.
        placed = sorted(vm for a in plan.assignments for vm in a.vm_ids)
        assert placed == ["c0", "c1", "i0", "m0"]
        # Every block is bound to a server with an estimate.
        for assignment in plan.assignments:
            assert assignment.server_id.startswith("s")
            assert assignment.estimate.time_s > 0

    def test_qos_constraints_respected(self, result):
        assert result.plan.qos_satisfied

    def test_search_space_enumerated(self, result):
        # Brute force over (type-)partitions: the candidate count the
        # search considered is the full family for the batch.
        assert result.n_candidate_partitions == 11  # type partitions of (2,1,1)

    def test_alpha_changes_outcome(self, campaign):
        frugal = fig3_contract(campaign=campaign, alpha=1.0)
        fast = fig3_contract(campaign=campaign, alpha=0.0)
        assert frugal.plan.estimated_energy_j <= fast.plan.estimated_energy_j + 1e-9
        assert fast.plan.estimated_makespan_s <= frugal.plan.estimated_makespan_s + 1e-9

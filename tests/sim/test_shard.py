"""Unit tests for the shard plan, job/fault partitioning, and merge."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.faults.schedule import FaultAction, FaultSchedule, ScheduledFault
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.sim.shard import (
    ShardPlan,
    _job_of_vm,
    merge_results,
    partition_jobs,
    partition_schedule,
    shard_config,
)
from repro.strategies.firstfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


def job(job_id, submit=0.0, n_vms=1):
    return PreparedJob(
        job_id=job_id,
        submit_time_s=submit,
        workload_class=WorkloadClass.CPU,
        n_vms=n_vms,
        burst_id=0,
    )


class TestShardPlan:
    def test_contiguous_split_with_remainder(self):
        plan = ShardPlan(n_servers=10, n_shards=3)
        assert [plan.size(s) for s in range(3)] == [4, 3, 3]
        assert plan.offsets == (0, 4, 7)
        # Concatenating the shards reproduces the global range exactly.
        covered = [
            plan.offset(s) + i for s in range(3) for i in range(plan.size(s))
        ]
        assert covered == list(range(10))

    def test_shard_of_server_inverts_the_split(self):
        plan = ShardPlan(n_servers=11, n_shards=4)
        for server in range(11):
            shard = plan.shard_of_server(server)
            assert plan.offset(shard) <= server < plan.offset(shard) + plan.size(shard)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardPlan(n_servers=4, n_shards=0)
        with pytest.raises(ConfigurationError, match="cannot split"):
            ShardPlan(n_servers=2, n_shards=3)
        with pytest.raises(ConfigurationError, match="outside"):
            ShardPlan(n_servers=4, n_shards=2).shard_of_server(4)


class TestPartitionJobs:
    def test_every_job_lands_exactly_once(self):
        jobs = [job(i, submit=float(i % 7), n_vms=1 + i % 4) for i in range(30)]
        plan = ShardPlan(n_servers=9, n_shards=3)
        groups, job_to_shard = partition_jobs(jobs, plan)
        flat = sorted(j.job_id for group in groups for j in group)
        assert flat == sorted(j.job_id for j in jobs)
        for shard, group in enumerate(groups):
            for j in group:
                assert job_to_shard[j.job_id] == shard

    def test_balance_tracks_capacity(self):
        # Shard 0 of a (5, 2) split holds 3 of 5 servers and should
        # absorb proportionally more VMs.
        jobs = [job(i, n_vms=2) for i in range(20)]
        plan = ShardPlan(n_servers=5, n_shards=2)
        groups, _ = partition_jobs(jobs, plan)
        loads = [sum(j.n_vms for j in group) for group in groups]
        ratios = [loads[0] / 3, loads[1] / 2]
        assert abs(ratios[0] - ratios[1]) <= 1.0

    def test_deterministic_regardless_of_input_order(self):
        jobs = [job(i, submit=float(i % 5)) for i in range(17)]
        plan = ShardPlan(n_servers=6, n_shards=3)
        _, forward = partition_jobs(jobs, plan)
        _, reversed_ = partition_jobs(list(reversed(jobs)), plan)
        assert forward == reversed_

    def test_duplicate_job_id_rejected(self):
        with pytest.raises(SimulationError, match="duplicate job id"):
            partition_jobs([job(1), job(1)], ShardPlan(n_servers=2, n_shards=1))


class TestJobOfVm:
    def test_simulator_naming_parses(self):
        assert _job_of_vm("j42-0") == 42
        assert _job_of_vm("j7-13") == 7

    def test_foreign_names_return_none(self):
        assert _job_of_vm("vm-1") is None
        assert _job_of_vm("j-1") is None
        assert _job_of_vm("jx-1") is None
        assert _job_of_vm("nodash") is None


class TestPartitionSchedule:
    def test_server_faults_follow_their_shard_with_local_indices(self):
        plan = ShardPlan(n_servers=6, n_shards=2)
        schedule = FaultSchedule(
            timeline=(
                ScheduledFault(time_s=1.0, action=FaultAction.CRASH, server=0),
                ScheduledFault(time_s=2.0, action=FaultAction.CRASH, server=4),
                ScheduledFault(time_s=3.0, action=FaultAction.RECOVER, server=4),
            )
        )
        shards = partition_schedule(schedule, plan, {})
        assert [f.server for f in shards[0].timeline] == [0]
        assert [f.server for f in shards[1].timeline] == [1, 1]
        assert [f.action for f in shards[1].timeline] == [
            FaultAction.CRASH,
            FaultAction.RECOVER,
        ]

    def test_vm_aborts_follow_the_owning_job(self):
        plan = ShardPlan(n_servers=4, n_shards=2)
        schedule = FaultSchedule(
            timeline=(
                ScheduledFault(time_s=1.0, action=FaultAction.ABORT_VM, vm="j5-0"),
                ScheduledFault(time_s=2.0, action=FaultAction.ABORT_VM, vm="j9-1"),
                ScheduledFault(time_s=3.0, action=FaultAction.ABORT_VM, vm="weird"),
            )
        )
        shards = partition_schedule(schedule, plan, {5: 1, 9: 0})
        assert [f.vm for f in shards[0].timeline] == ["j9-1", "weird"]
        assert [f.vm for f in shards[1].timeline] == ["j5-0"]

    def test_every_entry_lands_exactly_once(self):
        plan = ShardPlan(n_servers=5, n_shards=3)
        timeline = tuple(
            ScheduledFault(time_s=float(i), action=FaultAction.CRASH, server=i % 5)
            for i in range(10)
        )
        shards = partition_schedule(FaultSchedule(timeline=timeline), plan, {})
        assert sum(len(s.timeline) for s in shards) == len(timeline)
        # Remapped indices stay inside each shard's local range.
        for shard_id, shard in enumerate(shards):
            for entry in shard.timeline:
                assert 0 <= entry.server < plan.size(shard_id)


class TestShardConfig:
    def test_offsets_and_slices(self):
        plan = ShardPlan(n_servers=7, n_shards=2)
        config = DatacenterConfig(n_servers=7)
        sliced = shard_config(config, plan, 1)
        assert sliced.n_servers == 3
        assert sliced.server_id_offset == 4
        assert sliced.server_spec is config.server_spec

    def test_spill_override(self):
        plan = ShardPlan(n_servers=4, n_shards=1)
        config = DatacenterConfig(
            n_servers=4,
            record_chronicles=True,
            chronicle_capacity=2,
            chronicle_spill_path="base.jsonl",
        )
        assert (
            shard_config(config, plan, 0, spill_path="other.jsonl").chronicle_spill_path
            == "other.jsonl"
        )
        assert shard_config(config, plan, 0).chronicle_spill_path == "base.jsonl"

    def test_mismatched_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="plan covers"):
            shard_config(
                DatacenterConfig(n_servers=5), ShardPlan(n_servers=4, n_shards=2), 0
            )


class TestMergeResults:
    def _run(self, jobs, n_servers):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=n_servers))
        return sim.run(jobs, FirstFitStrategy(2), QoSPolicy.unlimited())

    def test_merge_matches_manual_aggregation(self):
        left = self._run([job(1, 0.0, 2), job(2, 50.0, 1)], 2)
        right = self._run([job(3, 10.0, 3)], 3)
        merged = merge_results([left, right])
        assert sorted(o.job_id for o in merged.outcomes) == [1, 2, 3]
        assert merged.n_servers == 5
        assert merged.metrics.busy_energy_j == pytest.approx(
            left.metrics.busy_energy_j + right.metrics.busy_energy_j
        )
        assert merged.per_server_busy_j == (
            left.per_server_busy_j + right.per_server_busy_j
        )
        assert merged.metrics.max_queue_length == max(
            left.metrics.max_queue_length, right.metrics.max_queue_length
        )
        # Outcomes come back in global completion order.
        completions = [o.completion_time_s for o in merged.outcomes]
        assert completions == sorted(completions)

    def test_single_shard_is_identity_modulo_ordering(self):
        result = self._run([job(1, 0.0, 1), job(2, 5.0, 2)], 2)
        merged = merge_results([result])
        assert merged.metrics == result.metrics
        assert sorted(merged.outcomes, key=lambda o: o.job_id) == sorted(
            result.outcomes, key=lambda o: o.job_id
        )

    def test_mixed_strategies_rejected(self):
        a = self._run([job(1)], 1)
        b = self._run([job(2)], 1)
        object.__setattr__(b, "strategy_name", "other")
        with pytest.raises(SimulationError, match="different strategies"):
            merge_results([a, b])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            merge_results([])

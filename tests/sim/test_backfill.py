"""Tests for the EASY-backfilling queue discipline."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.slotfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


def job(job_id, submit=0.0, n_vms=1):
    return PreparedJob(
        job_id=job_id,
        submit_time_s=submit,
        workload_class=WorkloadClass.CPU,
        n_vms=n_vms,
        burst_id=job_id,
    )


class TestConfig:
    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            DatacenterConfig(n_servers=1, backfill_window=-1)


class TestBackfilling:
    def _scenario(self):
        """One 4-slot server: a running 2-VM job, then a blocked 4-VM
        job, then a 1-VM job that fits the two remaining slots."""
        return [
            job(1, submit=0.0, n_vms=2),
            job(2, submit=10.0, n_vms=4),  # blocks: needs all 4 slots
            job(3, submit=20.0, n_vms=1),  # fits the remaining slots
        ]

    def test_fcfs_blocks_small_job_behind_big_one(self):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=1, backfill_window=0))
        result = sim.run(self._scenario(), FirstFitStrategy(1), QoSPolicy.unlimited())
        completions = {o.job_id: o.completion_time_s for o in result.outcomes}
        # Strict FCFS: job 3 cannot start until job 2 did.
        assert completions[3] > completions[1]

    def test_backfill_lets_small_job_through(self):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=1, backfill_window=4))
        result = sim.run(self._scenario(), FirstFitStrategy(1), QoSPolicy.unlimited())
        completions = {o.job_id: o.completion_time_s for o in result.outcomes}
        # Job 3 (1 VM) backfills alongside job 1 and finishes well
        # before the 4-VM job 2 even starts.
        assert completions[3] < completions[2]
        assert completions[3] < completions[1] + 700.0

    def test_backfill_improves_mean_response(self):
        jobs = self._scenario()
        unlimited = QoSPolicy.unlimited()
        fcfs = DatacenterSimulator(DatacenterConfig(n_servers=1)).run(
            jobs, FirstFitStrategy(1), unlimited
        )
        easy = DatacenterSimulator(
            DatacenterConfig(n_servers=1, backfill_window=4)
        ).run(jobs, FirstFitStrategy(1), unlimited)
        assert easy.metrics.mean_response_s < fcfs.metrics.mean_response_s

    def test_all_jobs_complete_under_backfill(self):
        jobs = [job(i, submit=i * 5.0, n_vms=1 + i % 4) for i in range(1, 15)]
        sim = DatacenterSimulator(DatacenterConfig(n_servers=2, backfill_window=3))
        result = sim.run(jobs, FirstFitStrategy(2), QoSPolicy.unlimited())
        assert sorted(o.job_id for o in result.outcomes) == [j.job_id for j in jobs]

    def test_window_bounds_scan(self):
        # Window 1: only the first job behind the head is considered.
        jobs = [
            job(1, submit=0.0, n_vms=2),
            job(2, submit=10.0, n_vms=4),  # blocked head
            job(3, submit=20.0, n_vms=3),  # scanned, does not fit (2 slots)
            job(4, submit=30.0, n_vms=1),  # outside window 1: must wait
        ]
        sim = DatacenterSimulator(DatacenterConfig(n_servers=1, backfill_window=1))
        result = sim.run(jobs, FirstFitStrategy(1), QoSPolicy.unlimited())
        completions = {o.job_id: o.completion_time_s for o in result.outcomes}
        assert completions[4] > completions[2]  # no backfill for job 4

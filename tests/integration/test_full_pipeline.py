"""Integration tests: the complete paper pipeline end to end.

profiling -> campaign -> CSV database on disk -> allocator ->
trace generation -> cleaning -> assignment -> simulation -> metrics.
"""

import pytest

from repro.campaign.platformrunner import run_campaign
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.model import ModelDatabase
from repro.profiling.profiler import ApplicationProfiler
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.proactive import ProactiveStrategy
from repro.strategies.slotfit import FirstFitStrategy
from repro.testbed.benchmarks import BENCHMARKS, canonical_benchmark
from repro.workloads.assignment import assign_profiles_and_vms, truncate_to_vm_budget
from repro.workloads.cleaning import clean_trace
from repro.workloads.qos import QoSPolicy
from repro.workloads.synthetic import EGEETraceConfig, generate_egee_like_trace


class TestFullPipeline:
    def test_profile_campaign_allocate_simulate(self, tmp_path):
        # 1. Profile the benchmark suite; classes must match the suite's
        #    declared labels (the allocator consumes these).
        profiler = ApplicationProfiler()
        for spec in BENCHMARKS.values():
            report = profiler.profile(spec)
            assert report.workload_class is spec.workload_class

        # 2. Run the campaign and persist the model as the paper does.
        campaign = run_campaign()
        db_path, aux_path = campaign.save(tmp_path)

        # 3. Reload from the plain-text files.
        database = ModelDatabase.from_files(db_path, aux_path)
        assert len(database) == len(campaign.records)

        # 4. Allocate a mixed batch through the reloaded model.
        requests = [
            VMRequest("c0", "cpu"),
            VMRequest("c1", "cpu"),
            VMRequest("m0", "mem"),
            VMRequest("i0", "io"),
        ]
        plan = ProactiveAllocator(database, alpha=0.5).allocate(
            requests, [ServerState("s0"), ServerState("s1")]
        )
        assert plan.n_vms == 4

        # 5. Generate, clean and complete a small trace.
        raw = generate_egee_like_trace(EGEETraceConfig(n_jobs=300), rng=11)
        cleaned, report = clean_trace(raw)
        assert report.total - report.kept > 0
        jobs = truncate_to_vm_budget(assign_profiles_and_vms(cleaned, rng=12), 400)

        # 6. Simulate with both a baseline and the proactive strategy
        #    on a lightly loaded cluster, where consolidation's energy
        #    advantage is unambiguous.
        sim = DatacenterSimulator(DatacenterConfig(n_servers=10))
        qos = QoSPolicy.from_optima(campaign.optima, factor=4.0)
        ff = sim.run(jobs, FirstFitStrategy(1), qos)
        pa = sim.run(jobs, ProactiveStrategy(database, alpha=1.0), qos)

        assert ff.metrics.n_jobs == pa.metrics.n_jobs == len(jobs)
        # The headline direction: proactive saves energy.
        assert pa.metrics.energy_j < ff.metrics.energy_j

    def test_database_drives_consistent_estimates(self, database):
        # The simulator's physics and the DB estimates must agree on
        # solo runs (the DB was built from the same physics).
        for workload_class in ("cpu", "mem", "io"):
            benchmark = canonical_benchmark(workload_class)
            key = {
                "cpu": (1, 0, 0),
                "mem": (0, 1, 0),
                "io": (0, 0, 1),
            }[workload_class]
            estimate = database.estimate(key)
            assert estimate.time_s == pytest.approx(benchmark.t_ref_s, rel=1e-6)

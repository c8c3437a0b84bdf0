"""Property-based tests for simulation conservation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.slotfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


@st.composite
def job_batches(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    jobs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=400.0))
        jobs.append(
            PreparedJob(
                job_id=i + 1,
                submit_time_s=t,
                workload_class=draw(st.sampled_from(list(WorkloadClass))),
                n_vms=draw(st.integers(min_value=1, max_value=4)),
                burst_id=i,
            )
        )
    return jobs


class TestSimulationInvariants:
    @given(job_batches(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_ordering(self, jobs, n_servers, multiplex):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=n_servers))
        result = sim.run(jobs, FirstFitStrategy(multiplex), QoSPolicy.unlimited())

        # Every job completes exactly once.
        assert sorted(o.job_id for o in result.outcomes) == sorted(j.job_id for j in jobs)
        # Completions never precede submissions (causality).
        for outcome in result.outcomes:
            assert outcome.completion_time_s > outcome.submit_time_s
        # Each job runs at least its class's solo reference time.
        reference = {"cpu": 600.0, "mem": 700.0, "io": 800.0}
        for outcome in result.outcomes:
            assert outcome.response_time_s >= reference[outcome.workload_class] * 0.999
        # Energy is positive and split consistently.
        metrics = result.metrics
        assert metrics.energy_j > 0
        assert metrics.energy_j == metrics.busy_energy_j + metrics.idle_energy_j
        # Makespan covers the latest completion.
        last = max(o.completion_time_s for o in result.outcomes)
        first_submit = min(o.submit_time_s for o in result.outcomes)
        assert metrics.makespan_s == last - first_submit

    @given(job_batches())
    @settings(max_examples=15, deadline=None)
    def test_more_servers_never_hurt_makespan(self, jobs):
        small = DatacenterSimulator(DatacenterConfig(n_servers=1))
        large = DatacenterSimulator(DatacenterConfig(n_servers=4))
        strategy = FirstFitStrategy(1)
        unlimited = QoSPolicy.unlimited()
        makespan_small = small.run(jobs, strategy, unlimited).metrics.makespan_s
        makespan_large = large.run(jobs, strategy, unlimited).metrics.makespan_s
        assert makespan_large <= makespan_small + 1e-6

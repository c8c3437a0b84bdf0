"""Property-based chaos tests for the fault-injection subsystem.

Randomized seeded fault schedules against small simulated clusters,
pinned to the invariants the subsystem promises: materialization is a
pure function of (spec, n_servers); every timeline entry is logged
exactly once; lost work is only ever attributed to applied evictions;
faulted runs are deterministic; schedules that cannot produce a
simulator fault leave the run bit-identical to a fault-free one; and
capacity-removing faults can only add SLA violations, never remove
them (the corpus is fixed via ``derandomize`` -- this is an invariant
of the generated schedules, exercised broadly rather than proven).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSpec,
    RandomFaults,
    materialize,
)
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

N_SERVERS = 2

times = st.floats(min_value=0.0, max_value=1500.0, allow_nan=False)


@st.composite
def fault_specs(draw):
    """Arbitrary *valid* specs (any kind, any target), for pure-data laws."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(list(FaultKind)))
        if kind in (FaultKind.SERVER_CRASH, FaultKind.SERVER_RECOVER):
            events.append(
                FaultEvent(
                    kind=kind,
                    time_s=draw(times),
                    server=draw(st.integers(min_value=0, max_value=N_SERVERS - 1)),
                )
            )
        elif kind is FaultKind.SLOWDOWN:
            events.append(
                FaultEvent(
                    kind=kind,
                    time_s=draw(times),
                    server=draw(st.integers(min_value=0, max_value=N_SERVERS - 1)),
                    duration_s=draw(st.floats(min_value=1.0, max_value=400.0)),
                    factor=draw(st.floats(min_value=1.0, max_value=4.0)),
                )
            )
        elif kind is FaultKind.VM_ABORT:
            events.append(
                FaultEvent(
                    kind=kind,
                    time_s=draw(times),
                    vm=f"j{draw(st.integers(min_value=1, max_value=5))}-0",
                )
            )
        else:
            events.append(
                FaultEvent(
                    kind=kind,
                    task=draw(st.integers(min_value=0, max_value=10)),
                    times=draw(st.integers(min_value=1, max_value=4)),
                )
            )
    random = None
    if draw(st.booleans()):
        random = RandomFaults(
            crash_rate_per_1000s=draw(st.floats(min_value=0.0, max_value=10.0)),
            window_t1_s=draw(st.floats(min_value=100.0, max_value=2000.0)),
            recover_after_s=draw(
                st.one_of(st.none(), st.floats(min_value=1.0, max_value=300.0))
            ),
        )
    return FaultSpec(
        events=tuple(events),
        random=random,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@st.composite
def feasible_chaos(draw):
    """Schedules the 2-server cluster always survives: server 0 never
    crashes and every crash of server 1 is followed by a recovery."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        crash_t = draw(times)
        events.append(
            FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=crash_t, server=1)
        )
        events.append(
            FaultEvent(
                kind=FaultKind.SERVER_RECOVER,
                time_s=crash_t + draw(st.floats(min_value=1.0, max_value=300.0)),
                server=1,
            )
        )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        events.append(
            FaultEvent(
                kind=FaultKind.SLOWDOWN,
                time_s=draw(times),
                server=draw(st.integers(min_value=0, max_value=1)),
                duration_s=draw(st.floats(min_value=1.0, max_value=300.0)),
                factor=draw(st.floats(min_value=1.0, max_value=3.0)),
            )
        )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        events.append(
            FaultEvent(
                kind=FaultKind.VM_ABORT,
                time_s=draw(times),
                vm=f"j{draw(st.integers(min_value=1, max_value=4))}-0",
            )
        )
    return FaultSpec(events=tuple(events))


@st.composite
def workloads(draw):
    jobs = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        jobs.append(
            PreparedJob(
                job_id=i + 1,
                submit_time_s=draw(st.floats(min_value=0.0, max_value=400.0)),
                workload_class=draw(st.sampled_from(list(WorkloadClass))),
                n_vms=draw(st.integers(min_value=1, max_value=3)),
                burst_id=i,
            )
        )
    return jobs


def run(jobs, spec=None):
    simulator = DatacenterSimulator(DatacenterConfig(n_servers=N_SERVERS))
    schedule = materialize(spec, N_SERVERS) if spec is not None else None
    return simulator.run(
        jobs,
        FirstFitStrategy(1),
        QoSPolicy(max_response_s={wc: 1500.0 for wc in WorkloadClass}),
        faults=schedule,
    )


class TestSpecDataLaws:
    @given(fault_specs())
    @settings(max_examples=60, derandomize=True)
    def test_dict_round_trip(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @given(fault_specs())
    @settings(max_examples=40, derandomize=True)
    def test_materialization_is_pure(self, spec):
        assert materialize(spec, N_SERVERS) == materialize(spec, N_SERVERS)

    @given(fault_specs())
    @settings(max_examples=40, derandomize=True)
    def test_timeline_sorted_and_in_range(self, spec):
        schedule = materialize(spec, N_SERVERS)
        timestamps = [entry.time_s for entry in schedule.timeline]
        assert timestamps == sorted(timestamps)
        assert all(
            entry.server is None or 0 <= entry.server < N_SERVERS
            for entry in schedule.timeline
        )


class TestChaosInvariants:
    @given(workloads(), feasible_chaos())
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_every_job_completes_and_log_covers_timeline(self, jobs, spec):
        schedule = materialize(spec, N_SERVERS)
        result = run(jobs, spec)
        assert result.metrics.n_jobs == len(jobs)
        assert len(result.fault_log) == len(schedule.timeline)

    @given(workloads(), feasible_chaos())
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_lost_work_only_from_applied_evictions(self, jobs, spec):
        known = {f"j{job.job_id}-{k}" for job in jobs for k in range(job.n_vms)}
        result = run(jobs, spec)
        for record in result.fault_log:
            assert record.lost_work_s >= 0.0
            assert set(record.vm_ids) <= known
            if record.lost_work_s > 0.0:
                assert record.applied
                assert record.vm_ids
            if not record.applied:
                assert record.vm_ids == ()
                assert record.detail  # every no-op explains itself

    @given(workloads(), feasible_chaos())
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_faulted_run_is_deterministic(self, jobs, spec):
        first = run(jobs, spec)
        second = run(jobs, spec)
        assert first.outcomes == second.outcomes
        assert first.metrics == second.metrics
        assert first.fault_log == second.fault_log

    @given(workloads(), feasible_chaos())
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_faults_never_remove_sla_violations(self, jobs, spec):
        plain = run(jobs)
        faulted = run(jobs, spec)
        assert faulted.metrics.sla_violations >= plain.metrics.sla_violations

    @given(workloads(), st.integers(min_value=0, max_value=10))
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_worker_failure_only_specs_are_sim_inert(self, jobs, task):
        plain = run(jobs)
        inert = run(
            jobs,
            FaultSpec(
                events=(FaultEvent(kind=FaultKind.WORKER_FAILURE, task=task, times=2),)
            ),
        )
        assert inert == plain
        assert inert.fault_log == ()

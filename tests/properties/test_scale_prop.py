"""Property tests for the scaled simulation core (PR 9).

Three families of randomized evidence:

* the indexed event loop (cached views, O(1) counters, free-capacity
  candidates, PROACTIVE class buckets) is *bit-identical* to the
  retained naive reference on random worlds, including under random
  fault schedules;
* the chronicles' incremental aggregates equal a naive recomputation
  over the full interval log, exactly (same operand order);
* the cluster index never drifts from ground truth under random
  event storms driven through the real ServerRuntime mutation API.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.faults import random_crash_spec, materialize
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.sim.index import ClusterIndex
from repro.sim.server import ServerRuntime
from repro.sim.shard import ShardPlan, partition_jobs, partition_schedule
from repro.sim.vm import SimVM
from repro.strategies.bestfit import BestFitStrategy
from repro.strategies.firstfit import FirstFitStrategy
from repro.strategies.proactive import ProactiveStrategy
from repro.strategies.worstfit import WorstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

STRATEGIES = {
    "FF": FirstFitStrategy,
    "BF": BestFitStrategy,
    "WF": WorstFitStrategy,
}

#: PROACTIVE goals: PA-0 (time), PA-0.5, PA-1 (energy).
PA_ALPHAS = (0.0, 0.5, 1.0)


@st.composite
def job_batches(draw, max_jobs=10):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=500.0))
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


def run(
    jobs, *, indexed, n_servers, strategy, faults=None, chronicles=False, qos=None
):
    config = DatacenterConfig(
        n_servers=n_servers, indexed=indexed, record_chronicles=chronicles
    )
    schedule = materialize(faults, n_servers) if faults is not None else None
    sim = DatacenterSimulator(config)
    policy = QoSPolicy.unlimited() if qos is None else qos
    return sim.run(jobs, strategy, policy, faults=schedule)


def run_both(jobs, **kwargs):
    """Naive and indexed outcomes; a refusal (stranded jobs) counts as
    the outcome ``("error", message)``."""
    results = []
    for indexed in (False, True):
        try:
            outcome = run(jobs, indexed=indexed, **kwargs)
        except SimulationError as error:
            outcome = ("error", str(error))
        results.append(outcome)
    return results


class TestIndexedBitIdentity:
    @given(
        job_batches(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(sorted(STRATEGIES)),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_indexed_equals_naive(self, jobs, n_servers, name, multiplex):
        strategy = STRATEGIES[name](multiplex)
        naive = run(jobs, indexed=False, n_servers=n_servers, strategy=strategy)
        fast = run(jobs, indexed=True, n_servers=n_servers, strategy=strategy)
        assert fast == naive  # outcomes, metrics, energies: exact

    @given(
        job_batches(max_jobs=8),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.5, max_value=8.0),
        st.sampled_from([None, 60.0, 600.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_indexed_equals_naive_under_faults(
        self, jobs, n_servers, seed, rate, recover
    ):
        spec = random_crash_spec(
            seed=seed,
            crash_rate_per_1000s=rate,
            window_s=(0.0, 5000.0),
            recover_after_s=recover,
        )
        # Unrecovered crashes can strand jobs forever; both modes must
        # then refuse identically.
        results = run_both(
            jobs, n_servers=n_servers, strategy=FirstFitStrategy(2), faults=spec
        )
        assert results[0] == results[1]
        if not isinstance(results[0], tuple):
            assert results[0].fault_log == results[1].fault_log

    # PROACTIVE reaches its class heads through the views' buckets when
    # indexed and through one pass over a fresh list when naive.

    @given(
        job_batches(max_jobs=6),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(PA_ALPHAS),
        st.sampled_from([None, 1.5, 4.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_proactive_indexed_equals_naive(
        self, database, jobs, n_servers, alpha, qos_factor
    ):
        qos = (
            None
            if qos_factor is None
            else QoSPolicy.from_optima(database.optima, factor=qos_factor)
        )
        strategy = ProactiveStrategy(database, alpha=alpha)
        world = dict(n_servers=n_servers, strategy=strategy, qos=qos)
        naive = run(jobs, indexed=False, **world)
        fast = run(jobs, indexed=True, **world)
        assert fast == naive

    @given(
        job_batches(max_jobs=6),
        st.integers(min_value=2, max_value=5),
        st.sampled_from(PA_ALPHAS),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_proactive_indexed_equals_naive_under_faults(
        self, database, jobs, n_servers, alpha, seed, rate
    ):
        # Every fail/recover resets the views, so the buckets are
        # rebuilt from the new membership on the next placement.
        spec = random_crash_spec(
            seed=seed,
            crash_rate_per_1000s=rate,
            window_s=(0.0, 5000.0),
            recover_after_s=60.0,
        )
        results = run_both(
            jobs,
            n_servers=n_servers,
            strategy=ProactiveStrategy(database, alpha=alpha),
            faults=spec,
        )
        assert results[0] == results[1]
        if not isinstance(results[0], tuple):
            assert results[0].fault_log == results[1].fault_log


class TestIncrementalAccounting:
    @given(
        job_batches(max_jobs=8),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_running_aggregates_equal_naive_recomputation(self, jobs, n_servers):
        result = run(
            jobs,
            indexed=True,
            n_servers=n_servers,
            strategy=FirstFitStrategy(2),
            chronicles=True,
        )
        for chronicle in result.chronicles:
            intervals = list(chronicle.iter_all())
            # Exact equality: the running sums fold the same operands
            # in the same order as these recomputations.
            assert chronicle.total_energy_j() == sum(i.energy_j for i in intervals)
            assert chronicle.busy_energy_j() == sum(
                i.energy_j for i in intervals if i.vm_ids
            )
            assert chronicle.idle_energy_j() == sum(
                i.energy_j for i in intervals if not i.vm_ids
            )
            vms = {vm for i in intervals for vm in i.vm_ids}
            for vm in vms:
                assert chronicle.vm_execution_time_s(vm) == sum(
                    i.duration_s for i in intervals if vm in i.vm_ids
                )


class TestIndexDriftStorm:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_audit_clean_after_random_event_storm(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        servers = [
            ServerRuntime(f"s{i:04d}", default_server()) for i in range(n)
        ]
        cluster = ClusterIndex(n)
        for slot, server in enumerate(servers):
            server.bind_index(cluster, slot)
        now = 0.0
        counter = 0
        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            now += data.draw(st.floats(min_value=0.1, max_value=50.0))
            slot = data.draw(st.integers(min_value=0, max_value=n - 1))
            server = servers[slot]
            op = data.draw(st.sampled_from(["add", "sync", "fail", "recover", "power"]))
            server.sync(now)  # the driver's pre-mutation contract
            if op == "add" and not server.failed and server.n_vms < 8:
                counter += 1
                vm = SimVM(
                    vm_id=f"v{counter}",
                    job_id=counter,
                    workload_class=data.draw(st.sampled_from(list(WorkloadClass))),
                    submit_time_s=now,
                )
                server.add_vm(vm, now)
            elif op == "fail" and not server.failed:
                server.fail(now)
            elif op == "recover" and server.failed:
                server.recover(now)
            elif op == "power" and not server.failed and server.n_vms == 0:
                server.power_on(now)
            assert cluster.audit(servers) == []
        assert cluster.active_vms == sum(s.n_vms for s in servers)


class TestShardPartitionLaws:
    @given(
        job_batches(max_jobs=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_jobs_partition_exactly(self, jobs, n_shards, extra_servers):
        n_servers = n_shards + extra_servers - 1
        plan = ShardPlan(n_servers=n_servers, n_shards=n_shards)
        groups, job_to_shard = partition_jobs(jobs, plan)
        # Every job appears exactly once, on the shard the map names.
        seen = sorted(j.job_id for group in groups for j in group)
        assert seen == sorted(j.job_id for j in jobs)
        for shard, group in enumerate(groups):
            assert all(job_to_shard[j.job_id] == shard for j in group)
        # The server ranges partition the cluster.
        covered = [
            plan.offset(s) + i for s in range(n_shards) for i in range(plan.size(s))
        ]
        assert covered == list(range(n_servers))

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fault_timeline_partitions_exactly(self, seed, n_servers, n_shards, rate):
        if n_shards > n_servers:
            n_shards = n_servers
        spec = random_crash_spec(
            seed=seed, crash_rate_per_1000s=rate, recover_after_s=60.0
        )
        schedule = materialize(spec, n_servers)
        plan = ShardPlan(n_servers=n_servers, n_shards=n_shards)
        shards = partition_schedule(schedule, plan, {})
        assert sum(len(s.timeline) for s in shards) == len(schedule.timeline)
        rebuilt = []
        for shard_id, shard in enumerate(shards):
            for entry in shard.timeline:
                assert 0 <= entry.server < plan.size(shard_id)
                rebuilt.append(
                    (entry.time_s, entry.action, entry.server + plan.offset(shard_id))
                )
        original = [(e.time_s, e.action, e.server) for e in schedule.timeline]
        assert sorted(rebuilt) == sorted(original)

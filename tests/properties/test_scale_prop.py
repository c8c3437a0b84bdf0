"""Property tests for the scaled simulation core.

Four families of randomized evidence:

* the indexed event loop (cached views, O(1) counters, free-capacity
  candidates, PROACTIVE class buckets, memoized mix physics) is
  *bit-identical* to the naive oracle (``tests/oracles/sim.py``) on
  random worlds, including under random fault schedules;
* the oracle really is naive: plain view lists, no physics memo;
* each server's energy account equals a recomputation from its
  chronicle's full interval log, across ring/spill, faults and shards;
* the cluster index never drifts from ground truth under random
  event storms driven through the real ServerRuntime mutation API.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.exec.sharded import run_sharded
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
from tests.oracles.sim import NaiveDatacenterSimulator, NaiveServerRuntime

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


def run(jobs, *, naive, n_servers, strategy, faults=None, qos=None):
    """One run on the naive oracle (``naive=True``) or the simulator."""
    config = DatacenterConfig(n_servers=n_servers)
    schedule = materialize(faults, n_servers) if faults is not None else None
    simulator = NaiveDatacenterSimulator if naive else DatacenterSimulator
    policy = QoSPolicy.unlimited() if qos is None else qos
    return simulator(config).run(jobs, strategy, policy, faults=schedule)


def run_both(jobs, **kwargs):
    """Naive and indexed outcomes; a refusal (stranded jobs) counts as
    the outcome ``("error", message)``."""
    results = []
    for naive in (True, False):
        try:
            outcome = run(jobs, naive=naive, **kwargs)
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
        naive = run(jobs, naive=True, n_servers=n_servers, strategy=strategy)
        fast = run(jobs, naive=False, n_servers=n_servers, strategy=strategy)
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
    @example(
        # PROACTIVE refuses a 4-VM MEM job under a 1.5x deadline on one
        # idle server: both modes must refuse with the same message.
        jobs=[
            PreparedJob(
                job_id=1,
                submit_time_s=0.0,
                workload_class=WorkloadClass.MEM,
                n_vms=4,
                burst_id=0,
            )
        ],
        n_servers=1,
        alpha=0.0,
        qos_factor=1.5,
    )
    def test_proactive_indexed_equals_naive(
        self, database, jobs, n_servers, alpha, qos_factor
    ):
        qos = (
            None
            if qos_factor is None
            else QoSPolicy.from_optima(database.optima, factor=qos_factor)
        )
        strategy = ProactiveStrategy(database, alpha=alpha)
        results = run_both(jobs, n_servers=n_servers, strategy=strategy, qos=qos)
        assert results[0] == results[1]

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


class RecordingNaiveServer(NaiveServerRuntime):
    """Checks, at every sync, that the oracle server keeps no physics
    entry or memo, assigns no kind codes and interns no kinds."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances.append(self)

    def sync(self, now_s):
        finished = super().sync(now_s)
        assert self._physics is None
        assert not self._mix_cache
        assert self._codes is None
        assert not self._kinds.records
        return finished


class RecordingNaiveSimulator(NaiveDatacenterSimulator):
    _server_type = RecordingNaiveServer


class TestOracleIsNaive:
    """Without these checks the oracle could quietly become the
    optimized path, and the identity suites above would be vacuous."""

    @given(
        job_batches(max_jobs=8),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(sorted(STRATEGIES)),
    )
    @settings(max_examples=15, deadline=None)
    def test_oracle_hands_plain_lists_and_never_memoizes(self, jobs, n_servers, name):
        handed = []

        class Spy(STRATEGIES[name]):
            def place(self, vms, servers):
                handed.append(servers)
                return super().place(vms, servers)

        RecordingNaiveServer.instances = []
        config = DatacenterConfig(n_servers=n_servers)
        RecordingNaiveSimulator(config).run(jobs, Spy(2), QoSPolicy.unlimited())
        assert handed
        assert all(type(servers) is list for servers in handed)
        assert len(RecordingNaiveServer.instances) == n_servers
        assert all(server._cluster is None for server in RecordingNaiveServer.instances)


class TestChronicleConservation:
    """The server is the one energy account; every chronicle, however
    it was kept, replays to the same books."""

    @given(
        job_batches(max_jobs=8),
        st.integers(min_value=3, max_value=5),
        st.sampled_from(["unbounded", "ring+spill", "crashes", "shards"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_server_energy_equals_chronicle_replay(
        self, tmp_path_factory, jobs, n_servers, feature, always_on, seed
    ):
        spill = str(tmp_path_factory.mktemp("spill") / "spill.jsonl")
        bounded = feature != "unbounded"
        config = DatacenterConfig(
            n_servers=n_servers,
            power_off_when_empty=not always_on,
            record_chronicles=True,
            chronicle_capacity=2 if bounded else None,
            chronicle_spill_path=spill if bounded else None,
        )
        strategy = FirstFitStrategy(2)
        qos = QoSPolicy.unlimited()
        if feature == "shards":
            result = run_sharded(jobs, strategy, qos, config, shards=3, workers=1)
        else:
            schedule = None
            if feature == "crashes":
                spec = random_crash_spec(
                    seed=seed,
                    crash_rate_per_1000s=4.0,
                    window_s=(0.0, 5000.0),
                    recover_after_s=60.0,
                )
                schedule = materialize(spec, n_servers)
            result = DatacenterSimulator(config).run(
                jobs, strategy, qos, faults=schedule
            )
        # Not bit-exact for busy energy: the chronicle prices
        # power * (t1 - t0), the server power * step.
        assert len(result.chronicles) == n_servers
        for chronicle, busy, idle in zip(
            result.chronicles, result.per_server_busy_j, result.per_server_idle_j
        ):
            intervals = list(chronicle.iter_all())
            assert len(intervals) == chronicle.n_recorded
            assert sum(i.energy_j for i in intervals if i.vm_ids) == pytest.approx(
                busy, rel=1e-9, abs=1e-9
            )
            assert sum(i.energy_j for i in intervals if not i.vm_ids) == pytest.approx(
                idle, rel=1e-9, abs=1e-9
            )
            for vm in {vm for i in intervals for vm in i.vm_ids}:
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

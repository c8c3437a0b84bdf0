"""Unit tests for the incremental cluster indexes (repro.sim.index)."""

import json
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import class_heads
from repro.obs.runtime import Observability
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.sim.index import ClusterIndex, ServerViews, _BLOCK
from repro.strategies.base import ServerView
from repro.strategies.firstfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.sim import NaiveDatacenterSimulator, audit_index


def view(i, ncpu=0, nmem=0, nio=0, powered=True, cpu_slots=2, max_vms=12):
    return ServerView(
        server_id=f"s{i:04d}",
        mix=(ncpu, nmem, nio),
        max_vms=max_vms,
        cpu_slots=cpu_slots,
        powered_on=powered,
    )


class TestClusterIndex:
    def test_starts_empty_and_stale(self):
        index = ClusterIndex(4)
        assert (index.powered, index.active_vms, index.failed) == (0, 0, 0)
        assert index.members_stale
        assert index.dirty == set()

    def test_counters_track_mutations(self):
        index = ClusterIndex(3)
        index.on_power(0, True)
        index.on_host(0)
        index.on_host(0)
        index.on_power(1, True)
        index.on_host(1)
        assert (index.powered, index.active_vms) == (2, 3)
        index.on_unhost(0)
        index.on_power(1, False)
        assert (index.powered, index.active_vms) == (1, 2)
        assert index.dirty == {0, 1}

    def test_failure_flips_membership(self):
        index = ClusterIndex(2)
        index.members_stale = False
        index.on_failure(1, True)
        assert index.failed == 1
        assert index.members_stale
        index.members_stale = False
        index.on_failure(1, False)
        assert index.failed == 0
        assert index.members_stale

    def test_adopt_folds_existing_state(self):
        index = ClusterIndex(2)
        index.adopt(0, powered=True, n_vms=3, failed=False)
        index.adopt(1, powered=False, n_vms=0, failed=True)
        assert (index.powered, index.active_vms, index.failed) == (1, 3, 1)

    def test_audit_reports_drift(self):
        class Stub:
            def __init__(self, powered_on, n_vms, failed):
                self.powered_on = powered_on
                self.n_vms = n_vms
                self.failed = failed

        index = ClusterIndex(2)
        servers = [Stub(True, 2, False), Stub(False, 0, True)]
        assert audit_index(index, servers)  # all three counters are off
        index.adopt(0, powered=True, n_vms=2, failed=False)
        index.adopt(1, powered=False, n_vms=0, failed=True)
        assert audit_index(index, servers) == []
        index.on_host(0)  # drift injected: no VM actually appeared
        problems = audit_index(index, servers)
        assert len(problems) == 1 and "active_vms" in problems[0]


class TestServerViews:
    def test_free_candidates_skips_full_servers(self):
        views = ServerViews()
        views.append(view(0, ncpu=4))  # budget 4 under multiplex 2: full
        views.append(view(1, ncpu=1))
        views.append(view(2))
        got = list(views.free_candidates(2))
        assert [(v.server_id, slots) for v, slots in got] == [
            ("s0001", 3),
            ("s0002", 4),
        ]

    def test_refresh_propagates_to_every_level(self):
        views = ServerViews()
        views.append(view(0))
        views.append(view(1))
        assert [s for _, s in views.free_candidates(1)] == [2, 2]
        assert [s for _, s in views.free_candidates(3)] == [6, 6]
        views[0] = view(0, ncpu=2)
        views.refresh(0)
        assert [s for _, s in views.free_candidates(1)] == [2]
        assert [s for _, s in views.free_candidates(3)] == [4, 6]

    def test_reset_forgets_views_and_levels(self):
        views = ServerViews()
        views.append(view(0))
        list(views.free_candidates(1))
        views.reset()
        assert len(views) == 0
        assert views._levels == {}

    def test_block_skipping_preserves_list_order(self):
        # Spread candidates across several 64-view blocks, with the
        # first block entirely full, and check the iterator still
        # yields exactly the feasible views in list order.
        views = ServerViews()
        n = _BLOCK * 2 + 7
        for i in range(n):
            full = i < _BLOCK or i % 5 == 0
            views.append(view(i, ncpu=2 if full else 1, cpu_slots=1, max_vms=2))
        expected = [f"s{i:04d}" for i in range(n) if not (i < _BLOCK or i % 5 == 0)]
        got = [v.server_id for v, slots in views.free_candidates(2)]
        assert got == expected
        assert all(s == 1 for _, s in views.free_candidates(2))

    def test_refresh_keeps_block_occupancy_consistent(self):
        views = ServerViews()
        for i in range(3):
            views.append(view(i, cpu_slots=1, max_vms=2))
        assert len(list(views.free_candidates(1))) == 3
        # Fill server 1 completely, then drain it again.
        views[1] = view(1, ncpu=1, cpu_slots=1, max_vms=2)
        views.refresh(1)
        assert [v.server_id for v, _ in views.free_candidates(1)] == ["s0000", "s0002"]
        views[1] = view(1, cpu_slots=1, max_vms=2)
        views.refresh(1)
        assert len(list(views.free_candidates(1))) == 3


#: The allocator's grouping of a view: (residual mix, VM cap).
_VIEW_CLASS = attrgetter("mix", "max_vms")

#: Few mixes and caps, so classes collide and buckets exceed the limits.
_small_views = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([6, 12]),
)


class TestClassBuckets:
    @staticmethod
    def assert_heads_match(views):
        for limit in range(1, 7):
            assert views.class_heads(limit) == class_heads(views, _VIEW_CLASS, limit)

    @given(
        st.lists(_small_views, max_size=12),
        st.lists(
            st.tuples(
                st.sampled_from(["refresh", "refresh", "refresh", "reset"]),
                st.integers(min_value=0, max_value=11),
                _small_views,
                st.lists(_small_views, max_size=12),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_hook_equals_core_after_every_step(self, initial, steps):
        views = ServerViews()
        for i, (ncpu, nmem, max_vms) in enumerate(initial):
            views.append(view(i, ncpu=ncpu, nmem=nmem, max_vms=max_vms))
        self.assert_heads_match(views)
        for op, pos, (ncpu, nmem, max_vms), members in steps:
            if op == "reset":
                views.reset()
                for i, (c, m, cap) in enumerate(members):
                    views.append(view(i, ncpu=c, nmem=m, max_vms=cap))
            elif views:
                pos %= len(views)
                views[pos] = view(pos, ncpu=ncpu, nmem=nmem, max_vms=max_vms)
                views.refresh(pos)
            self.assert_heads_match(views)

    def test_stands_for_counts_every_view(self):
        views = ServerViews()
        for i in range(7):
            views.append(view(i, ncpu=i % 2))
        heads, stands_for = views.class_heads(2)
        assert [v.server_id for v in heads] == ["s0000", "s0001", "s0002", "s0003"]
        assert stands_for == [1, 1, 3, 2]
        assert sum(stands_for) == len(views)

    def test_limit_zero_keeps_each_class_first_member(self):
        views = ServerViews()
        for i in range(3):
            views.append(view(i))
        assert views.class_heads(0) == class_heads(views, _VIEW_CLASS, 0)
        assert views.class_heads(0)[1] == [3]

    def test_buckets_are_lazy(self):
        views = ServerViews()
        for i in range(4):
            views.append(view(i))
        list(views.free_candidates(2))
        views[1] = view(1, ncpu=1)
        views.refresh(1)
        assert views._buckets is None
        views.class_heads(1)
        assert views._buckets is not None
        views.reset()
        assert views._buckets is None

    def test_first_fit_run_never_builds_buckets(self):
        seen = []

        class Spy(FirstFitStrategy):
            def place(self, vms, servers):
                seen.append(servers)
                return super().place(vms, servers)

        sim = DatacenterSimulator(DatacenterConfig(n_servers=4))
        sim.run(_jobs(), Spy(2), QoSPolicy.unlimited())
        assert seen and all(isinstance(servers, ServerViews) for servers in seen)
        assert all(servers._buckets is None for servers in seen)


def _jobs():
    jobs = []
    classes = list(WorkloadClass)
    for i in range(9):
        jobs.append(
            PreparedJob(
                job_id=i + 1,
                submit_time_s=40.0 * i,
                workload_class=classes[i % len(classes)],
                n_vms=1 + (i % 3),
                burst_id=i // 3,
            )
        )
    return jobs


class TestIndexedRunEquivalence:
    def test_indexed_and_naive_snapshots_byte_identical(self):
        # The powered-servers gauge is fed from the O(1) counter by the
        # simulator and a full scan by the naive oracle; the metrics
        # snapshots (values, min/max, update counts) must still match
        # byte for byte.
        snapshots = []
        for simulator in (NaiveDatacenterSimulator, DatacenterSimulator):
            obs = Observability()
            sim = simulator(DatacenterConfig(n_servers=4), obs=obs)
            result = sim.run(_jobs(), FirstFitStrategy(2), QoSPolicy.unlimited())
            snapshots.append(
                (result, json.dumps(obs.snapshot(), sort_keys=True))
            )
        (naive_result, naive_snap), (indexed_result, indexed_snap) = snapshots
        assert indexed_result == naive_result
        assert indexed_result.per_server_busy_j == naive_result.per_server_busy_j
        assert indexed_snap == naive_snap

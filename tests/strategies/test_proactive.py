"""Unit tests for the PROACTIVE strategy wrapper."""

import pytest

from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.strategies.base import ServerView, VMDescriptor
from repro.strategies.proactive import ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass


def view(server_id="s0", mix=(0, 0, 0), max_vms=24):
    return ServerView(server_id=server_id, mix=mix, max_vms=max_vms, cpu_slots=4, powered_on=True)


def vms(n, workload_class=WorkloadClass.CPU, deadline=None):
    return [VMDescriptor(f"v{i}", workload_class, deadline) for i in range(n)]


class TestNaming:
    def test_paper_names(self, database):
        assert ProactiveStrategy(database, alpha=1.0).name == "PA-1"
        assert ProactiveStrategy(database, alpha=0.0).name == "PA-0"
        assert ProactiveStrategy(database, alpha=0.5).name == "PA-0.5"


class TestPlacement:
    def test_places_all_vms(self, database):
        placement = ProactiveStrategy(database).place(vms(4), [view("s0"), view("s1")])
        assert placement is not None
        assert len(placement) == 4

    def test_respects_grid_bounds(self, database):
        osm = database.grid_bounds[1]
        # More MEM VMs than one server's bound: must use both servers.
        placement = ProactiveStrategy(database).place(
            vms(osm + 1, WorkloadClass.MEM), [view("s0"), view("s1")]
        )
        assert len(set(placement.values())) == 2

    def test_none_when_grid_exhausted(self, database):
        osc, osm, osi = database.grid_bounds
        full = view("s0", mix=(osc, osm, osi))
        assert ProactiveStrategy(database).place(vms(1), [full]) is None


class TestQoSAdmission:
    def test_waits_when_deadline_cannot_be_met_now(self, database):
        tc = database.reference_time(WorkloadClass.CPU)
        osc = database.grid_bounds[0]
        # Both servers loaded enough that adding 2 VMs breaks a modest
        # deadline, but the deadline itself is feasible on an idle box.
        busy = [view("s0", mix=(osc - 1, 0, 0)), view("s1", mix=(osc - 1, 0, 0))]
        strategy = ProactiveStrategy(database, alpha=0.0)
        placement = strategy.place(vms(2, deadline=tc * 1.05), busy)
        assert placement is None  # wait for drain

    def test_places_when_deadline_hopeless(self, database):
        tc = database.reference_time(WorkloadClass.CPU)
        strategy = ProactiveStrategy(database, alpha=0.0)
        # Remaining budget below the solo runtime: can never comply;
        # best-effort placement instead of waiting forever.
        placement = strategy.place(vms(2, deadline=tc * 0.5), [view("s0")])
        assert placement is not None

    def test_no_qos_mode_always_places(self, database):
        # Deadline-free VMs (what a run under QoSPolicy.unlimited() hands
        # the strategy) are placed on the busy servers the deadline
        # case above waits on.
        osc = database.grid_bounds[0]
        busy = [view("s0", mix=(osc - 1, 0, 0)), view("s1", mix=(osc - 1, 0, 0))]
        placement = ProactiveStrategy(database, alpha=0.0).place(vms(2), busy)
        assert placement is not None
        assert len(placement) == 2

    def test_compliant_placement_taken_when_available(self, database):
        tc = database.reference_time(WorkloadClass.CPU)
        strategy = ProactiveStrategy(database, alpha=0.0)
        placement = strategy.place(vms(2, deadline=tc * 3), [view("s0")])
        assert placement is not None


class TestGoalBehaviour:
    def test_energy_goal_consolidates_batch(self, database):
        placement = ProactiveStrategy(database, alpha=1.0).place(
            vms(4), [view(f"s{i}") for i in range(4)]
        )
        assert len(set(placement.values())) == 1

    def test_accessors(self, database):
        strategy = ProactiveStrategy(database, alpha=0.5)
        assert strategy.alpha == 0.5
        assert strategy.database is database


class TestSearchTelemetry:
    def test_last_plan_carries_search_provenance(self, database):
        strategy = ProactiveStrategy(database)
        assert strategy.last_plan is None
        strategy.place(vms(3), [view("s0"), view("s1")])
        assert strategy.last_plan is not None
        provenance = strategy.last_plan.search_provenance
        assert provenance is not None
        assert provenance.partitions_enumerated == 3

    def test_metrics_counters_accumulate(self, database):
        strategy = ProactiveStrategy(database)
        strategy.place(vms(2), [view("s0")])
        strategy.place(vms(3), [view("s0"), view("s1")])
        name = strategy.name
        registry = strategy.metrics
        assert registry.counter("strategy.plans", strategy=name).value == 2
        assert (
            registry.counter("strategy.partitions_enumerated", strategy=name).value
            == 2 + 3  # p(2) + p(3)
        )
        assert registry.counter("strategy.grid_hits", strategy=name).value > 0

    def test_instances_do_not_share_counters(self, database):
        first = ProactiveStrategy(database)
        second = ProactiveStrategy(database)
        first.place(vms(2), [view("s0")])
        assert second.metrics.counter("strategy.plans", strategy=second.name).value == 0


class TestClassHeads:
    """Placement depends on server classes, not on the server count."""

    MIXES = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1))

    BATCHES = {
        # Six CPU VMs land on six members of one class at every alpha.
        "cpu6": vms(6),
        "mixed": (
            vms(3)
            + [VMDescriptor(f"m{i}", WorkloadClass.MEM, None) for i in range(2)]
            + [VMDescriptor("i0", WorkloadClass.IO, None)]
        ),
    }

    def cluster(self, copies):
        # 65 servers cycling over five (mix, max_vms) classes, plus
        # ``copies`` servers repeating those classes at the end.
        classes = [self.MIXES[i % len(self.MIXES)] for i in range(65 + copies)]
        return [view(f"s{i}", mix=mix) for i, mix in enumerate(classes)]

    @pytest.mark.parametrize("batch_name", sorted(BATCHES))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_placement_independent_of_cluster_size(
        self, database, alpha, batch_name, monkeypatch
    ):
        batch = self.BATCHES[batch_name]
        offered = []
        allocate = ProactiveAllocator.allocate

        def spy(self, requests, servers):
            offered.append(len(servers))
            return allocate(self, requests, servers)

        monkeypatch.setattr(ProactiveAllocator, "allocate", spy)
        small = ProactiveStrategy(database, alpha=alpha).place(batch, self.cluster(0))
        large_cluster = self.cluster(585)
        large = ProactiveStrategy(database, alpha=alpha).place(batch, large_cluster)
        assert small is not None
        assert large == small
        assert len(offered) == 2
        assert all(n <= len(self.MIXES) * len(batch) for n in offered)

        requests = [VMRequest(vm.vm_id, vm.workload_class) for vm in batch]
        states = [
            ServerState(server.server_id, server.mix, server.max_vms)
            for server in large_cluster
        ]
        full = ProactiveAllocator(database, alpha=alpha).allocate(requests, states)
        assert full.placements() == large

"""Unit tests for the PROACTIVE strategy wrapper."""

import pytest

import repro.core.allocator as allocator_module
import repro.strategies.proactive as proactive_module
from repro.common.errors import AllocationError, ConfigurationError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.sim.index import ServerViews
from repro.strategies.base import ServerView, VMDescriptor
from repro.strategies.proactive import ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.capped import PowerCappedDatabase


def view(server_id="s0", mix=(0, 0, 0), max_vms=24):
    return ServerView(server_id=server_id, mix=mix, max_vms=max_vms, cpu_slots=4, powered_on=True)


def vms(n, workload_class=WorkloadClass.CPU, deadline=None):
    return [VMDescriptor(f"v{i}", workload_class, deadline) for i in range(n)]


class TestNaming:
    def test_paper_names(self, database):
        assert ProactiveStrategy(database, alpha=1.0).name == "PA-1"
        assert ProactiveStrategy(database, alpha=0.0).name == "PA-0"
        assert ProactiveStrategy(database, alpha=0.5).name == "PA-0.5"

    def test_per_server_mapping_is_a_typed_error(self, database):
        with pytest.raises(ConfigurationError, match="removed in 3.0"):
            ProactiveStrategy({"s0": database})


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

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_scan_per_placement_flat_in_cluster_size(
        self, database, alpha, monkeypatch
    ):
        # Items read to find the class heads, per placement: every item
        # a one-pass reduction scans, or the classes and heads the
        # views' buckets visit.  Counted, never timed.
        scans: list[int] = []

        def counted_pass(items, key, limit):
            scans[-1] += len(items)
            return core_pass(items, key, limit)

        def counted_hook(self, limit):
            heads, stands_for = hook(self, limit)
            scans[-1] += len(self._buckets) + len(heads)
            return heads, stands_for

        def counted_place(self, vms, servers):
            scans.append(0)
            return place(self, vms, servers)

        core_pass = allocator_module.class_heads
        hook = ServerViews.class_heads
        place = ProactiveStrategy.place
        monkeypatch.setattr(allocator_module, "class_heads", counted_pass)
        monkeypatch.setattr(proactive_module, "class_heads", counted_pass)
        monkeypatch.setattr(ServerViews, "class_heads", counted_hook)
        monkeypatch.setattr(ProactiveStrategy, "place", counted_place)

        classes = list(WorkloadClass)
        jobs = [
            PreparedJob(
                job_id=i + 1,
                submit_time_s=30.0 * i,
                workload_class=classes[i % len(classes)],
                n_vms=1 + i % 4,
                burst_id=i,
            )
            for i in range(12)
        ]
        per_size = {}
        for n_servers in (65, 650):
            scans.clear()
            result = DatacenterSimulator(DatacenterConfig(n_servers=n_servers)).run(
                jobs, ProactiveStrategy(database, alpha=alpha), QoSPolicy.unlimited()
            )
            per_size[n_servers] = (list(scans), result.metrics.makespan_s)
        assert len(per_size[65][0]) >= len(jobs)
        assert per_size[650] == per_size[65]
        assert max(per_size[650][0]) < 65

    @pytest.mark.parametrize("as_views", [False, True])
    def test_energy_fallbacks_count_offered_servers(self, database, as_views):
        # A power cap leaves mixes like (0, 6, 5) unestimable; all 20
        # such servers count, not just the heads the search keeps.
        powers = sorted(record.avg_power_w for record in database.records)
        capped = PowerCappedDatabase(database, powers[len(powers) // 2])
        offered = [view(f"u{i}", mix=(0, 6, 5)) for i in range(20)]
        offered += [view(f"s{i}") for i in range(5)]
        servers = ServerViews() if as_views else []
        servers.extend(offered)
        batch = vms(2)
        strategy = ProactiveStrategy(capped, alpha=0.5)
        assert strategy.place(batch, servers) is not None
        through_strategy = strategy.last_plan.search_provenance.energy_fallbacks

        direct = ProactiveAllocator(capped, alpha=0.5).allocate(
            [VMRequest(vm.vm_id, vm.workload_class) for vm in batch],
            [ServerState(v.server_id, v.mix, v.max_vms) for v in offered],
        )
        assert through_strategy == direct.search_provenance.energy_fallbacks == 20
        counter = strategy.metrics.counter(
            "strategy.energy_fallbacks", strategy=strategy.name
        )
        assert counter.value == 20

    @pytest.mark.parametrize("as_views", [False, True])
    def test_infeasible_message_counts_offered_servers(
        self, database, as_views, monkeypatch
    ):
        osc, osm, osi = database.grid_bounds
        offered = [view(f"s{i}", mix=(osc, osm, osi)) for i in range(130)]
        servers = ServerViews() if as_views else []
        servers.extend(offered)
        with pytest.raises(AllocationError) as direct:
            ProactiveAllocator(database).allocate(
                [VMRequest("v0", WorkloadClass.CPU)],
                [ServerState(v.server_id, v.mix, v.max_vms) for v in offered],
            )
        errors = []
        allocate = ProactiveAllocator.allocate

        def spy(self, requests, states):
            try:
                return allocate(self, requests, states)
            except AllocationError as error:
                errors.append(str(error))
                raise

        monkeypatch.setattr(ProactiveAllocator, "allocate", spy)
        assert ProactiveStrategy(database).place(vms(1), servers) is None
        assert errors == [str(direct.value)]
        assert "across 130 servers" in errors[0]


class TestHeadsAsSnapshots:
    """The strategy hands the allocator its views as they are; a plan
    equals the one a search over validated ServerStates returns."""

    def test_simulation_builds_no_server_states(self, database, monkeypatch):
        built = []
        post_init = ServerState.__post_init__

        def counting(self):
            built.append(self.server_id)
            post_init(self)

        monkeypatch.setattr(ServerState, "__post_init__", counting)
        classes = list(WorkloadClass)
        jobs = [
            PreparedJob(
                job_id=i + 1,
                submit_time_s=20.0 * i,
                workload_class=classes[i % len(classes)],
                n_vms=1 + i % 3,
                burst_id=i,
            )
            for i in range(9)
        ]
        qos = QoSPolicy(
            {c: 4.0 * database.reference_time(c) for c in WorkloadClass}
        )
        strategy = ProactiveStrategy(database, alpha=0.5)
        DatacenterSimulator(DatacenterConfig(n_servers=6)).run(jobs, strategy, qos)
        plans = strategy.metrics.counter("strategy.plans", strategy=strategy.name)
        assert plans.value >= len(jobs)
        assert built == []

    BATCHES = {
        "cpu4": vms(4),
        "mixed-deadlines": [
            VMDescriptor("c0", WorkloadClass.CPU, 5000.0),
            VMDescriptor("c1", WorkloadClass.CPU, 5000.0),
            VMDescriptor("m0", WorkloadClass.MEM, 8000.0),
            VMDescriptor("i0", WorkloadClass.IO, None),
        ],
    }

    @staticmethod
    def cluster():
        # Idle servers and three busy classes, each class with more
        # members than a batch has VMs.
        mixes = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 0), (2, 0, 0)]
        return [view(f"s{i}", mix=mixes[i % len(mixes)]) for i in range(30)]

    @staticmethod
    def assert_same_plan(strategy, placement, database, alpha, batch, servers):
        requests = [
            VMRequest(vm.vm_id, vm.workload_class, vm.remaining_deadline_s)
            for vm in batch
        ]
        states = [ServerState(v.server_id, v.mix, v.max_vms) for v in servers]
        expected = ProactiveAllocator(database, alpha=alpha).allocate(requests, states)
        assert placement == expected.placements()
        assert strategy.last_plan == expected
        assert (
            strategy.last_plan.search_provenance.as_dict()
            == expected.search_provenance.as_dict()
        )

    @pytest.mark.parametrize("batch_name", sorted(BATCHES))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_plain_list(self, database, alpha, batch_name):
        batch = self.BATCHES[batch_name]
        servers = self.cluster()
        strategy = ProactiveStrategy(database, alpha=alpha)
        placement = strategy.place(batch, servers)
        self.assert_same_plan(strategy, placement, database, alpha, batch, servers)

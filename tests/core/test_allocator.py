"""Unit tests for the proactive allocation algorithm."""

import json
from dataclasses import fields
from operator import attrgetter

import pytest

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord
from repro.common.errors import (
    ConfigurationError,
    InfeasibleAllocationError,
    QoSViolationError,
)
from repro.core.allocator import (
    ClassHeads,
    ProactiveAllocator,
    ServerState,
    VMRequest,
    bind_vm_ids,
    class_heads,
)
from repro.core.estimatecache import CacheStats
from repro.core.model import ModelDatabase
from repro.core.partitions import partition_family
from repro.core.plan import AllocationProvenance
from repro.core.scoring import CarbonContext
from repro.testbed.benchmarks import WorkloadClass
from tests.oracles.allocator import greedy_assign_streamed, reference_allocate


#: The allocator's server class (see core.allocator.class_heads).
_SERVER_CLASS = attrgetter("allocated", "max_vms")


def cpu_requests(n, deadline=None):
    return [VMRequest(f"c{i}", WorkloadClass.CPU, deadline) for i in range(n)]


def servers(n):
    return [ServerState(f"s{i}") for i in range(n)]


class TestValidation:
    def test_vm_request_fields(self):
        with pytest.raises(ConfigurationError):
            VMRequest("", WorkloadClass.CPU)
        with pytest.raises(ConfigurationError):
            VMRequest("a", WorkloadClass.CPU, max_exec_time_s=0.0)

    def test_vm_request_coerces_class_names(self):
        assert VMRequest("a", "io").workload_class is WorkloadClass.IO
        with pytest.raises(ValueError):
            VMRequest("a", "gpu")

    def test_server_state_fields(self):
        with pytest.raises(ConfigurationError):
            ServerState("")
        with pytest.raises(ConfigurationError):
            ServerState("s0", allocated=(-1, 0, 0))
        with pytest.raises(ConfigurationError):
            ServerState("s0", max_vms=0)

    def test_duplicate_vm_ids_rejected(self, database):
        allocator = ProactiveAllocator(database)
        requests = [VMRequest("x", WorkloadClass.CPU), VMRequest("x", WorkloadClass.CPU)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            allocator.allocate(requests, servers(2))

    def test_bad_alpha_rejected(self, database):
        with pytest.raises(ValueError):
            ProactiveAllocator(database, alpha=1.5)

    def test_bad_candidate_limit_rejected(self, database):
        with pytest.raises(ConfigurationError):
            ProactiveAllocator(database, max_candidates=0)

    def test_per_server_mapping_is_a_typed_error(self, database):
        with pytest.raises(ConfigurationError, match="removed in 3.0"):
            ProactiveAllocator({"s0": database, "s1": database})


class TestBasicAllocation:
    def test_empty_batch_is_empty_plan(self, database):
        plan = ProactiveAllocator(database).allocate([], servers(2))
        assert plan.assignments == ()
        assert plan.qos_satisfied

    def test_no_servers_raises(self, database):
        with pytest.raises(InfeasibleAllocationError):
            ProactiveAllocator(database).allocate(cpu_requests(1), [])

    def test_all_vms_placed_exactly_once(self, database):
        plan = ProactiveAllocator(database).allocate(cpu_requests(6), servers(3))
        placements = plan.placements()
        assert sorted(placements) == [f"c{i}" for i in range(6)]

    def test_blocks_respect_grid_bounds(self, database):
        osc, osm, osi = database.grid_bounds
        plan = ProactiveAllocator(database).allocate(cpu_requests(osc + 3), servers(4))
        for a in plan.assignments:
            assert database.within_bounds(a.combined_key)

    def test_existing_allocations_respected(self, database):
        osc = database.grid_bounds[0]
        # One server nearly full of CPU VMs: a big batch must spill over.
        busy = ServerState("busy", allocated=(osc - 1, 0, 0))
        idle = ServerState("idle")
        plan = ProactiveAllocator(database, alpha=0.0).allocate(
            cpu_requests(4), [busy, idle]
        )
        for a in plan.assignments:
            assert database.within_bounds(a.combined_key)
        assert any(a.server_id == "idle" for a in plan.assignments)

    def test_infeasible_when_everything_full(self, database):
        osc, osm, osi = database.grid_bounds
        full = [ServerState(f"s{i}", allocated=(osc, osm, osi)) for i in range(2)]
        with pytest.raises(InfeasibleAllocationError):
            ProactiveAllocator(database).allocate(cpu_requests(1), full)

    def test_infeasible_message_names_offered_servers(self, database):
        # The search runs on one class head here, but the message (which
        # the service puts in failed-batch records) counts every server.
        osc, osm, osi = database.grid_bounds
        full = [ServerState(f"s{i}", allocated=(osc, osm, osi)) for i in range(130)]
        with pytest.raises(InfeasibleAllocationError, match="across 130 servers"):
            ProactiveAllocator(database).allocate(cpu_requests(1), full)

    def test_class_heads_list_searched_as_is(self, database):
        # A caller's reduction replaces the allocator's own pass: same
        # plan, and the message still counts the offered servers.
        offered = servers(6) + [ServerState("full", allocated=database.grid_bounds)]
        heads, stands_for = class_heads(offered, _SERVER_CLASS, 2)
        reduced = ClassHeads(heads, stands_for, 2)
        assert len(reduced) == 3 and reduced.offered == 7
        allocator = ProactiveAllocator(database)
        plan = allocator.allocate(cpu_requests(2), reduced)
        full_plan = allocator.allocate(cpu_requests(2), offered)
        assert plan.placements() == full_plan.placements()
        with pytest.raises(ConfigurationError, match="batches of 2 VMs, got 3"):
            allocator.allocate(cpu_requests(3), reduced)
        full = [ServerState(f"f{i}", allocated=database.grid_bounds) for i in range(5)]
        reduced = ClassHeads(*class_heads(full, _SERVER_CLASS, 1), 1)
        with pytest.raises(InfeasibleAllocationError, match="across 5 servers"):
            allocator.allocate(cpu_requests(1), reduced)

    def test_mixed_class_batch(self, database):
        requests = [
            VMRequest("c0", WorkloadClass.CPU),
            VMRequest("m0", WorkloadClass.MEM),
            VMRequest("i0", WorkloadClass.IO),
        ]
        plan = ProactiveAllocator(database).allocate(requests, servers(3))
        assert set(plan.placements()) == {"c0", "m0", "i0"}

    def test_class_ids_bound_to_matching_blocks(self, database):
        requests = [
            VMRequest("c0", WorkloadClass.CPU),
            VMRequest("c1", WorkloadClass.CPU),
            VMRequest("m0", WorkloadClass.MEM),
        ]
        plan = ProactiveAllocator(database).allocate(requests, servers(2))
        for a in plan.assignments:
            ncpu, nmem, nio = a.block
            cpu_ids = [v for v in a.vm_ids if v.startswith("c")]
            mem_ids = [v for v in a.vm_ids if v.startswith("m")]
            assert len(cpu_ids) == ncpu
            assert len(mem_ids) == nmem


class TestOptimizationGoals:
    def test_energy_goal_consolidates(self, database):
        plan = ProactiveAllocator(database, alpha=1.0).allocate(
            cpu_requests(4), servers(4)
        )
        # Energy goal: amortize idle power, use few servers.
        assert len(set(plan.servers_used)) <= 2

    def test_time_goal_no_worse_makespan_than_energy_goal(self, database):
        fast = ProactiveAllocator(database, alpha=0.0).allocate(
            cpu_requests(8), servers(4)
        )
        frugal = ProactiveAllocator(database, alpha=1.0).allocate(
            cpu_requests(8), servers(4)
        )
        assert fast.estimated_makespan_s <= frugal.estimated_makespan_s + 1e-9

    def test_energy_goal_no_worse_energy_than_time_goal(self, database):
        fast = ProactiveAllocator(database, alpha=0.0).allocate(
            cpu_requests(8), servers(4)
        )
        frugal = ProactiveAllocator(database, alpha=1.0).allocate(
            cpu_requests(8), servers(4)
        )
        assert frugal.estimated_energy_j <= fast.estimated_energy_j + 1e-9


class TestQoS:
    def test_generous_deadline_satisfied(self, database):
        plan = ProactiveAllocator(database).allocate(
            cpu_requests(2, deadline=100_000.0), servers(2)
        )
        assert plan.qos_satisfied
        for a in plan.assignments:
            assert a.estimate.time_s <= 100_000.0

    def test_impossible_deadline_strict_raises(self, database):
        with pytest.raises(QoSViolationError):
            ProactiveAllocator(database, strict_qos=True).allocate(
                cpu_requests(2, deadline=1.0), servers(2)
            )

    def test_impossible_deadline_relaxed_places_anyway(self, database):
        plan = ProactiveAllocator(database, strict_qos=False).allocate(
            cpu_requests(2, deadline=1.0), servers(2)
        )
        assert not plan.qos_satisfied
        assert len(plan.placements()) == 2

    def test_tight_deadline_forces_spreading(self, database):
        # A deadline just above the solo runtime rules out heavy
        # consolidation even for the energy goal.
        tc = database.reference_time(WorkloadClass.CPU)
        plan = ProactiveAllocator(database, alpha=1.0).allocate(
            cpu_requests(6, deadline=tc * 1.3), servers(6)
        )
        assert plan.qos_satisfied
        for a in plan.assignments:
            assert a.estimate.time_s <= tc * 1.3


def cpu_database(points):
    """A CPU-only model database over ``{n_cpu: (time_s, energy_j)}``."""
    optima = OptimalScenarios(
        per_class={
            WorkloadClass.CPU: ClassOptima(WorkloadClass.CPU, max(points), 1, 100.0),
            WorkloadClass.MEM: ClassOptima(WorkloadClass.MEM, 1, 1, 150.0),
            WorkloadClass.IO: ClassOptima(WorkloadClass.IO, 1, 1, 200.0),
        }
    )
    records = [
        BenchmarkRecord.from_measurement((n, 0, 0), time_s, energy_j, 250.0)
        for n, (time_s, energy_j) in points.items()
    ]
    return ModelDatabase(records, optima)


def greedy_picks(allocator, partition, offered):
    """Server ids the shipped greedy and the greedy oracle give each block."""
    counts = tuple(map(sum, zip(*partition)))
    state = allocator._prepare_state(counts, offered, [1] * len(offered), {})
    shipped = allocator._assign_streamed(partition, state, abortable=False)
    state = allocator._prepare_state(counts, offered, [1] * len(offered), {})
    oracle = greedy_assign_streamed(allocator, partition, state, abortable=False)
    return (
        [server_id for server_id, *_ in shipped.assignments],
        [server_id for server_id, *_ in oracle.assignments],
    )


class TestServerTieBreak:
    def test_first_server_preferred_on_ties(self, database):
        # All servers identical and empty: the chosen one must be s0.
        plan = ProactiveAllocator(database, alpha=1.0).allocate(
            cpu_requests(2), servers(5)
        )
        assert set(plan.servers_used) == {"s0"}

    def test_lowest_untouched_index_across_tied_classes(self):
        # Two classes of empty servers: VM cap 1 = {s0, s2}, cap 2 =
        # {s1}.  Both admit a lone CPU VM at one score.  The first block
        # takes s0, which is then full; for the second the cap-1 class
        # leads the tie but its first untouched member is s2, and s1
        # is the lower index.
        allocator = ProactiveAllocator(cpu_database({1: (100.0, 1000.0)}))
        offered = [
            ServerState("s0", max_vms=1),
            ServerState("s1", max_vms=2),
            ServerState("s2", max_vms=1),
        ]
        shipped, oracle = greedy_picks(allocator, ((1, 0, 0), (1, 0, 0)), offered)
        assert shipped == oracle == ["s0", "s1"]

    @pytest.mark.parametrize(
        "residuals, expected",
        [
            # s0 is touched by the first block and ties with untouched s1.
            (((0, 0, 0), (1, 0, 0)), ["s0", "s0"]),
            # s1 is touched by the first block and ties with untouched s0.
            (((1, 0, 0), (0, 0, 0)), ["s1", "s0"]),
        ],
    )
    def test_touched_and_untouched_tie_to_lower_index(self, residuals, expected):
        # Time-only goal: the first CPU VM prefers the empty server;
        # the second lands in a two-CPU mix on either server, at one
        # score, so the lower index must win.
        allocator = ProactiveAllocator(
            cpu_database({1: (100.0, 1000.0), 2: (150.0, 1800.0)}), alpha=0.0
        )
        offered = [
            ServerState(f"s{i}", allocated=mix) for i, mix in enumerate(residuals)
        ]
        shipped, oracle = greedy_picks(allocator, ((1, 0, 0), (1, 0, 0)), offered)
        assert shipped == oracle == expected


class TestProvenance:
    def test_bad_bnb_threshold_rejected(self, database):
        with pytest.raises(ConfigurationError):
            ProactiveAllocator(database, bnb_min_vms=-1)

    def test_plan_carries_search_counters(self, database):
        plan = ProactiveAllocator(database).allocate(cpu_requests(3), servers(3))
        provenance = plan.search_provenance
        assert provenance is not None
        assert provenance.partitions_enumerated == 3  # {3}, {2,1}, {1,1,1}
        assert provenance.candidates_feasible > 0
        assert provenance.grid_hits > 0
        assert provenance.grid_misses == 0  # complete campaign grid
        assert provenance.frontier_peak <= provenance.candidates_feasible
        assert not provenance.bnb_active  # below the default threshold

    def test_reference_plan_has_no_provenance(self, database):
        plan = reference_allocate(
            ProactiveAllocator(database), cpu_requests(3), servers(3)
        )
        assert plan.search_provenance is None

    def test_frontier_smaller_than_pool(self, database):
        # The retained Pareto frontier must undercut the materialized
        # candidate pool (the whole point of streaming).
        allocator = ProactiveAllocator(database, alpha=0.5)
        requests = cpu_requests(5) + [
            VMRequest(f"m{i}", WorkloadClass.MEM) for i in range(4)
        ]
        plan = allocator.allocate(requests, servers(6))
        provenance = plan.search_provenance
        assert provenance.frontier_peak < provenance.candidates_feasible

    def test_bnb_activates_above_threshold(self, database):
        allocator = ProactiveAllocator(database, bnb_min_vms=2)
        plan = allocator.allocate(cpu_requests(3), servers(3))
        assert plan.search_provenance.bnb_active

    def test_provenance_excluded_from_plan_equality(self, database):
        allocator = ProactiveAllocator(database)
        requests = cpu_requests(4)
        optimized = allocator.allocate(requests, servers(4))
        reference = reference_allocate(allocator, requests, servers(4))
        assert optimized == reference
        assert optimized.search_provenance is not None
        assert reference.search_provenance is None

    def test_aggregate_capacity_fast_path(self, database):
        # A batch no server set could absorb fails before enumeration.
        osc, _, _ = database.grid_bounds
        full = [ServerState("s0", allocated=(osc, 0, 0), max_vms=osc)]
        with pytest.raises(InfeasibleAllocationError):
            ProactiveAllocator(database).allocate(cpu_requests(1), full)


class TestProvenanceFromStats:
    """The allocator builds each plan's provenance straight from its
    pass's CacheStats; the record must equal the one the dataclass
    constructor builds from the same pass's counter mapping."""

    #: Allocator options per search pass, and what marks that pass.
    PASSES = {
        "exact": ({"anytime": False}, "bnb_active", False),
        "branch-and-bound": ({"anytime": False, "bnb_min_vms": 2}, "bnb_active", True),
        "anytime": ({"anytime": True}, "anytime", True),
        # A budget this small expires before the first evaluation.
        "anytime-exact-fallback": ({"time_budget_s": 1e-9}, "anytime_exact_fallback", True),
        "time-budget": ({"time_budget_s": 30.0}, "time_budget_s", 30.0),
    }

    @staticmethod
    def assert_same_record(built, expected):
        for field in fields(AllocationProvenance):
            value = getattr(built, field.name)
            assert value == getattr(expected, field.name), field.name
            assert type(value) is type(getattr(expected, field.name)), field.name
        assert built == expected
        assert json.dumps(built.as_dict()) == json.dumps(expected.as_dict())

    @pytest.mark.parametrize("mode", sorted(PASSES))
    def test_equals_the_counter_mapping_path(self, database, mode, monkeypatch):
        options, marker, marked = self.PASSES[mode]
        passes = []
        from_stats = AllocationProvenance.from_stats.__func__

        def spy(cls, stats, **extra):
            provenance = from_stats(cls, stats, **extra)
            passes.append((stats, extra, provenance))
            return provenance

        monkeypatch.setattr(AllocationProvenance, "from_stats", classmethod(spy))
        plan = ProactiveAllocator(database, **options).allocate(
            mixed_requests(3, 2, 1), servers(4)
        )
        [(stats, extra, provenance)] = passes
        assert plan.search_provenance is provenance
        assert getattr(provenance, marker) == marked
        self.assert_same_record(
            provenance, AllocationProvenance(**stats.as_dict(), **extra)
        )

    @pytest.mark.parametrize("anytime", [False, True])
    def test_anytime_counters_only_when_the_anytime_search_ran(self, anytime):
        stats = CacheStats(
            grid_hits=4,
            frontier_peak=2,
            bnb_active=True,
            anytime=anytime,
            anytime_beam_width=8,
            anytime_rounds=3,
            anytime_evaluated=11,
            anytime_budget_exhausted=True,
            anytime_exact_fallback=True,
        )
        built = AllocationProvenance.from_stats(
            stats, time_budget_s=2.0, budget_consumed_s=0.5
        )
        self.assert_same_record(
            built,
            AllocationProvenance(
                **stats.as_dict(), time_budget_s=2.0, budget_consumed_s=0.5
            ),
        )
        assert built.anytime_rounds == (3 if anytime else 0)


class TestBindVmIds:
    def test_blocks_take_the_next_ids_cpu_then_mem_then_io(self):
        requests = [
            VMRequest("i0", WorkloadClass.IO),
            VMRequest("c0", WorkloadClass.CPU),
            VMRequest("m0", WorkloadClass.MEM),
            VMRequest("c1", WorkloadClass.CPU),
            VMRequest("i1", WorkloadClass.IO),
            VMRequest("c2", WorkloadClass.CPU),
        ]
        blocks = [(1, 1, 1), (0, 0, 1), (2, 0, 0)]
        assert bind_vm_ids(blocks, requests) == [
            ("c0", "m0", "i0"),
            ("i1",),
            ("c1", "c2"),
        ]


def mixed_requests(n_cpu, n_mem, n_io):
    return (
        cpu_requests(n_cpu)
        + [VMRequest(f"m{i}", WorkloadClass.MEM) for i in range(n_mem)]
        + [VMRequest(f"i{i}", WorkloadClass.IO) for i in range(n_io)]
    )


class FlatSignals:
    """Constant carbon intensity and price (the CarbonContext duck type)."""

    def carbon_mass_g(self, energy_j, t0_s, t1_s):
        return 1e-4 * energy_j

    def energy_cost(self, energy_j, t0_s, t1_s):
        return 1e-6 * energy_j


class TestPartitionFamilies:
    """Unpruned batches of at most 8 VMs read their partitions from the
    process-wide memo; branch-and-bound and larger batches stream."""

    def test_allocators_share_one_enumeration(self, database, type_partitions_calls):
        requests = mixed_requests(2, 1, 1)
        first = ProactiveAllocator(database).allocate(requests, servers(4))
        second = ProactiveAllocator(database).allocate(requests, servers(4))
        assert type_partitions_calls == [((2, 1, 1), database.grid_bounds)]
        assert first == second
        assert first.search_provenance == second.search_provenance
        assert first.search_provenance.partitions_enumerated == len(
            partition_family((2, 1, 1), database.grid_bounds)
        )

    def test_branch_and_bound_batch_streams(self, database, type_partitions_calls):
        plan = ProactiveAllocator(database).allocate(mixed_requests(3, 3, 3), servers(4))
        assert plan.search_provenance.bnb_active
        assert partition_family.cache_info().currsize == 0
        assert len(type_partitions_calls) == 1

    def test_carbon_batch_above_the_bound_streams(self, database, type_partitions_calls):
        allocator = ProactiveAllocator(
            database, carbon=CarbonContext(signals=FlatSignals(), alpha_carbon=0.5)
        )
        plan = allocator.allocate(mixed_requests(3, 3, 3), servers(4))
        assert not plan.search_provenance.bnb_active
        assert partition_family.cache_info().currsize == 0
        assert len(type_partitions_calls) == 1

    @pytest.mark.parametrize("bnb_min_vms", [9, 0], ids=["memo", "branch-and-bound"])
    def test_candidate_limit_still_fires(self, database, bnb_min_vms):
        allocator = ProactiveAllocator(database, max_candidates=3, bnb_min_vms=bnb_min_vms)
        with pytest.raises(ConfigurationError, match="exceeded 3 candidates"):
            allocator.allocate(mixed_requests(2, 1, 1), servers(4))

"""Unit tests for the anytime allocation mode.

Covers the :class:`AnytimeConfig` knobs, automatic mode selection with
its memoized partition-count check, the capped counting DP, the
deadline-expired exact fallback, seeded determinism, and the guarantee
that exact-mode runs leave the metrics snapshot byte-identical to the
pre-anytime allocator.
"""

import json
import math

import pytest

from repro.common.errors import ConfigurationError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.anytime import AnytimeConfig
from repro.core.partitions import count_type_partitions_capped
from repro.obs.runtime import observed
from tests.oracles.partitions import count_type_partitions
from repro.testbed.benchmarks import WorkloadClass


def cpu_requests(n):
    return [VMRequest(f"c{i}", WorkloadClass.CPU) for i in range(n)]


def mixed_requests(counts):
    cpu, mem, io = counts
    return (
        [VMRequest(f"c{i}", WorkloadClass.CPU) for i in range(cpu)]
        + [VMRequest(f"m{i}", WorkloadClass.MEM) for i in range(mem)]
        + [VMRequest(f"i{i}", WorkloadClass.IO) for i in range(io)]
    )


def servers(n, max_vms=12):
    return [ServerState(f"s{i}", max_vms=max_vms) for i in range(n)]


class TestAnytimeConfig:
    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), 0.0, -1.0, True]
    )
    def test_bad_time_budget_rejected(self, budget):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(time_budget_s=budget)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beam_width": 0},
            {"max_rounds": -1},
            {"max_neighbors": 0},
            {"exact_partition_limit": 0},
            {"mode_check_min_vms": -1},
            {"seed": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(**kwargs)

    def test_defaults_accepted(self):
        config = AnytimeConfig()
        assert config.time_budget_s is None
        assert config.beam_width >= 1

    def test_disabled_anytime_with_budget_rejected(self, database):
        with pytest.raises(ConfigurationError):
            ProactiveAllocator(database, anytime=False, time_budget_s=1.0)

    def test_bad_anytime_argument_rejected(self, database):
        with pytest.raises(ConfigurationError):
            ProactiveAllocator(database, anytime="fast")


class TestModeSelection:
    def test_small_batch_stays_exact(self, database):
        plan = ProactiveAllocator(database).allocate(cpu_requests(4), servers(3))
        provenance = plan.search_provenance
        assert provenance.mode == "exact"
        assert not provenance.anytime

    def test_forced_anytime(self, database):
        plan = ProactiveAllocator(database, anytime=True).allocate(
            cpu_requests(4), servers(3)
        )
        assert plan.search_provenance.mode == "anytime"

    def test_time_budget_forces_anytime_and_is_recorded(self, database):
        plan = ProactiveAllocator(database, time_budget_s=30.0).allocate(
            cpu_requests(4), servers(3)
        )
        provenance = plan.search_provenance
        assert provenance.mode == "anytime"
        assert provenance.time_budget_s == 30.0
        assert provenance.budget_consumed_s >= 0.0
        assert not provenance.budget_consumed_s > 30.0

    def test_large_mixed_batch_selects_anytime(self, database):
        # (6, 5, 5) has >100k type partitions against the test grid --
        # far past the default exact_partition_limit.
        plan = ProactiveAllocator(database).allocate(
            mixed_requests((6, 5, 5)), servers(16)
        )
        provenance = plan.search_provenance
        assert provenance.mode == "anytime"
        assert provenance.anytime_evaluated > 0
        assert provenance.anytime_beam_width >= 1

    def test_large_single_class_batch_stays_exact(self, database):
        # 24 CPU VMs clear the mode-check floor but only ~1k partitions
        # exist, so the check decides exact -- and the plan must be
        # bit-identical to a forced-exact allocator's.
        auto = ProactiveAllocator(database).allocate(cpu_requests(24), servers(8))
        exact = ProactiveAllocator(database, anytime=False).allocate(
            cpu_requests(24), servers(8)
        )
        assert auto.search_provenance.mode == "exact"
        assert auto == exact

    def test_mode_check_memoized(self, database):
        with observed() as bundle:
            allocator = ProactiveAllocator(database)
            allocator.allocate(cpu_requests(13), servers(8))
            counters = bundle.snapshot()["counters"]
            assert counters['allocator.mode_checks{outcome="computed"}'] == 1
            assert 'allocator.mode_checks{outcome="memo"}' not in counters
            allocator.allocate(cpu_requests(13), servers(8))
            counters = bundle.snapshot()["counters"]
            assert counters['allocator.mode_checks{outcome="computed"}'] == 1
            assert counters['allocator.mode_checks{outcome="memo"}'] == 1

    def test_no_mode_check_below_floor(self, database):
        with observed() as bundle:
            ProactiveAllocator(database).allocate(cpu_requests(4), servers(3))
            counters = bundle.snapshot()["counters"]
            assert not any("mode_checks" in key for key in counters)


class TestCappedCounting:
    @pytest.mark.parametrize(
        "counts", [(0, 0, 0), (3, 0, 0), (2, 2, 1), (4, 3, 3)]
    )
    @pytest.mark.parametrize("cap", [1, 5, 100, 10**9])
    def test_matches_min_of_true_count_and_cap(self, database, counts, cap):
        bounds = database.grid_bounds
        true = count_type_partitions(counts, bounds)
        capped = count_type_partitions_capped(counts, bounds, cap=cap)
        assert capped == min(true, cap)

    def test_shared_memo_reused(self, database):
        memo = {}
        bounds = database.grid_bounds
        first = count_type_partitions_capped(
            (4, 3, 3), bounds, cap=10**9, memo=memo
        )
        assert memo  # warm
        second = count_type_partitions_capped(
            (4, 3, 3), bounds, cap=10**9, memo=memo
        )
        assert first == second == count_type_partitions((4, 3, 3), bounds)

    def test_bad_cap_rejected(self, database):
        with pytest.raises(ValueError):
            count_type_partitions_capped((1, 0, 0), database.grid_bounds, cap=0)


class TestExactFallback:
    def test_expired_budget_falls_back_to_exact_plan(self, database):
        # A budget this small expires before the first candidate is
        # evaluated, so the anytime search returns empty-handed and the
        # allocator must rerun the exact enumerator.
        anytime = ProactiveAllocator(database, time_budget_s=1e-9).allocate(
            cpu_requests(4), servers(3)
        )
        exact = ProactiveAllocator(database, anytime=False).allocate(
            cpu_requests(4), servers(3)
        )
        provenance = anytime.search_provenance
        assert provenance.mode == "anytime"
        assert provenance.anytime_exact_fallback
        assert provenance.budget_consumed_s > 0.0
        assert anytime == exact


class TestDeterminism:
    def test_same_seed_same_plan(self, database):
        first = ProactiveAllocator(database, anytime=True).allocate(
            mixed_requests((3, 3, 2)), servers(6)
        )
        second = ProactiveAllocator(database, anytime=True).allocate(
            mixed_requests((3, 3, 2)), servers(6)
        )
        assert first == second
        assert first.search_provenance == second.search_provenance

    def test_explicit_config_seed_respected(self, database):
        # A custom config customizes the *automatic* selection: dropping
        # both thresholds makes this small batch take the anytime path.
        config = AnytimeConfig(seed=7, mode_check_min_vms=0, exact_partition_limit=1)
        first = ProactiveAllocator(database, anytime=config).allocate(
            mixed_requests((3, 3, 2)), servers(6)
        )
        second = ProactiveAllocator(database, anytime=config).allocate(
            mixed_requests((3, 3, 2)), servers(6)
        )
        assert first.search_provenance.mode == "anytime"
        assert first == second


class TestSnapshotCompatibility:
    def test_exact_mode_snapshot_has_no_anytime_keys(self, database):
        with observed() as bundle:
            ProactiveAllocator(database).allocate(cpu_requests(5), servers(3))
            snapshot = bundle.snapshot()
        rendered = json.dumps(snapshot, sort_keys=True)
        assert "anytime" not in rendered
        assert "mode_checks" not in rendered

    def test_exact_mode_snapshot_byte_identical_to_disabled(self, database):
        def run(**kwargs):
            with observed() as bundle:
                ProactiveAllocator(database, **kwargs).allocate(
                    cpu_requests(5), servers(3)
                )
                return json.dumps(bundle.snapshot(), sort_keys=True)

        assert run() == run(anytime=False)

    def test_exact_provenance_mode_string(self, database):
        plan = ProactiveAllocator(database, anytime=False).allocate(
            cpu_requests(5), servers(3)
        )
        assert plan.search_provenance.mode == "exact"
        assert math.isclose(plan.search_provenance.budget_consumed_s, 0.0)

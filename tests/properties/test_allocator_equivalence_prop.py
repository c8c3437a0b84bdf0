"""Equivalence oracle: the streamed, branch-and-bound-pruned allocator
must return the *bit-identical* plan of the naive brute force
(:func:`tests.oracles.allocator.reference_allocate`).

Every optimization in :meth:`ProactiveAllocator.allocate` (dense-grid
lookups, Pareto-streaming retention, subtree pruning, mid-assignment
aborts) claims exactness.  These tests hammer that claim with seeded
random worlds: partial model databases, busy servers with VM caps,
deadlines, all three paper alphas plus random ones, strict and relaxed
QoS, a forced branch-and-bound regime (``bnb_min_vms=0``), and the
power-capped :class:`PowerCappedDatabase` duck-type whose
``within_bounds`` veto is stricter than the grid box.  Each seed ends
with *crowded* worlds (10-80 servers from a few (mix, max_vms)
classes, batches up to 14 VMs) where classes outnumber the batch, so
the allocator's class-head truncation is compared against the oracle
on the full list.

:class:`TestGreedyOracle` pins the greedy pass alone: the shipped
allocator against itself with the pre-table greedy scan
(:func:`tests.oracles.allocator.greedy_assign_streamed`) patched in.
Plans *and* search provenance must match, counters included.

Equality uses ``AllocationPlan.__eq__``, which compares assignments,
alpha, score, and the QoS flag (provenance is excluded by design); when
the reference raises, the optimized path must raise the same exception
type with the same message.
"""

import random
from collections import Counter

import pytest

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord, total_vms
from repro.common.errors import AllocationError, ConfigurationError
from repro.core.allocator import (
    ProactiveAllocator,
    ServerState,
    VMRequest,
    class_heads,
)
from repro.core.model import ModelDatabase
from repro.testbed.benchmarks import WorkloadClass
from tests.oracles.allocator import greedy_assign_streamed, reference_allocate
from tests.oracles.capped import PowerCappedDatabase

CASES_PER_SEED = 24
SEEDS = range(10)  # 10 x 24 = 240 cases
CROWDED_CASES_PER_SEED = 8  # appended after the sparse cases of each seed
GREEDY_ORACLE_CASES = 300


def random_database(rng: random.Random) -> ModelDatabase:
    """A small model database over random bounds with random coverage."""
    osc = rng.randint(1, 3)
    osm = rng.randint(1, 2)
    osi = rng.randint(1, 2)
    optima = OptimalScenarios(
        per_class={
            WorkloadClass.CPU: ClassOptima(
                WorkloadClass.CPU, osc, 1, rng.uniform(80.0, 120.0)
            ),
            WorkloadClass.MEM: ClassOptima(
                WorkloadClass.MEM, osm, 1, rng.uniform(120.0, 180.0)
            ),
            WorkloadClass.IO: ClassOptima(
                WorkloadClass.IO, osi, 1, rng.uniform(160.0, 240.0)
            ),
        }
    )
    include_p = rng.uniform(0.55, 1.0)
    records = []
    for ncpu in range(osc + 1):
        for nmem in range(osm + 1):
            for nio in range(osi + 1):
                n = ncpu + nmem + nio
                if n == 0 or rng.random() > include_p:
                    continue
                time_s = rng.uniform(50.0, 400.0) * (1.0 + 0.3 * n)
                energy_j = rng.uniform(5_000.0, 60_000.0) * (1.0 + 0.2 * n)
                records.append(
                    BenchmarkRecord.from_measurement(
                        (ncpu, nmem, nio), time_s, energy_j, 250.0
                    )
                )
    if not records:
        records.append(
            BenchmarkRecord.from_measurement((1, 0, 0), 100.0, 15_000.0, 250.0)
        )
    return ModelDatabase(records, optima)


def random_server_class(rng: random.Random, bounds) -> tuple:
    """A random (residual mix, VM cap) for one server."""
    osc, osm, osi = bounds
    roll = rng.random()
    if roll < 0.45:
        mix = (0, 0, 0)
    elif roll < 0.55:
        # Off-grid residual: the server can never host anything.
        mix = (osc + 1, rng.randint(0, osm), 0)
    else:
        mix = (
            rng.randint(0, osc),
            rng.randint(0, osm),
            rng.randint(0, osi),
        )
    max_vms = rng.choice([None, None, rng.randint(1, osc + osm + osi)])
    return mix, max_vms


def random_servers(rng: random.Random, bounds, crowded=False) -> list[ServerState]:
    """1-6 independent servers, or (``crowded``) 10-80 servers drawn
    from 2-4 (mix, max_vms) prototypes, so classes outnumber a batch
    and the allocator's class-head truncation is exercised."""
    if crowded:
        prototypes = [
            random_server_class(rng, bounds) for _ in range(rng.randint(2, 4))
        ]
        classes = [rng.choice(prototypes) for _ in range(rng.randint(10, 80))]
    else:
        classes = [random_server_class(rng, bounds) for _ in range(rng.randint(1, 6))]
    return [
        ServerState(server_id=f"s{index}", allocated=mix, max_vms=max_vms)
        for index, (mix, max_vms) in enumerate(classes)
    ]


def random_requests(
    rng: random.Random, database: ModelDatabase, crowded=False
) -> list[VMRequest]:
    """1-7 VMs; in ``crowded`` mode a third of the batches are padded
    to 7-14 VMs so branch-and-bound and its knapsack bound run."""
    classes = list(WorkloadClass)
    size = rng.randint(1, 7)
    if crowded and rng.random() < 1 / 3:
        size = rng.randint(7, 14)
    batch = [rng.choice(classes) for _ in range(size)]
    with_deadlines = rng.random() < 0.5
    requests = []
    for index, workload_class in enumerate(batch):
        deadline = None
        if with_deadlines and rng.random() < 0.7:
            deadline = database.reference_time(workload_class) * rng.uniform(0.8, 8.0)
        requests.append(
            VMRequest(
                vm_id=f"v{index}",
                workload_class=workload_class,
                max_exec_time_s=deadline,
            )
        )
    return requests


def random_capped_database(rng: random.Random):
    """A random database and its power-capped proxy."""
    database = random_database(rng)
    powers = [record.avg_power_w for record in database.records]
    cap = rng.uniform(min(powers), max(powers) * 1.2)
    return database, PowerCappedDatabase(database, cap)


def random_allocator(rng: random.Random, database) -> ProactiveAllocator:
    alpha = rng.choice([0.0, 0.5, 1.0, round(rng.random(), 3)])
    strict = rng.random() < 0.5
    # Half the cases force branch-and-bound on regardless of batch size
    # so warm start, bound tables, and pruning run even for tiny inputs.
    bnb_min_vms = rng.choice([0, 9])
    return ProactiveAllocator(
        database, alpha=alpha, strict_qos=strict, bnb_min_vms=bnb_min_vms
    )


def outcome(run):
    try:
        return run(), None
    except (AllocationError, ConfigurationError) as error:
        return None, error


def assert_equivalent(case, allocator, requests, servers, other=None):
    """``allocator`` plans exactly as the oracle, or (given ``other``)
    exactly as that second allocator."""
    if other is None:
        reference, reference_error = outcome(
            lambda: reference_allocate(allocator, requests, servers)
        )
    else:
        reference, reference_error = outcome(lambda: other.allocate(requests, servers))
    optimized, optimized_error = outcome(lambda: allocator.allocate(requests, servers))
    if reference_error is not None:
        assert optimized_error is not None, (
            f"{case}: reference raised {type(reference_error).__name__} "
            f"but optimized returned a plan"
        )
        assert type(optimized_error) is type(reference_error), (
            f"{case}: {type(reference_error).__name__} != "
            f"{type(optimized_error).__name__}"
        )
        assert str(optimized_error) == str(reference_error), case
        return
    assert optimized_error is None, (
        f"{case}: optimized raised {type(optimized_error).__name__} "
        f"({optimized_error}) but reference returned a plan"
    )
    assert optimized == reference, (
        f"{case}: plans differ\n  reference={reference}\n  optimized={optimized}"
    )
    assert optimized.search_provenance is not None


class TestRandomWorlds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_streamed_equals_reference(self, seed):
        rng = random.Random(0xA110C + seed)
        for case_index in range(CASES_PER_SEED + CROWDED_CASES_PER_SEED):
            crowded = case_index >= CASES_PER_SEED
            database = random_database(rng)
            allocator = random_allocator(rng, database)
            servers = random_servers(rng, database.grid_bounds, crowded)
            requests = random_requests(rng, database, crowded)
            assert_equivalent(
                f"seed={seed} case={case_index} crowded={crowded}",
                allocator,
                requests,
                servers,
            )


class TestPowerCappedDuckType:
    @pytest.mark.parametrize("seed", range(4))
    def test_streamed_equals_reference_under_cap(self, seed):
        rng = random.Random(0xCA9 + seed)
        for case_index in range(12 + CROWDED_CASES_PER_SEED):
            crowded = case_index >= 12
            database, capped = random_capped_database(rng)
            allocator = random_allocator(rng, capped)
            servers = random_servers(rng, database.grid_bounds, crowded)
            requests = random_requests(rng, database, crowded)
            assert_equivalent(
                f"cap-seed={seed} case={case_index} crowded={crowded}",
                allocator,
                requests,
                servers,
            )

    def test_energy_fallbacks_count_offered_servers(self):
        # Every offered in-grid, non-empty server whose residual cannot
        # be estimated counts, including class members the search
        # dropped after the heads.
        rng = random.Random(0xFA11)
        dropped_fallbacks = 0
        for _ in range(60):
            database, capped = random_capped_database(rng)
            allocator = random_allocator(rng, capped)
            servers = random_servers(rng, database.grid_bounds, crowded=True)
            requests = random_requests(rng, database, crowded=True)
            try:
                plan = allocator.allocate(requests, servers)
            except AllocationError:
                continue
            grid = allocator.estimate_grid
            unestimable = [
                grid.covers(s.allocated)
                and total_vms(s.allocated) > 0
                and grid.get(s.allocated) is None
                for s in servers
            ]
            assert plan.search_provenance.energy_fallbacks == sum(unestimable)
            heads, _ = class_heads(
                servers, lambda s: (s.allocated, s.max_vms), len(requests)
            )
            kept = {id(head) for head in heads}
            dropped_fallbacks += sum(
                flag for s, flag in zip(servers, unestimable) if id(s) not in kept
            )
        # A count over the heads alone would have missed these.
        assert dropped_fallbacks > 0


class TestCampaignDatabase:
    """Small batches against the real (full) campaign database."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_streamed_equals_reference(self, database, alpha):
        rng = random.Random(hash(alpha) & 0xFFFF)
        for case_index in range(4):
            allocator = ProactiveAllocator(
                database, alpha=alpha, strict_qos=rng.random() < 0.5, bnb_min_vms=0
            )
            servers = random_servers(rng, (4, 3, 3))
            requests = random_requests(rng, database)
            assert_equivalent(
                f"campaign alpha={alpha} case={case_index}",
                allocator,
                requests,
                servers,
            )


def plan_and_provenance(allocator, requests, servers):
    """The plan and its provenance counters, or the error raised."""
    plan, error = outcome(lambda: allocator.allocate(requests, servers))
    if error is not None:
        return (type(error), str(error)), None
    return plan, plan.search_provenance.as_dict()


class TestGreedyOracle:
    """The table-driven greedy pass against the per-server scan it
    replaced: same plans, same ``search_provenance`` (``grid_hits``,
    ``grid_misses`` and ``aborted_assignments`` included)."""

    def test_shipped_greedy_equals_oracle_greedy(self, monkeypatch):
        rng = random.Random(0x6EED)
        covered = Counter()
        for case_index in range(GREEDY_ORACLE_CASES):
            world = ("plain", "power-capped")[case_index % 2]
            database, target = random_capped_database(rng)
            if world == "plain":
                target = database
            # Half the worlds are crowded: classes outnumber the batch.
            servers = random_servers(
                rng, database.grid_bounds, crowded=rng.random() < 0.5
            )
            # 1-14 VMs: a third of the batches arm branch-and-bound.
            requests = random_requests(rng, database, crowded=True)
            allocator = ProactiveAllocator(
                target,
                # Mid-assignment aborts come mostly from alpha 0 batches.
                alpha=rng.choice([0.0, 0.0, 0.5, 1.0, round(rng.random(), 3)]),
                strict_qos=rng.random() < 0.5,
                bnb_min_vms=rng.choice([0, 9]),
                anytime=rng.choice([None, None, True]),
            )
            shipped, shipped_counts = plan_and_provenance(allocator, requests, servers)
            with monkeypatch.context() as patch:
                patch.setattr(
                    ProactiveAllocator, "_assign_streamed", greedy_assign_streamed
                )
                oracle, oracle_counts = plan_and_provenance(allocator, requests, servers)
            case = f"greedy case={case_index} world={world}"
            assert shipped == oracle, case
            assert shipped_counts == oracle_counts, case
            if shipped_counts is None:
                continue
            covered["plans"] += 1
            covered[world] += 1
            covered["deadlines"] += any(r.max_exec_time_s for r in requests)
            covered["capped servers"] += any(s.max_vms for s in servers)
            covered["aborts"] += shipped_counts["aborted_assignments"] > 0
            covered["branch-and-bound"] += shipped_counts["bnb_active"]
            covered["anytime"] += shipped_counts.get("anytime", False)
            covered["grid misses"] += shipped_counts["grid_misses"] > 0
        for feature in (
            "plain",
            "power-capped",
            "deadlines",
            "capped servers",
            "aborts",
            "branch-and-bound",
            "anytime",
            "grid misses",
        ):
            assert covered[feature] >= 3, covered

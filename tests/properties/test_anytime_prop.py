"""Property tests for the anytime allocation mode.

Three seeded claims:

* **Quality** -- on exact-affordable random worlds (batches <= 12) the
  forced-anytime plan scores within 5% of the exact optimum under the
  shared :func:`plan_objective`, and raises the same exception type
  whenever the exact path raises (strict and relaxed QoS alike).
* **Exactness below threshold** -- automatic mode selection returns
  plans bit-identical to a forced-exact allocator whenever the mode
  check decides exact, including batches past the VM-count floor whose
  partition space is still small.
* **Parallel determinism** -- ``run_evaluation`` with a (generous)
  ``time_budget_s`` stays bit-identical between ``jobs=1`` and
  ``jobs=2``: the deterministic search caps bind before the deadline,
  so the wall clock never influences the result.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.common.errors import AllocationError, ConfigurationError
from repro.core.allocator import ProactiveAllocator, VMRequest
from repro.experiments.config import SMALLER
from repro.experiments.evaluation import run_evaluation
from repro.obs.runtime import observed
from repro.testbed.benchmarks import WorkloadClass
from tests.oracles.allocator import plan_objective

from properties.test_allocator_equivalence_prop import (
    random_database,
    random_requests,
    random_servers,
)

#: The satellite's quality bound: anytime within 5% of exact.
QUALITY_BOUND = 1.05


def sized_requests(rng: random.Random, database, max_batch: int):
    """Like the equivalence suite's requests, but up to ``max_batch``."""
    classes = list(WorkloadClass)
    batch = [rng.choice(classes) for _ in range(rng.randint(1, max_batch))]
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


def run_one(allocator, requests, servers):
    try:
        return allocator.allocate(requests, list(servers)), None
    except (AllocationError, ConfigurationError) as error:
        return None, error


def assert_quality(case, database, requests, servers, alpha, strict):
    exact = ProactiveAllocator(
        database, alpha=alpha, strict_qos=strict, anytime=False
    )
    anytime = ProactiveAllocator(
        database, alpha=alpha, strict_qos=strict, anytime=True
    )
    exact_plan, exact_error = run_one(exact, requests, servers)
    anytime_plan, anytime_error = run_one(anytime, requests, servers)
    if exact_error is not None:
        assert anytime_error is not None, (
            f"{case}: exact raised {type(exact_error).__name__} "
            f"but anytime returned a plan"
        )
        assert type(anytime_error) is type(exact_error), (
            f"{case}: {type(exact_error).__name__} != "
            f"{type(anytime_error).__name__}"
        )
        return
    assert anytime_error is None, (
        f"{case}: anytime raised {type(anytime_error).__name__} "
        f"({anytime_error}) but exact returned a plan"
    )
    exact_score = plan_objective(exact_plan, servers, database)
    anytime_score = plan_objective(anytime_plan, servers, database)
    assert anytime_score <= exact_score * QUALITY_BOUND + 1e-9, (
        f"{case}: anytime score {anytime_score:.6f} worse than "
        f"{QUALITY_BOUND}x exact {exact_score:.6f}"
    )


class TestAnytimeQuality:
    @pytest.mark.parametrize("seed", range(3))
    def test_relaxed_within_bound_of_exact(self, seed):
        rng = random.Random(0xBEA3 + seed)
        for case_index in range(8):
            database = random_database(rng)
            servers = random_servers(rng, database.grid_bounds)
            requests = sized_requests(rng, database, max_batch=12)
            alpha = rng.choice([0.0, 0.5, 1.0, round(rng.random(), 3)])
            assert_quality(
                f"seed={seed} case={case_index}",
                database,
                requests,
                servers,
                alpha,
                strict=False,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_parity_and_quality(self, seed):
        rng = random.Random(0x57C1C7 + seed)
        for case_index in range(8):
            database = random_database(rng)
            servers = random_servers(rng, database.grid_bounds)
            requests = sized_requests(rng, database, max_batch=10)
            alpha = rng.choice([0.0, 0.5, 1.0])
            assert_quality(
                f"strict seed={seed} case={case_index}",
                database,
                requests,
                servers,
                alpha,
                strict=True,
            )


class TestExactBelowThreshold:
    @pytest.mark.parametrize("seed", range(3))
    def test_auto_mode_bit_identical_to_exact(self, seed):
        rng = random.Random(0xE8AC7 + seed)
        for case_index in range(8):
            database = random_database(rng)
            servers = random_servers(rng, database.grid_bounds)
            requests = random_requests(rng, database)  # batches 1..7
            alpha = rng.choice([0.0, 0.5, 1.0])
            auto = ProactiveAllocator(database, alpha=alpha, strict_qos=False)
            exact = ProactiveAllocator(
                database, alpha=alpha, strict_qos=False, anytime=False
            )
            auto_plan, auto_error = run_one(auto, requests, servers)
            exact_plan, exact_error = run_one(exact, requests, servers)
            case = f"seed={seed} case={case_index}"
            if exact_error is not None:
                assert auto_error is not None and type(auto_error) is type(
                    exact_error
                ), case
                continue
            assert auto_error is None, case
            assert auto_plan == exact_plan, case
            assert auto_plan.search_provenance.mode == "exact", case

    @pytest.mark.parametrize("seed", range(3))
    def test_mode_check_batches_stay_exact_when_affordable(self, seed):
        # Single-class batches past the VM-count floor: the partition
        # space stays tiny under the small random bounds, so the mode
        # check must decide exact and the plans must stay bit-identical.
        rng = random.Random(0x13F100 + seed)
        for case_index in range(4):
            database = random_database(rng)
            workload_class = rng.choice(list(WorkloadClass))
            n = rng.randint(13, 16)
            requests = [
                VMRequest(f"v{i}", workload_class) for i in range(n)
            ]
            servers = [
                server
                for server in random_servers(rng, database.grid_bounds)
            ] + random_servers(rng, database.grid_bounds)
            with observed() as bundle:
                auto = ProactiveAllocator(database, strict_qos=False)
                auto_plan, auto_error = run_one(auto, requests, servers)
                counters = bundle.snapshot()["counters"]
            exact = ProactiveAllocator(
                database, strict_qos=False, anytime=False
            )
            exact_plan, exact_error = run_one(exact, requests, servers)
            case = f"seed={seed} case={case_index} n={n}"
            if exact_error is not None:
                assert auto_error is not None and type(auto_error) is type(
                    exact_error
                ), case
                continue
            assert auto_error is None, case
            # The floor was crossed, so the check ran (and decided exact).
            assert (
                counters.get('allocator.mode_checks{outcome="computed"}', 0)
                == 1
            ), case
            assert auto_plan == exact_plan, case
            assert auto_plan.search_provenance.mode == "exact", case


class TestParallelDeterminismWithBudget:
    def run_once(self, campaign, config, jobs):
        with observed() as bundle:
            result = run_evaluation(
                configs=[config],
                campaign=campaign,
                jobs=jobs,
                time_budget_s=30.0,
            )
            snapshot = bundle.snapshot()
        return result, snapshot

    def test_jobs_identity_under_time_budget(self, campaign):
        config = SMALLER.scaled(300)
        serial, serial_snapshot = self.run_once(campaign, config, jobs=1)
        parallel, parallel_snapshot = self.run_once(campaign, config, jobs=2)
        assert serial.outcomes == parallel.outcomes
        assert serial == parallel
        assert json.dumps(serial_snapshot, sort_keys=True) == json.dumps(
            parallel_snapshot, sort_keys=True
        )

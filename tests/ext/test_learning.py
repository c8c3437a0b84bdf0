"""Unit tests for the learned surrogate model."""

import pytest

from benchmarks.learning import fit_learned_model
from repro.common.errors import ConfigurationError
from repro.strategies.base import ServerView, VMDescriptor
from repro.strategies.proactive import ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass


@pytest.fixture(scope="module")
def learned(database):
    return fit_learned_model(database, sample_fraction=0.5, rng=7)


class TestFit:
    def test_training_quality(self, learned):
        # Log-space RMSE well under 0.25 (~25% multiplicative error).
        assert learned.rmse_log_time < 0.25
        assert learned.rmse_log_energy < 0.25

    def test_holdout_accuracy(self, database, learned):
        # Median relative error across the FULL grid stays moderate.
        errors = [learned.relative_error(r) for r in database.records]
        time_errors = sorted(e[0] for e in errors)
        energy_errors = sorted(e[1] for e in errors)
        assert time_errors[len(time_errors) // 2] < 0.15
        assert energy_errors[len(energy_errors) // 2] < 0.15

    def test_deterministic_given_seed(self, database):
        a = fit_learned_model(database, rng=3)
        b = fit_learned_model(database, rng=3)
        key = database.records[5].key
        assert a.estimate(key).time_s == b.estimate(key).time_s

    def test_invalid_fraction(self, database):
        with pytest.raises(ConfigurationError):
            fit_learned_model(database, sample_fraction=0.0)

    def test_invalid_ridge(self, database):
        with pytest.raises(ConfigurationError):
            fit_learned_model(database, ridge=-1.0)


class TestModelInterface:
    def test_estimates_are_positive_inexact(self, learned, database):
        estimate = learned.estimate((3, 1, 1))
        assert estimate.time_s > 0
        assert estimate.energy_j > 0
        assert not estimate.exact

    def test_bounds_mirror_source(self, learned, database):
        assert learned.grid_bounds == database.grid_bounds
        assert learned.within_bounds((1, 1, 1))
        osc = database.grid_bounds[0]
        assert not learned.within_bounds((osc + 1, 0, 0))

    def test_empty_mix_rejected(self, learned):
        with pytest.raises(ValueError):
            learned.estimate((0, 0, 0))

    def test_reference_times_pass_through(self, learned, database):
        for wc in WorkloadClass:
            assert learned.reference_time(wc) == database.reference_time(wc)


class TestAllocatorOnLearnedModel:
    def test_proactive_strategy_runs_on_surrogate(self, learned):
        strategy = ProactiveStrategy(learned, alpha=0.5)  # type: ignore[arg-type]
        views = [
            ServerView(f"s{i}", (0, 0, 0), max_vms=24, cpu_slots=4, powered_on=False)
            for i in range(3)
        ]
        batch = [
            VMDescriptor("c0", WorkloadClass.CPU),
            VMDescriptor("c1", WorkloadClass.CPU),
            VMDescriptor("m0", WorkloadClass.MEM),
        ]
        placement = strategy.place(batch, views)
        assert placement is not None
        assert len(placement) == 3

    def test_learned_and_exact_agree_on_direction(self, learned, database):
        # Consolidating 2 CPU VMs is cheaper energy-wise than solo
        # placement under both models.
        solo = database.estimate((1, 0, 0)).energy_j * 2
        packed = database.estimate((2, 0, 0)).energy_j
        learned_solo = learned.estimate((1, 0, 0)).energy_j * 2
        learned_packed = learned.estimate((2, 0, 0)).energy_j
        assert packed < solo
        assert learned_packed < learned_solo

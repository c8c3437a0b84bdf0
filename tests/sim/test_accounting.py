"""Unit tests for the Fig. 4 interval-weighted accounting.

The worked example's values are asserted exactly, since the paper
states them numerically.
"""

import pytest

from repro.sim.accounting import (
    IntervalWeights,
    weighted_energy,
    weighted_execution_time,
)
from tests.oracles.chronicle import fractions_from_durations


class TestPaperWorkedExample:
    def test_exec_time_vm1(self):
        # ExecTime_VM1 = 0.7*1200 + 0.3*1800 = 1380 s
        assert weighted_execution_time([(0.7, 1200.0), (0.3, 1800.0)]) == pytest.approx(1380.0)

    def test_energy(self):
        # Energy = 0.35*15kJ + 0.15*20kJ + 0.5*12kJ = 14.25 kJ
        value = weighted_energy([(0.35, 15_000.0), (0.15, 20_000.0), (0.5, 12_000.0)])
        assert value == pytest.approx(14_250.0)


class TestIntervalWeights:
    def test_single_interval(self):
        assert IntervalWeights(((1.0, 42.0),)).weighted_value == 42.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            IntervalWeights(((0.5, 1.0), (0.4, 2.0)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            IntervalWeights(((-0.5, 1.0), (1.5, 2.0)))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            IntervalWeights(((1.0, -1.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntervalWeights(())

    def test_zero_weight_interval_contributes_nothing(self):
        value = IntervalWeights(((1.0, 10.0), (0.0, 1e9))).weighted_value
        assert value == 10.0


class TestFractionsFromDurations:
    def test_normalizes(self):
        assert fractions_from_durations([700.0, 300.0]) == [0.7, 0.3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fractions_from_durations([])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            fractions_from_durations([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fractions_from_durations([1.0, -1.0])

    def test_composes_with_weighting(self):
        weights = fractions_from_durations([840.0, 360.0])  # 0.7 / 0.3
        value = weighted_execution_time(list(zip(weights, [1200.0, 1800.0])))
        assert value == pytest.approx(1380.0)

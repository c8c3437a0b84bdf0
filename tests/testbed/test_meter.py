"""Unit tests for the Watts Up? meter emulation."""

import math

import pytest

from repro.testbed.meter import (
    PowerMeter,
    exact_energy,
    exact_max_power,
)


SEGMENTS = [(0.0, 10.0, 100.0), (10.0, 20.0, 200.0)]


class TestExactIntegrals:
    def test_exact_energy(self):
        assert exact_energy(SEGMENTS) == pytest.approx(3000.0)

    def test_exact_max_power(self):
        assert exact_max_power(SEGMENTS) == 200.0

    def test_empty_profile(self):
        assert exact_energy([]) == 0.0
        assert exact_max_power([]) == 0.0

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            exact_energy([(0.0, 1.0, 5.0), (2.0, 3.0, 5.0)])

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            exact_energy([(0.0, 0.0, 5.0)])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            exact_energy([(0.0, 1.0, -5.0)])


class TestSampling:
    def test_noiseless_sampling_close_to_exact(self):
        meter = PowerMeter()
        reading = meter.measure(SEGMENTS)
        # 1 Hz sampling of a step profile: small discretization error.
        assert reading.energy_j == pytest.approx(3000.0, rel=0.05)
        assert reading.max_power_w == 200.0

    def test_sample_count(self):
        meter = PowerMeter()
        samples = meter.sample([(0.0, 5.0, 50.0)])
        # t = 0..5 inclusive at 1 Hz.
        assert len(samples) == 6

    def test_partial_tail_sampled(self):
        meter = PowerMeter()
        samples = meter.sample([(0.0, 2.5, 50.0)])
        assert len(samples) == 4  # 0, 1, 2, 2.5

    def test_empty_profile(self):
        assert PowerMeter().sample([]) == []

    def test_custom_period(self):
        meter = PowerMeter(period_s=5.0)
        assert len(meter.sample([(0.0, 10.0, 10.0)])) == 3

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PowerMeter(period_s=0.0)


class TestNoise:
    def test_noise_is_seeded(self):
        a = PowerMeter(accuracy=0.015, rng=1).measure(SEGMENTS)
        b = PowerMeter(accuracy=0.015, rng=1).measure(SEGMENTS)
        assert a.energy_j == b.energy_j

    def test_noise_changes_with_seed(self):
        a = PowerMeter(accuracy=0.015, rng=1).measure(SEGMENTS)
        b = PowerMeter(accuracy=0.015, rng=2).measure(SEGMENTS)
        assert a.energy_j != b.energy_j

    def test_noise_within_accuracy_class(self):
        # 1.5% meter: the energy integral over many samples should land
        # well within 1% of truth (noise averages out).
        meter = PowerMeter(accuracy=0.015, rng=7)
        reading = meter.measure([(0.0, 500.0, 150.0)])
        assert reading.energy_j == pytest.approx(150.0 * 500.0, rel=0.01)

    def test_negative_accuracy_rejected(self):
        with pytest.raises(ValueError):
            PowerMeter(accuracy=-0.1)

    @pytest.mark.parametrize("accuracy", [math.nan, math.inf])
    def test_non_finite_accuracy_rejected(self, accuracy):
        with pytest.raises(ValueError, match=f"accuracy must be non-negative and finite, got {accuracy}"):
            PowerMeter(accuracy=accuracy)

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0])
    def test_bad_period_rejected_at_construction(self, period):
        with pytest.raises(ValueError, match=f"period_s must be positive and finite, got {period}"):
            PowerMeter(period_s=period)

    def test_samples_never_negative(self):
        meter = PowerMeter(accuracy=0.5, rng=3)  # absurdly noisy
        samples = meter.sample([(0.0, 100.0, 1.0)])
        assert min(samples) >= 0.0


class TestReading:
    def test_mean_power(self):
        reading = PowerMeter().measure([(0.0, 10.0, 100.0)])
        assert sum(reading.samples_w) / len(reading.samples_w) == pytest.approx(100.0)


    def test_duration(self):
        reading = PowerMeter().measure([(0.0, 10.0, 100.0)])
        assert reading.duration_s == pytest.approx(10.0)

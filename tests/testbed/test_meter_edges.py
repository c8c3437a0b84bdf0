"""Edge-case tests for the power-meter internals."""

import pytest

from repro.testbed.meter import PowerMeter, _power_at


class TestPowerAt:
    SEGMENTS = [(0.0, 5.0, 100.0), (5.0, 10.0, 200.0)]

    def test_within_segments(self):
        assert _power_at(self.SEGMENTS, 2.0) == 100.0
        assert _power_at(self.SEGMENTS, 5.0) == 200.0  # boundary -> next

    def test_exact_end(self):
        assert _power_at(self.SEGMENTS, 10.0) == 200.0

    def test_outside_profile_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            _power_at(self.SEGMENTS, 11.0)


class TestMeterSamplingEdges:
    def test_sample_step_profile_hits_both_levels(self):
        meter = PowerMeter()
        samples = meter.sample([(0.0, 3.0, 50.0), (3.0, 6.0, 150.0)])
        assert 50.0 in samples and 150.0 in samples

    def test_sub_period_profile(self):
        meter = PowerMeter(period_s=1.0)
        samples = meter.sample([(0.0, 0.4, 75.0)])
        # One sample at t=0 plus the end-of-profile sample.
        assert samples == [75.0, 75.0]

    def test_reading_of_empty_profile(self):
        reading = PowerMeter().measure([])
        assert reading.energy_j == 0.0
        assert reading.max_power_w == 0.0

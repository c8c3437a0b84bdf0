"""Unit tests for repro.common.quantities."""

import pytest

from repro.common.quantities import (
    Joules,
    Seconds,
    Watts,
    energy_delay_product,
    integrate_power_samples,
)


class TestUnitTypes:
    def test_seconds_is_a_float(self):
        assert Seconds(3.5) == 3.5
        assert isinstance(Seconds(3.5), float)

    def test_arithmetic_decays_to_float(self):
        ratio = Seconds(10.0) / Seconds(5.0)
        assert ratio == 2.0

    def test_reprs_carry_units(self):
        assert repr(Seconds(1.5)) == "1.5s"
        assert repr(Joules(2.0)) == "2J"
        assert repr(Watts(125.0)) == "125W"


class TestEnergyDelayProduct:
    def test_basic(self):
        assert energy_delay_product(10.0, 5.0) == 50.0

    def test_zero_allowed(self):
        assert energy_delay_product(0.0, 5.0) == 0.0

    @pytest.mark.parametrize("energy,time", [(-1.0, 5.0), (5.0, -1.0)])
    def test_negative_rejected(self, energy, time):
        with pytest.raises(ValueError):
            energy_delay_product(energy, time)


class TestIntegratePowerSamples:
    def test_empty(self):
        assert integrate_power_samples([]) == 0.0

    def test_single_sample_counts_one_period(self):
        assert integrate_power_samples([100.0], period_s=2.0) == 200.0

    def test_constant_power_trapezoid(self):
        # 3 samples at 1 Hz span 2 seconds at constant 50 W -> 100 J.
        assert integrate_power_samples([50.0, 50.0, 50.0]) == pytest.approx(100.0)

    def test_ramp(self):
        # 0 -> 100 W over one period: trapezoid gives 50 J.
        assert integrate_power_samples([0.0, 100.0]) == pytest.approx(50.0)

    def test_period_scales_energy(self):
        base = integrate_power_samples([10.0, 30.0], period_s=1.0)
        double = integrate_power_samples([10.0, 30.0], period_s=2.0)
        assert double == pytest.approx(2 * base)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            integrate_power_samples([1.0], period_s=0.0)

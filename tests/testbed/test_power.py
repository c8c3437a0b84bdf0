"""Unit tests for the power model."""

import pytest

from repro.testbed.benchmarks import get_benchmark
from repro.testbed.contention import ActiveVM, MixModel
from repro.testbed.power import instantaneous_power
from repro.testbed.spec import SUBSYSTEMS, PowerSpec, Subsystem, default_server
from tests.oracles.runner import mix_power


@pytest.fixture
def power():
    return PowerSpec()


def zero_loads():
    return {s: 0.0 for s in SUBSYSTEMS}


class TestInstantaneousPower:
    def test_idle_draw(self, power):
        assert instantaneous_power(zero_loads(), 0, power) == 125.0

    def test_saturation_clamps(self, power):
        loads = {s: 5.0 for s in SUBSYSTEMS}  # heavily oversubscribed
        saturated = power.idle_w + sum(power.dynamic_w[s] for s in SUBSYSTEMS)
        assert instantaneous_power(loads, 0, power) == pytest.approx(saturated)

    def test_per_vm_term(self, power):
        base = instantaneous_power(zero_loads(), 0, power)
        with_vms = instantaneous_power(zero_loads(), 3, power)
        assert with_vms - base == pytest.approx(3 * power.per_vm_w)

    def test_proportional_below_saturation(self, power):
        loads = zero_loads()
        loads[Subsystem.CPU] = 0.5
        draw = instantaneous_power(loads, 0, power)
        assert draw == pytest.approx(125.0 + 0.5 * power.dynamic_w[Subsystem.CPU])

    def test_negative_n_rejected(self, power):
        with pytest.raises(ValueError):
            instantaneous_power(zero_loads(), -1, power)

    def test_negative_load_rejected(self, power):
        loads = zero_loads()
        loads[Subsystem.DISK] = -0.1
        with pytest.raises(ValueError):
            instantaneous_power(loads, 0, power)

    def test_missing_subsystem_treated_as_zero(self, power):
        assert instantaneous_power({}, 0, power) == 125.0


class TestMixPower:
    def test_empty_mix_draws_idle(self):
        model = MixModel(default_server())
        assert mix_power(model, []) == 125.0

    def test_busy_mix_draws_more(self):
        model = MixModel(default_server())
        mix = [ActiveVM(get_benchmark("fftw")) for _ in range(4)]
        assert mix_power(model, mix) > 200.0

    def test_monotone_in_vm_count(self):
        model = MixModel(default_server())
        mixes = [[ActiveVM(get_benchmark("fftw"))] * n for n in (1, 2, 4)]
        draws = [mix_power(model, m) for m in mixes]
        assert draws == sorted(draws)

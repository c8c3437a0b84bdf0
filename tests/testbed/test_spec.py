"""Unit tests for repro.testbed.spec."""

import pytest

from repro.common.errors import ConfigurationError
from repro.testbed.power import instantaneous_power
from repro.testbed.spec import (
    SUBSYSTEMS,
    PowerSpec,
    ServerSpec,
    Subsystem,
    default_server,
)


class TestSubsystem:
    def test_four_dimensions(self):
        assert len(SUBSYSTEMS) == 4
        assert set(SUBSYSTEMS) == {
            Subsystem.CPU,
            Subsystem.MEMORY,
            Subsystem.DISK,
            Subsystem.NETWORK,
        }

    def test_string_values(self):
        assert Subsystem.CPU.value == "cpu"
        assert Subsystem("memory") is Subsystem.MEMORY


class TestPowerSpec:
    def test_paper_idle_power(self):
        assert PowerSpec().idle_w == 125.0

    def test_max_w_sums_dynamics(self):
        spec = PowerSpec()
        saturated = {s: 1.0 for s in SUBSYSTEMS}
        assert instantaneous_power(saturated, 0, spec) == 125.0 + sum(
            spec.dynamic_w[s] for s in SUBSYSTEMS
        )

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSpec(idle_w=-1.0)

    def test_missing_subsystem_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSpec(dynamic_w={Subsystem.CPU: 80.0})

    def test_negative_dynamic_rejected(self):
        bad = {s: 10.0 for s in SUBSYSTEMS}
        bad[Subsystem.DISK] = -5.0
        with pytest.raises(ConfigurationError):
            PowerSpec(dynamic_w=bad)


class TestServerSpec:
    def test_default_is_quad_core(self):
        server = default_server()
        assert server.capacity(Subsystem.CPU) == 4.0
        assert server.ram_gb == 4.0

    def test_usable_ram_excludes_dom0(self):
        server = default_server()
        assert server.usable_ram_gb == pytest.approx(server.ram_gb - server.reserved_ram_gb)
        assert 0 < server.usable_ram_gb < server.ram_gb

    def test_named(self):
        assert default_server("rack-7").name == "rack-7"

    def test_zero_capacity_rejected(self):
        caps = dict(default_server().capacities)
        caps[Subsystem.CPU] = 0.0
        with pytest.raises(ConfigurationError):
            ServerSpec(capacities=caps)

    def test_reserved_ram_bounds(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(reserved_ram_gb=4.0)  # equal to ram_gb

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(name="")

    def test_max_vms_validated(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(max_vms=0)

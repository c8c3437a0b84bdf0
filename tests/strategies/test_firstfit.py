"""Unit tests for the FIRST-FIT family."""

import pytest

from repro.common.errors import ConfigurationError
from repro.strategies.base import ServerView, VMDescriptor
from repro.strategies.slotfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass


def view(server_id="s0", mix=(0, 0, 0), max_vms=24, cpu_slots=4):
    return ServerView(
        server_id=server_id, mix=mix, max_vms=max_vms, cpu_slots=cpu_slots, powered_on=True
    )


def vms(n, workload_class=WorkloadClass.CPU):
    return [VMDescriptor(f"v{i}", workload_class) for i in range(n)]


class TestNames:
    def test_paper_naming(self):
        assert FirstFitStrategy(1).name == "FF"
        assert FirstFitStrategy(2).name == "FF-2"
        assert FirstFitStrategy(3).name == "FF-3"

    def test_invalid_multiplex(self):
        with pytest.raises(ConfigurationError):
            FirstFitStrategy(0)

    @pytest.mark.parametrize(
        "multiplex", [2.5, float("nan"), float("inf"), True, False, "2", None]
    )
    def test_non_integral_multiplex_is_rejected(self, multiplex):
        # 2.5 used to be named FF-2.5 but place at multiplex 2, nan to
        # raise a bare ValueError, and True to pass as 1.
        with pytest.raises(ConfigurationError, match="whole number"):
            FirstFitStrategy(multiplex)

    def test_integral_float_multiplex_names_the_integer(self):
        strategy = FirstFitStrategy(2.0)
        assert (strategy.name, strategy.multiplex) == ("FF-2", 2)


class TestPlacement:
    def test_fills_first_server_first(self):
        placement = FirstFitStrategy(1).place(vms(2), [view("s0"), view("s1")])
        assert set(placement.values()) == {"s0"}

    def test_respects_cpu_slots(self):
        # FF: one VM per CPU; a 6-VM job overflows a 4-core server.
        placement = FirstFitStrategy(1).place(vms(6), [view("s0"), view("s1")])
        assert sum(1 for s in placement.values() if s == "s0") == 4
        assert sum(1 for s in placement.values() if s == "s1") == 2

    def test_multiplex_expands_slots(self):
        placement = FirstFitStrategy(2).place(vms(8), [view("s0"), view("s1")])
        assert set(placement.values()) == {"s0"}

    def test_multiplex_three(self):
        placement = FirstFitStrategy(3).place(vms(12), [view("s0")])
        assert placement is not None
        assert len(placement) == 12

    def test_accounts_existing_vms(self):
        placement = FirstFitStrategy(1).place(vms(2), [view("s0", mix=(3, 0, 0)), view("s1")])
        assert placement["v0"] == "s0"  # one free slot
        assert placement["v1"] == "s1"

    def test_returns_none_when_full(self):
        full = view("s0", mix=(4, 0, 0))
        assert FirstFitStrategy(1).place(vms(1), [full]) is None

    def test_max_vms_caps_budget(self):
        tight = view("s0", max_vms=2, cpu_slots=4)
        placement = FirstFitStrategy(3).place(vms(3), [tight])
        assert placement is None  # budget = min(12, 2)

    def test_class_blind(self):
        # FF ignores workload classes entirely: mem VMs pack like CPU.
        placement = FirstFitStrategy(1).place(vms(4, WorkloadClass.MEM), [view("s0")])
        assert set(placement.values()) == {"s0"}

    def test_all_vms_covered(self):
        batch = vms(5)
        placement = FirstFitStrategy(2).place(batch, [view("s0"), view("s1")])
        assert set(placement) == {vm.vm_id for vm in batch}

"""Unit tests for the strategy interface primitives."""

import pytest

from repro.strategies.base import ServerView, VMDescriptor
from repro.testbed.benchmarks import WorkloadClass


class TestServerView:
    def view(self, mix=(0, 0, 0), max_vms=24, cpu_slots=4):
        return ServerView(
            server_id="s0", mix=mix, max_vms=max_vms, cpu_slots=cpu_slots, powered_on=True
        )

    def test_n_vms(self):
        assert self.view(mix=(2, 1, 3)).n_vms == 6

    def test_free_slots_multiplex_one(self):
        assert self.view(mix=(3, 0, 0)).free_slots(1) == 1

    def test_free_slots_multiplex_three(self):
        assert self.view(mix=(3, 0, 0)).free_slots(3) == 9

    def test_free_slots_capped_by_max_vms(self):
        view = self.view(mix=(0, 0, 0), max_vms=5, cpu_slots=4)
        assert view.free_slots(3) == 5  # min(12, 5)

    def test_free_slots_never_negative(self):
        view = self.view(mix=(6, 0, 0))
        assert view.free_slots(1) == 0

    def test_mixed_classes_consume_slots(self):
        # FF's slot budget is class-blind: mem/io VMs consume slots too.
        assert self.view(mix=(1, 1, 1)).free_slots(1) == 1


class TestVMDescriptor:
    def test_defaults(self):
        vm = VMDescriptor("x", WorkloadClass.IO)
        assert vm.remaining_deadline_s is None

    def test_frozen(self):
        vm = VMDescriptor("x", WorkloadClass.IO)
        with pytest.raises(AttributeError):
            vm.vm_id = "y"  # type: ignore[misc]

"""Additional ServerRuntime lifecycle edge cases (VM abort, power)."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server


def make_vm(vm_id="v0"):
    return SimVM(vm_id=vm_id, job_id=0, workload_class=WorkloadClass.CPU, submit_time_s=0.0)


@pytest.fixture
def server():
    runtime = ServerRuntime("s0", default_server())
    runtime.sync(0.0)
    return runtime


class TestDetach:
    def test_detach_returns_vm_with_state(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        server.sync(100.0)
        detached = server.detach_vm(vm, 100.0)
        assert detached is vm
        assert server.n_vms == 0
        # Progress persisted: the init phase is partially consumed.
        assert vm.remaining[vm.stage] < vm.benchmark.t_ref_s

    def test_detach_unknown_vm_rejected(self, server):
        server.add_vm(make_vm("a"), 0.0)
        with pytest.raises(SimulationError, match="not hosted"):
            server.detach_vm(make_vm("b"), 0.0)

    def test_detach_without_sync_rejected(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        with pytest.raises(SimulationError, match="without sync"):
            server.detach_vm(vm, 500.0)

    def test_detach_powers_off_empty_server(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        server.sync(10.0)
        server.detach_vm(vm, 10.0)
        assert not server.powered_on


class TestPowerOn:
    def test_power_on_accrues_idle_until_off(self):
        # add_vm powers the server on; with power_off_when_empty=False
        # it stays on, idle, once the VM has finished.
        runtime = ServerRuntime("s0", default_server(), power_off_when_empty=False)
        vm = make_vm()
        runtime.sync(0.0)
        runtime.add_vm(vm, 0.0)
        init_done_s = runtime.next_boundary(0.0)
        assert runtime.sync(init_done_s) == []
        done_s = runtime.next_boundary(init_done_s)
        assert runtime.sync(done_s) == [vm]
        assert runtime.energy().idle_j == 0.0
        runtime.sync(done_s + 100.0)
        assert runtime.powered_on
        assert runtime.energy().idle_j == pytest.approx(
            100.0 * default_server().power.idle_w
        )

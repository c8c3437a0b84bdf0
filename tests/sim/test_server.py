"""Unit tests for the per-server runtime."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from tests.oracles.sim import NaiveServerRuntime


def make_vm(vm_id="v0", workload_class=WorkloadClass.CPU):
    return SimVM(
        vm_id=vm_id,
        job_id=1,
        workload_class=workload_class,
        submit_time_s=0.0,
    )


@pytest.fixture
def server():
    return ServerRuntime("s0", default_server())


def power_w(server):
    """Instantaneous draw under the current mix (0 when off)."""
    return server._mix_physics()[2] if server.powered_on else 0.0


class TestPowerState:
    def test_starts_powered_off(self, server):
        assert not server.powered_on
        assert power_w(server) == 0.0

    def test_powers_on_with_first_vm(self, server):
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        assert server.powered_on
        assert power_w(server) > 125.0

    def test_powers_off_when_empty(self, server):
        server.sync(0.0)
        vm = make_vm()
        server.add_vm(vm, 0.0)
        finished = server.sync(10_000.0)
        assert finished == [vm]
        assert not server.powered_on

    def test_always_on_policy_accrues_idle_energy(self):
        server = ServerRuntime("s0", default_server(), power_off_when_empty=False)
        vm = make_vm()
        server.sync(0.0)
        server.add_vm(vm, 0.0)
        assert server.sync(10_000.0) == [vm]
        assert server.powered_on  # stays on after its last VM finished
        energy = server.energy()
        # Idle from the solo completion to the end of the sync.
        assert energy.idle_j == pytest.approx(
            (10_000.0 - vm.benchmark.t_ref_s) * default_server().power.idle_w
        )
        assert energy.busy_j > 0.0

class TestMixKey:
    def test_counts_by_class(self, server):
        server.sync(0.0)
        server.add_vm(make_vm("c0", WorkloadClass.CPU), 0.0)
        server.add_vm(make_vm("m0", WorkloadClass.MEM), 0.0)
        server.add_vm(make_vm("i0", WorkloadClass.IO), 0.0)
        assert server.mix_key() == (1, 1, 1)

    def test_empty_mix(self, server):
        assert server.mix_key() == (0, 0, 0)


class TestSyncSemantics:
    def test_sync_backwards_rejected(self, server):
        server.sync(10.0)
        with pytest.raises(SimulationError):
            server.sync(5.0)

    def test_add_without_sync_rejected(self, server):
        server.sync(0.0)
        with pytest.raises(SimulationError):
            server.add_vm(make_vm(), 50.0)

    def test_completion_time_matches_solo_runtime(self, server):
        vm = make_vm()
        server.sync(0.0)
        server.add_vm(vm, 0.0)
        boundary = server.next_boundary(0.0)
        # First boundary: end of the init phase.
        assert boundary == pytest.approx(vm.benchmark.serial_time_s)
        server.sync(boundary)
        second = server.next_boundary(boundary)
        assert second == pytest.approx(vm.benchmark.t_ref_s)
        finished = server.sync(second)
        assert finished == [vm]

    def test_energy_accrues_during_busy_time(self, server):
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        server.sync(100.0)
        assert server.energy().busy_j > 0.0
        assert server.energy().idle_j == 0.0

    def test_next_boundary_none_when_idle(self, server):
        assert server.next_boundary(0.0) is None

    def test_contention_delays_boundaries(self):
        crowded = ServerRuntime("a", default_server())
        solo = ServerRuntime("b", default_server())
        crowded.sync(0.0)
        solo.sync(0.0)
        for i in range(8):
            crowded.add_vm(make_vm(f"v{i}"), 0.0)
        solo.add_vm(make_vm("solo"), 0.0)
        # Skip both init phases (uncontended) to compare work phases.
        b_crowded = crowded.next_boundary(0.0)
        b_solo = solo.next_boundary(0.0)
        crowded.sync(b_crowded)
        solo.sync(b_solo)
        assert crowded.next_boundary(b_crowded) > solo.next_boundary(b_solo)


class TestPhysicsEntryInvalidation:
    """The server's per-mix physics entry must be cleared, and its kind
    codes kept current, at every mix change: stepped in lockstep with
    the oracle's naive server (which recomputes every step), both must
    agree exactly after every operation, and the memo key must equal
    the codes derived afresh from the hosted VMs."""

    @staticmethod
    def assert_agree(memo, naive, now_s):
        assert memo.next_boundary(now_s) == naive.next_boundary(now_s)
        assert power_w(memo) == power_w(naive)
        assert memo.energy() == naive.energy()
        assert [vm.vm_id for vm in memo.vms] == [vm.vm_id for vm in naive.vms]
        assert [vm.stage for vm in memo.vms] == [vm.stage for vm in naive.vms]
        assert [vm.remaining for vm in memo.vms] == [vm.remaining for vm in naive.vms]
        # Codes are interned on the memo's first consultation (which
        # next_boundary makes whenever a VM is hosted).
        fresh = [memo._kinds.code_of(vm) for vm in memo.vms]
        assert memo._codes == fresh or (memo._codes is None and not fresh)

    def test_memo_entry_tracks_naive_through_every_mix_change(self):
        memo = ServerRuntime("s0", default_server())
        naive = NaiveServerRuntime("s1", default_server())
        pair = (memo, naive)

        def check(now_s):
            self.assert_agree(memo, naive, now_s)

        def add(vm_id, workload_class, now_s):
            for server in pair:
                server.add_vm(make_vm(vm_id, workload_class), now_s)
            check(now_s)

        def sync(now_s):
            finished = [server.sync(now_s) for server in pair]
            assert [vm.vm_id for vm in finished[0]] == [vm.vm_id for vm in finished[1]]
            check(now_s)
            return finished[0]

        sync(0.0)
        add("cpu0", WorkloadClass.CPU, 0.0)
        add("mem0", WorkloadClass.MEM, 0.0)
        # mem0 leaves its 35 s init stage inside this sync, so the
        # integration crosses a stage change mid-interval.
        assert sync(100.0) == []
        assert [vm.stage for vm in memo.vms] == [0, 1]
        add("io0", WorkloadClass.IO, 100.0)
        add("cpu1", WorkloadClass.CPU, 100.0)
        assert sync(400.0) == []
        assert all(vm.stage == 1 for vm in memo.vms)
        # A VM finishes mid-step; the others keep running past it.
        finished = sync(700.0)
        assert finished and memo.n_vms > 0

        evicted = [server.fail(700.0) for server in pair]
        assert evicted[0]
        assert [vm.vm_id for vm in evicted[0]] == [vm.vm_id for vm in evicted[1]]
        check(700.0)
        sync(800.0)
        for server in pair:
            server.recover(800.0)
        check(800.0)
        add("mem1", WorkloadClass.MEM, 800.0)
        add("mem2", WorkloadClass.MEM, 800.0)
        add("io1", WorkloadClass.IO, 800.0)
        sync(850.0)
        # An abort takes a VM out of the middle of the list: the codes
        # of its neighbours (a MEM ahead, an IO behind) must stay put.
        add("cpu2", WorkloadClass.CPU, 850.0)
        assert [vm.vm_id for vm in memo.vms] == ["mem1", "mem2", "io1", "cpu2"]
        for server in pair:
            server.detach_vm(server.vms[1], 850.0)
        check(850.0)
        # A transient slowdown stretches the step, then ends.
        for server in pair:
            server.set_slowdown(2.5, 850.0)
        check(850.0)
        sync(900.0)
        for server in pair:
            server.clear_slowdown(900.0)
        check(900.0)
        sync(950.0)
        sync(5000.0)
        assert memo.n_vms == 0
        assert memo._codes == []

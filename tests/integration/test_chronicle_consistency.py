"""Integration: the simulator's outcomes equal the Fig. 4 arithmetic
recomputed from recorded interval chronicles.

This is the reproduction's strongest internal consistency check: the
event-driven simulation and the paper's weighted-interval accounting
are two views of the same quantity, and they must agree exactly.
"""

import pytest

from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from tests.oracles.chronicle import interval_weights, iter_all, vm_execution_time_s


def drive(server, vms_with_offsets, horizon=1e6):
    """Minimal event loop: add VMs at their offsets, sync at boundaries."""
    events = sorted({offset for _, offset in vms_with_offsets})
    now = 0.0
    pending = sorted(vms_with_offsets, key=lambda p: p[1])
    finished = []
    for _ in range(100_000):
        next_arrival = pending[0][1] if pending else None
        boundary = server.next_boundary(now)
        candidates = [c for c in (next_arrival, boundary) if c is not None]
        if not candidates:
            break
        now = min(candidates)
        for vm in server.sync(now):
            vm.finish(now)
            finished.append(vm)
        while pending and pending[0][1] <= now + 1e-9:
            vm, _ = pending.pop(0)
            server.add_vm(vm, now)
    return finished, now


def make_vm(vm_id, workload_class):
    return SimVM(vm_id=vm_id, job_id=0, workload_class=workload_class, submit_time_s=0.0)


class TestChronicleConsistency:
    @pytest.fixture
    def run(self):
        server = ServerRuntime("s0", default_server(), record_chronicle=True)
        server.sync(0.0)
        batch = [
            (make_vm("c0", WorkloadClass.CPU), 0.0),
            (make_vm("c1", WorkloadClass.CPU), 0.0),
            (make_vm("m0", WorkloadClass.MEM), 120.0),
            (make_vm("i0", WorkloadClass.IO), 300.0),
        ]
        finished, end = drive(server, batch)
        return server, {vm.vm_id: vm for vm in finished}, end

    def test_all_vms_finish(self, run):
        _, finished, _ = run
        assert set(finished) == {"c0", "c1", "m0", "i0"}

    def test_exec_times_match_interval_sums(self, run):
        server, finished, _ = run
        for vm_id, vm in finished.items():
            recomputed = vm_execution_time_s(server.chronicle, vm_id)
            assert recomputed == pytest.approx(vm.finished_at_s - vm.placed_at_s, rel=1e-9), vm_id

    def test_interval_weights_are_a_partition(self, run):
        server, finished, _ = run
        for vm_id in finished:
            weights = interval_weights(server.chronicle, vm_id)
            assert sum(w for w, _ in weights) == pytest.approx(1.0)
            # Mix changes between consecutive intervals (that is what
            # defines an interval boundary)... except across another
            # VM's stage transition, where counts stay equal; at least
            # the sequence must contain the VM itself throughout.
            for _, mix in weights:
                assert sum(mix) >= 1

    def test_energy_matches_accounting(self, run):
        server, _, _ = run
        energy = server.energy()
        assert sum(i.energy_j for i in iter_all(server.chronicle)) == pytest.approx(
            energy.busy_j + energy.idle_j, rel=1e-9
        )

    def test_worked_example_shape(self, run):
        """A VM spanning several allocations: its execution time equals
        the weighted average of full-span estimates, i.e. the sum of
        interval durations -- the Fig. 4 formula with measured weights."""
        server, finished, _ = run
        vm = finished["c0"]
        weights = interval_weights(server.chronicle, "c0")
        span = vm.finished_at_s - vm.placed_at_s
        weighted = sum(w * span for w, _ in weights)
        assert weighted == pytest.approx(span)
        assert len(weights) >= 3  # several distinct allocations seen

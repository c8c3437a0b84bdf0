"""Unit tests for interval chronicles."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.chronicle import Chronicle
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from tests.oracles.chronicle import interval_weights, iter_all, vm_execution_time_s


class TestChronicleLog:
    def test_records_and_iterates(self):
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 10.0, (1, 0, 0), 150.0, ["a"])
        chronicle.record(10.0, 30.0, (2, 0, 0), 200.0, ["a", "b"])
        assert len(chronicle) == 2
        assert [i.duration_s for i in chronicle] == [10.0, 20.0]

    def test_zero_length_ignored(self):
        chronicle = Chronicle("s0")
        chronicle.record(5.0, 5.0, (1, 0, 0), 150.0, ["a"])
        assert len(chronicle) == 0

    def test_overlap_rejected(self):
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 10.0, (1, 0, 0), 150.0, ["a"])
        with pytest.raises(SimulationError, match="overlaps"):
            chronicle.record(5.0, 15.0, (1, 0, 0), 150.0, ["a"])

    def test_backwards_interval_rejected(self):
        with pytest.raises(SimulationError):
            Chronicle("s0").record(10.0, 5.0, (1, 0, 0), 150.0, ["a"])

    def test_energy_arithmetic(self):
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 10.0, (1, 0, 0), 100.0, ["a"])
        chronicle.record(10.0, 20.0, (0, 0, 0), 125.0, [])
        busy, idle = (i.energy_j for i in iter_all(chronicle))
        assert busy == pytest.approx(1000.0)
        assert idle == pytest.approx(1250.0)

    def test_vm_views(self):
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 10.0, (1, 0, 0), 100.0, ["a"])
        chronicle.record(10.0, 30.0, (2, 0, 0), 150.0, ["a", "b"])
        assert vm_execution_time_s(chronicle, "a") == pytest.approx(30.0)
        assert vm_execution_time_s(chronicle, "b") == pytest.approx(20.0)
        weights = interval_weights(chronicle, "a")
        assert [w for w, _ in weights] == pytest.approx([1 / 3, 2 / 3])
        with pytest.raises(KeyError):
            vm_execution_time_s(chronicle, "zzz")


class TestServerChronicleIntegration:
    def test_server_records_intervals(self):
        server = ServerRuntime("s0", default_server(), record_chronicle=True)
        assert server.chronicle is not None
        server.sync(0.0)
        vm = SimVM(vm_id="v0", job_id=1, workload_class=WorkloadClass.CPU, submit_time_s=0.0)
        server.add_vm(vm, 0.0)
        boundary = server.next_boundary(0.0)
        server.sync(boundary)
        server.sync(server.next_boundary(boundary))
        # Two stages -> two intervals (init + work).
        assert len(server.chronicle) == 2
        assert vm_execution_time_s(server.chronicle, "v0") == pytest.approx(
            vm.benchmark.t_ref_s, rel=1e-6
        )

    def test_chronicle_energy_matches_accounting(self):
        server = ServerRuntime("s0", default_server(), record_chronicle=True)
        server.sync(0.0)
        for i in range(3):
            server.add_vm(
                SimVM(vm_id=f"v{i}", job_id=i, workload_class=WorkloadClass.CPU, submit_time_s=0.0),
                0.0,
            )
        server.sync(10_000.0)
        energy = server.energy()
        assert sum(i.energy_j for i in iter_all(server.chronicle)) == pytest.approx(
            energy.busy_j + energy.idle_j, rel=1e-9
        )

    def test_disabled_by_default(self):
        assert ServerRuntime("s0", default_server()).chronicle is None

"""Unit tests for the simulated VM lifecycle."""

import math

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.vm import SimVM, VMState
from repro.testbed.benchmarks import WorkloadClass, get_benchmark


def make_vm(**kwargs):
    defaults = dict(
        vm_id="v0",
        job_id=1,
        workload_class=WorkloadClass.CPU,
        submit_time_s=0.0,
    )
    defaults.update(kwargs)
    return SimVM(**defaults)


class TestConstruction:
    def test_defaults_to_canonical_benchmark(self):
        vm = make_vm()
        assert vm.benchmark is not None
        assert vm.benchmark.name == "fftw"

    def test_explicit_benchmark(self):
        vm = make_vm(benchmark=get_benchmark("hpl"))
        assert vm.benchmark.name == "hpl"

    def test_stage_initialized(self):
        vm = make_vm()
        assert vm.stage == 0
        assert vm.remaining[0] == pytest.approx(vm.benchmark.serial_time_s)

    def test_no_serial_phase_skips_stage_zero(self):
        vm = make_vm(workload_class=WorkloadClass.MEM)
        assert vm.stage == 0  # sysbench has a small but nonzero init

    def test_class_name_coerced_to_member(self):
        vm = make_vm(workload_class="cpu")
        assert vm.workload_class is WorkloadClass.CPU
        assert vm.benchmark.name == "fftw"

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            make_vm(workload_class="gpu")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_vm(vm_id="")
        with pytest.raises(ConfigurationError):
            make_vm(submit_time_s=-1.0)


class TestLifecycle:
    def test_place_and_finish(self):
        vm = make_vm()
        vm.place("s0", 10.0)
        assert vm.state is VMState.RUNNING
        assert vm.server_id == "s0"
        vm.finish(100.0)
        assert vm.state is VMState.FINISHED
        assert vm.exec_time_s == pytest.approx(90.0)
        assert vm.response_time_s == pytest.approx(100.0)

    def test_double_place_rejected(self):
        vm = make_vm()
        vm.place("s0", 0.0)
        with pytest.raises(SimulationError):
            vm.place("s1", 1.0)

    def test_finish_before_place_rejected(self):
        with pytest.raises(SimulationError):
            make_vm().finish(1.0)

    def test_deadline_check(self):
        vm = make_vm(deadline_s=50.0)
        vm.place("s0", 0.0)
        vm.finish(60.0)
        assert vm.missed_deadline

    def test_no_deadline_never_missed(self):
        vm = make_vm()
        vm.place("s0", 0.0)
        vm.finish(1e9)
        assert not vm.missed_deadline


class TestProgress:
    def test_advance_through_stages(self):
        vm = make_vm()
        serial = vm.benchmark.serial_time_s
        work = vm.benchmark.work_time_s
        vm.advance(serial, 1.0)
        assert vm.stage == 1
        vm.advance(work, 1.0)
        assert vm.done

    def test_slowdown_scales_progress(self):
        vm = make_vm()
        vm.advance(vm.benchmark.serial_time_s * 2, 2.0)  # half rate
        assert vm.stage == 1

    def test_advance_after_done_rejected(self):
        # advance() is per-stage by design (rates differ across stages);
        # step through both stages explicitly.
        vm = make_vm()
        vm.advance(vm.benchmark.serial_time_s, 1.0)
        vm.advance(vm.benchmark.work_time_s, 1.0)
        assert vm.done
        with pytest.raises(SimulationError):
            vm.advance(1.0, 1.0)

    def test_active_view_reflects_stage(self):
        vm = make_vm()
        init_view = vm.active_view()
        assert not init_view.contended
        assert init_view.demand_scale == vm.benchmark.init_demand_scale
        vm.advance(vm.benchmark.serial_time_s, 1.0)
        work_view = vm.active_view()
        assert work_view.contended
        assert work_view.demand_scale == 1.0

    def test_placed_at_nan_until_placed(self):
        assert math.isnan(make_vm().placed_at_s)

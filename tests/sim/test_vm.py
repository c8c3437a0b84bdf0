"""Unit tests for the simulated VM lifecycle."""

import copy
import dataclasses
import math
import pickle
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.server import KindRegistry
from repro.sim.vm import SimVM, VMState
from repro.testbed.benchmarks import WorkloadClass, canonical_benchmark, get_benchmark
from repro.testbed.contention import stage_kinds


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
        for cls in WorkloadClass:
            assert make_vm(workload_class=cls).benchmark is canonical_benchmark(cls)

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
        assert vm.benchmark is canonical_benchmark(WorkloadClass.CPU)
        assert vm.remaining == [vm.benchmark.serial_time_s, vm.benchmark.work_time_s]

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            make_vm(workload_class="gpu")

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="vm_id must be non-empty"):
            make_vm(vm_id="")
        with pytest.raises(ConfigurationError, match=r"submit_time_s must be >= 0, got -1.0"):
            make_vm(submit_time_s=-1.0)


class TestLifecycle:
    def test_place_and_finish(self):
        vm = make_vm()
        vm.place("s0", 10.0)
        assert vm.state is VMState.RUNNING
        assert vm.server_id == "s0"
        vm.finish(100.0)
        assert vm.state is VMState.FINISHED
        assert vm.finished_at_s - vm.placed_at_s == pytest.approx(90.0)
        assert vm.response_time_s == pytest.approx(100.0)

    def test_double_place_rejected(self):
        vm = make_vm()
        vm.place("s0", 0.0)
        with pytest.raises(SimulationError, match="VM v0 placed twice"):
            vm.place("s1", 1.0)

    def test_finish_before_place_rejected(self):
        with pytest.raises(SimulationError, match="VM v0 finished while pending"):
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
        with pytest.raises(SimulationError, match="advancing finished VM v0"):
            vm.advance(1.0, 1.0)

    def test_kind_reflects_stage(self):
        kinds = KindRegistry()
        vm = make_vm()
        init_code = kinds.code_of(vm)
        init, work = stage_kinds(vm.benchmark)
        assert kinds.records[init_code] == init and not init.contended
        vm.advance(vm.benchmark.serial_time_s, 1.0)
        work_code = kinds.code_of(vm)
        assert work_code != init_code
        assert kinds.records[work_code] == work and work.contended

    def test_placed_at_nan_until_placed(self):
        assert math.isnan(make_vm().placed_at_s)


class TestContract:
    """The construction, lifecycle and copy contract of a ``SimVM``."""

    def test_defaults(self):
        vm = make_vm()
        assert vm.deadline_s == math.inf
        assert vm.state is VMState.PENDING
        assert vm.stage == 0
        assert vm.server_id is None
        assert math.isnan(vm.placed_at_s)
        assert math.isnan(vm.finished_at_s)

    def test_positional_signature(self):
        bench = get_benchmark("hpl")
        vm = SimVM("v1", 7, WorkloadClass.CPU, 2.0, 9.0, bench)
        assert (vm.vm_id, vm.job_id, vm.submit_time_s, vm.deadline_s) == ("v1", 7, 2.0, 9.0)
        assert vm.benchmark is bench

    def test_zero_length_init_stage_skipped(self):
        bench = dataclasses.replace(get_benchmark("fftw"), serial_fraction=0.0)
        vm = make_vm(benchmark=bench)
        assert vm.stage == 1
        assert vm.remaining == [0.0, bench.work_time_s]
        kinds = KindRegistry()
        assert kinds.records[kinds.code_of(vm)] == stage_kinds(bench)[1]

    def test_zero_length_stages_skipped_to_done(self):
        # No valid BenchmarkSpec has an empty work stage; the VM reads
        # only the two stage lengths, so a stand-in shows the skip.
        vm = make_vm(benchmark=SimpleNamespace(serial_time_s=0.0, work_time_s=0.0))
        assert vm.stage == 2
        assert vm.done

    def test_zero_length_work_stage_skipped_on_advance(self):
        vm = make_vm(benchmark=SimpleNamespace(serial_time_s=5.0, work_time_s=0.0))
        assert vm.stage == 0
        vm.advance(5.0, 1.0)
        assert vm.done

    def test_finish_twice_raises(self):
        vm = make_vm()
        vm.place("s0", 0.0)
        vm.finish(1.0)
        with pytest.raises(SimulationError, match="VM v0 finished while finished"):
            vm.finish(2.0)

    def test_repr_names_the_vm(self):
        text = repr(make_vm(vm_id="j3-1"))
        assert "SimVM" in text
        assert "j3-1" in text

    @pytest.mark.parametrize("clone", [
        lambda vm: pickle.loads(pickle.dumps(vm)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copy_keeps_progress(self, clone):
        vm = make_vm(deadline_s=500.0)
        vm.place("s3", 4.0)
        vm.advance(vm.benchmark.serial_time_s, 1.0)
        vm.advance(10.0, 2.0)
        copied = clone(vm)
        assert copied is not vm
        for name in ("vm_id", "job_id", "workload_class", "submit_time_s", "deadline_s",
                     "state", "stage", "remaining", "server_id", "placed_at_s"):
            assert getattr(copied, name) == getattr(vm, name), name
        assert copied.benchmark == vm.benchmark
        assert math.isnan(copied.finished_at_s)
        assert copied.remaining is not vm.remaining
        # The copy goes on from where the original was.
        copied.advance(copied.remaining[1], 1.0)
        assert copied.done
        assert not vm.done

    def test_slotted_record(self):
        vm = make_vm()
        assert not hasattr(vm, "__dict__")
        with pytest.raises(AttributeError):
            vm.unknown_field = 1

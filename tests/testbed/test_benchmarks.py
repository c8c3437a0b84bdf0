"""Unit tests for repro.testbed.benchmarks."""

import copy
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import (
    BENCHMARKS,
    WORKLOAD_CLASSES,
    BenchmarkSpec,
    WorkloadClass,
    canonical_benchmark,
    get_benchmark,
)
from repro.testbed.spec import SUBSYSTEMS, Subsystem


class TestRegistry:
    def test_paper_suite_present(self):
        for name in ("fftw", "hpl", "sysbench", "b_eff_io", "bonnie", "mpi_compute"):
            assert name in BENCHMARKS

    def test_canonical_per_class(self):
        assert canonical_benchmark(WorkloadClass.CPU).name == "fftw"
        assert canonical_benchmark(WorkloadClass.MEM).name == "sysbench"
        assert canonical_benchmark(WorkloadClass.IO).name == "b_eff_io"

    def test_canonical_accepts_class_names(self):
        assert canonical_benchmark("mem") is canonical_benchmark(WorkloadClass.MEM)
        with pytest.raises(ValueError):
            canonical_benchmark("gpu")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="fftw"):
            get_benchmark("linpackzz")

    def test_fftw_has_long_init_phase(self):
        # "single thread, with long initialization phase"
        fftw = get_benchmark("fftw")
        assert fftw.serial_fraction >= 0.25

    def test_class_signatures(self):
        assert get_benchmark("sysbench").demand(Subsystem.MEMORY) > 0.5
        assert get_benchmark("b_eff_io").demand(Subsystem.DISK) > 0.5
        assert get_benchmark("mpi_compute").demand(Subsystem.NETWORK) > 0.3

    def test_three_classes(self):
        assert len(WORKLOAD_CLASSES) == 3


class TestBenchmarkSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            name="x",
            workload_class=WorkloadClass.CPU,
            t_ref_s=100.0,
            serial_fraction=0.1,
            demands={Subsystem.CPU: 1.0},
            ram_gb=0.5,
        )
        kwargs.update(overrides)
        return BenchmarkSpec(**kwargs)

    def test_missing_demands_default_to_zero(self):
        spec = self._spec()
        for subsystem in SUBSYSTEMS:
            assert spec.demand(subsystem) >= 0.0

    def test_phase_times_sum_to_t_ref(self):
        spec = self._spec(serial_fraction=0.3)
        assert spec.serial_time_s + spec.work_time_s == pytest.approx(spec.t_ref_s)

    def test_zero_t_ref_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(t_ref_s=0.0)

    def test_serial_fraction_one_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(serial_fraction=1.0)

    def test_all_zero_demands_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(demands={Subsystem.CPU: 0.0})

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(demands={Subsystem.CPU: -1.0})

    def test_demands_are_read_only(self):
        spec = self._spec()
        with pytest.raises(TypeError):
            spec.demands[Subsystem.CPU] = 2.0  # type: ignore[index]

    def test_ram_positive(self):
        with pytest.raises(ConfigurationError):
            self._spec(ram_gb=0.0)


class TestCopy:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_pickle_and_deepcopy_round_trip(self, name):
        spec = get_benchmark(name)
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec
            assert copied is not spec
            assert type(copied.demands) is type(spec.demands)
            assert dict(copied.demands) == dict(spec.demands)

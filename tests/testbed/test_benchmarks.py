"""Unit tests for repro.testbed.benchmarks."""

import copy
import functools
import math
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

    @pytest.mark.parametrize("field", ["t_ref_s", "ram_gb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sizes_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be positive and finite, got {value}"):
            self._spec(**{field: value})


class TestCopy:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_pickle_and_deepcopy_round_trip(self, name):
        spec = get_benchmark(name)
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec
            assert copied is not spec
            assert type(copied.demands) is type(spec.demands)
            assert dict(copied.demands) == dict(spec.demands)


class TestHash:
    @staticmethod
    def _spec(demands, name="x"):
        return BenchmarkSpec(
            name=name,
            workload_class=WorkloadClass.MEM,
            t_ref_s=100.0,
            serial_fraction=0.1,
            demands=demands,
            ram_gb=0.5,
        )

    def test_equal_specs_hash_equal_whatever_the_demand_order(self):
        forward = self._spec({Subsystem.CPU: 0.5, Subsystem.MEMORY: 0.9})
        backward = self._spec({Subsystem.MEMORY: 0.9, Subsystem.CPU: 0.5})
        assert list(forward.demands) != list(backward.demands)
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_explicit_zero_demand_equals_the_default(self):
        implicit = self._spec({Subsystem.CPU: 1.0})
        explicit = self._spec({Subsystem.DISK: 0.0, Subsystem.CPU: 1.0})
        assert implicit == explicit
        assert hash(implicit) == hash(explicit)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_registered_specs_hash_like_their_copies(self, name):
        spec = get_benchmark(name)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert hash(spec) == hash(copy.deepcopy(spec))

    def test_set_member(self):
        specs = {get_benchmark(name) for name in BENCHMARKS}
        specs |= {copy.deepcopy(get_benchmark(name)) for name in BENCHMARKS}
        assert len(specs) == len(BENCHMARKS)
        assert self._spec({Subsystem.CPU: 1.0}) not in specs

    def test_dict_key(self):
        by_spec = {get_benchmark(name): name for name in BENCHMARKS}
        for name in BENCHMARKS:
            assert by_spec[copy.deepcopy(get_benchmark(name))] == name

    def test_lru_cache_argument(self):
        calls = []

        @functools.lru_cache(maxsize=None)
        def demand_total(spec):
            calls.append(spec.name)
            return sum(spec.demands.values())

        first = self._spec({Subsystem.CPU: 0.5, Subsystem.NETWORK: 0.25})
        again = self._spec({Subsystem.NETWORK: 0.25, Subsystem.CPU: 0.5})
        assert demand_total(first) == demand_total(again) == 0.75
        assert calls == ["x"]
        fftw = get_benchmark("fftw")
        assert demand_total(copy.deepcopy(fftw)) == sum(fftw.demands.values())
        assert demand_total(fftw) == sum(fftw.demands.values())
        assert calls == ["x", "fftw"]

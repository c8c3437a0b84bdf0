"""Unit tests for performance-counter emulation."""

import numpy as np
import pytest

from repro.profiling.counters import _PEAK_L2_MISSES_PER_S, emulate_counters
from repro.profiling.traces import sample_load_profile
from repro.testbed.benchmarks import get_benchmark
from repro.testbed.spec import Subsystem


def make_trace(cpu=0.9, mem=0.1, duration=10.0):
    seg = (
        0.0,
        duration,
        {
            Subsystem.CPU: cpu,
            Subsystem.MEMORY: mem,
            Subsystem.DISK: 0.0,
            Subsystem.NETWORK: 0.0,
        },
    )
    return sample_load_profile([seg])


class TestEmulateCounters:
    def test_sample_per_trace_point(self):
        trace = make_trace()
        samples = emulate_counters(trace, get_benchmark("fftw"))
        assert len(samples) == len(trace)

    def test_cpu_activity_drives_instructions(self):
        busy = emulate_counters(make_trace(cpu=1.0), get_benchmark("fftw"))
        idle = emulate_counters(make_trace(cpu=0.1), get_benchmark("fftw"))
        assert busy[0].instructions > 5 * idle[0].instructions

    def test_memory_activity_drives_l2_misses(self):
        # sysbench is memory-hungry: same utilization -> more misses
        # than a CPU-bound signature.
        trace = make_trace(cpu=0.3, mem=0.9)
        mem_bench = emulate_counters(trace, get_benchmark("sysbench"))
        cpu_bench = emulate_counters(trace, get_benchmark("fftw"))
        assert mem_bench[0].l2_misses > cpu_bench[0].l2_misses

    def test_l2_miss_intensity_normalized(self):
        trace = make_trace(mem=1.0)
        samples = emulate_counters(trace, get_benchmark("sysbench"))
        assert 0.0 <= samples[0].l2_misses / _PEAK_L2_MISSES_PER_S <= 1.5

    def test_short_trace_yields_nothing(self):
        trace = sample_load_profile([])
        assert emulate_counters(trace, get_benchmark("fftw")) == []

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            emulate_counters(make_trace(), get_benchmark("fftw"), jitter=0.1)

    def test_jitter_deterministic_with_seed(self):
        trace = make_trace()
        a = emulate_counters(trace, get_benchmark("fftw"), jitter=0.1, rng=np.random.default_rng(5))
        b = emulate_counters(trace, get_benchmark("fftw"), jitter=0.1, rng=np.random.default_rng(5))
        assert a[0].instructions == b[0].instructions

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            emulate_counters(make_trace(), get_benchmark("fftw"), jitter=-0.1)

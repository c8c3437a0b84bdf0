"""Unit tests for the intensity classifier."""

import pytest

from repro.profiling.classifier import (
    ClassifierThresholds,
    IntensityProfile,
    classify_trace,
)
from repro.profiling.traces import sample_load_profile
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import Subsystem


def trace_with(cpu=0.0, mem=0.0, disk=0.0, net=0.0):
    seg = (
        0.0,
        10.0,
        {
            Subsystem.CPU: cpu,
            Subsystem.MEMORY: mem,
            Subsystem.DISK: disk,
            Subsystem.NETWORK: net,
        },
    )
    return sample_load_profile([seg])


class TestThresholds:
    def test_defaults_valid(self):
        thresholds = ClassifierThresholds()
        assert 0 < thresholds.threshold(Subsystem.CPU) <= 1

    def test_missing_subsystem_rejected(self):
        with pytest.raises(ValueError):
            ClassifierThresholds(thresholds={Subsystem.CPU: 0.5})

    def test_out_of_range_rejected(self):
        bad = {s: 0.5 for s in (Subsystem.CPU, Subsystem.MEMORY, Subsystem.DISK, Subsystem.NETWORK)}
        bad[Subsystem.DISK] = 0.0
        with pytest.raises(ValueError):
            ClassifierThresholds(thresholds=bad)


class TestClassification:
    def test_cpu_intensive(self):
        profile = classify_trace(trace_with(cpu=0.9))
        assert profile.is_intensive(Subsystem.CPU)
        assert profile.workload_class() is WorkloadClass.CPU

    def test_memory_intensive(self):
        profile = classify_trace(trace_with(cpu=0.3, mem=0.8))
        assert profile.workload_class() is WorkloadClass.MEM

    def test_io_takes_precedence(self):
        # Disk-intensive wins even with significant CPU.
        profile = classify_trace(trace_with(cpu=0.8, disk=0.8))
        assert profile.workload_class() is WorkloadClass.IO

    def test_multi_dimensional_intensity(self):
        profile = classify_trace(trace_with(cpu=0.9, net=0.7))
        assert len(profile.intensive) == 2
        assert profile.is_intensive(Subsystem.NETWORK)
        # Network-intensive without disk maps to CPU class (no network
        # dimension in the database).
        assert profile.workload_class() is WorkloadClass.CPU

    def test_nothing_significant_defaults_to_cpu(self):
        profile = classify_trace(trace_with(cpu=0.1))
        assert len(profile.intensive) == 0
        assert profile.workload_class() is WorkloadClass.CPU

    def test_mean_utilization_retained(self):
        profile = classify_trace(trace_with(cpu=0.6))
        assert profile.mean_utilization[Subsystem.CPU] == pytest.approx(0.6)

    def test_custom_thresholds(self):
        lax = ClassifierThresholds(
            thresholds={
                Subsystem.CPU: 0.05,
                Subsystem.MEMORY: 0.05,
                Subsystem.DISK: 0.05,
                Subsystem.NETWORK: 0.05,
            }
        )
        profile = classify_trace(trace_with(cpu=0.1), lax)
        assert profile.is_intensive(Subsystem.CPU)

"""Unit tests for utilization traces."""

import numpy as np
import pytest

from repro.profiling.traces import UtilizationTrace, sample_load_profile
from repro.testbed.spec import SUBSYSTEMS, Subsystem


def segment(t0, t1, cpu=0.0, mem=0.0, disk=0.0, net=0.0):
    return (
        t0,
        t1,
        {
            Subsystem.CPU: cpu,
            Subsystem.MEMORY: mem,
            Subsystem.DISK: disk,
            Subsystem.NETWORK: net,
        },
    )


class TestSampling:
    def test_empty_profile(self):
        trace = sample_load_profile([])
        assert len(trace) == 0
        assert trace.duration_s == 0.0

    def test_sample_count_includes_endpoint(self):
        trace = sample_load_profile([segment(0.0, 5.0, cpu=0.5)])
        assert len(trace) == 6

    def test_clamping(self):
        trace = sample_load_profile([segment(0.0, 2.0, cpu=2.5)])
        assert trace.utilization[Subsystem.CPU].max() == 1.0

    def test_piecewise_values(self):
        trace = sample_load_profile(
            [segment(0.0, 2.0, cpu=0.2), segment(2.0, 4.0, cpu=0.8)]
        )
        cpu = trace.utilization[Subsystem.CPU]
        assert cpu[0] == pytest.approx(0.2)
        assert cpu[3] == pytest.approx(0.8)

    def test_scale_multiplier(self):
        trace = sample_load_profile(
            [segment(0.0, 2.0, cpu=0.25)], scale={Subsystem.CPU: 4.0}
        )
        assert trace.mean_utilization(Subsystem.CPU) == pytest.approx(1.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            sample_load_profile([segment(0.0, 1.0)], scale={Subsystem.CPU: 0.0})

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            sample_load_profile([segment(0.0, 1.0)], period_s=0.0)


class TestTraceStatistics:
    @pytest.fixture
    def trace(self):
        return sample_load_profile(
            [segment(0.0, 5.0, cpu=0.9, disk=0.1), segment(5.0, 10.0, cpu=0.1, disk=0.1)]
        )

    def test_mean_utilization(self, trace):
        mean = trace.mean_utilization(Subsystem.CPU)
        assert 0.1 < mean < 0.9

    def test_busy_fraction(self, trace):
        busy = (trace.utilization[Subsystem.CPU] > 0.5).mean()
        assert 0.3 < busy < 0.7

    def test_zero_subsystem(self, trace):
        assert trace.mean_utilization(Subsystem.NETWORK) == 0.0

    def test_as_rows_shape(self, trace):
        rows = trace.as_rows()
        assert len(rows) == len(trace)
        assert all(len(row) == 5 for row in rows)


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            UtilizationTrace(
                times_s=np.arange(3.0),
                utilization={s: np.zeros(2 if s is Subsystem.CPU else 3) for s in SUBSYSTEMS},
            )

    def test_missing_subsystem_rejected(self):
        with pytest.raises(ValueError):
            UtilizationTrace(
                times_s=np.arange(3.0),
                utilization={Subsystem.CPU: np.zeros(3)},
            )

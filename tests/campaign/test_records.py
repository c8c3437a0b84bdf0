"""Unit tests for Table II records."""

import pytest

from repro.campaign.records import (
    BenchmarkRecord,
    key_for_classes,
    key_of_counts,
    total_vms,
)
from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WorkloadClass


class TestKeys:
    def test_total_vms(self):
        assert total_vms((2, 3, 4)) == 9

    def test_key_of_counts_valid(self):
        assert key_of_counts(1, 0, 2) == (1, 0, 2)

    def test_key_of_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            key_of_counts(0, 0, 0)

    def test_key_of_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            key_of_counts(-1, 0, 1)

    def test_key_of_counts_rejects_bool(self):
        with pytest.raises(TypeError):
            key_of_counts(True, 0, 1)

    def test_key_for_classes(self):
        classes = [WorkloadClass.CPU, WorkloadClass.CPU, WorkloadClass.IO]
        assert key_for_classes(classes) == (2, 0, 1)
        assert key_for_classes([WorkloadClass.MEM, WorkloadClass.IO]) == (0, 1, 1)

    def test_key_for_classes_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one VM"):
            key_for_classes([])


class TestBenchmarkRecord:
    def test_from_measurement_derives_columns(self):
        record = BenchmarkRecord.from_measurement((2, 1, 1), 400.0, 80_000.0, 220.0)
        assert record.avg_time_vm_s == pytest.approx(100.0)
        assert record.edp == pytest.approx(80_000.0 * 400.0)
        assert record.n_vms == 4

    def test_avg_power(self):
        record = BenchmarkRecord.from_measurement((1, 0, 0), 100.0, 20_000.0, 250.0)
        assert record.avg_power_w == pytest.approx(200.0)

    def test_key_property(self):
        record = BenchmarkRecord.from_measurement((3, 2, 1), 10.0, 10.0, 10.0)
        assert record.key == (3, 2, 1)

    def test_ordering_by_key(self):
        a = BenchmarkRecord.from_measurement((1, 0, 0), 10.0, 10.0, 10.0)
        b = BenchmarkRecord.from_measurement((0, 1, 0), 99.0, 99.0, 99.0)
        assert b < a  # (0,1,0) < (1,0,0)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkRecord(
                ncpu=1, nmem=0, nio=0,
                time_s=-5.0, avg_time_vm_s=1.0, energy_j=1.0, max_power_w=1.0, edp=1.0,
            )

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkRecord.from_measurement((0, 0, 0), 1.0, 1.0, 1.0)

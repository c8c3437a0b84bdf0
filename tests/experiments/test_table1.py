"""Experiment tests: Table I parameters."""

import pytest

from benchmarks.bench_table1_base_params import table1_parameters
from repro.testbed.benchmarks import WorkloadClass


@pytest.fixture(scope="module")
def result():
    return table1_parameters()


class TestTable1:
    def test_osp_cpu_is_nine(self, result):
        assert result.optima.optima(WorkloadClass.CPU).osp == 9

    def test_ose_below_osp_for_cpu(self, result):
        # Energy-optimal consolidation is more conservative than
        # performance-optimal for the CPU class on this testbed.
        entry = result.optima.optima(WorkloadClass.CPU)
        assert entry.ose < entry.osp

    def test_os_bound_consistency(self, result):
        for workload_class in WorkloadClass:
            entry = result.optima.optima(workload_class)
            assert entry.os_bound == max(entry.osp, entry.ose)

    def test_rows_render(self, result):
        rows = result.rows()
        assert rows[0] == ["", "CPU", "Memory", "I/O"]
        assert len(rows) == 5
        assert all(len(row) == 4 for row in rows)

    def test_reference_times(self, result):
        assert result.optima.tc == pytest.approx(600.0, rel=1e-6)
        assert result.optima.tm == pytest.approx(700.0, rel=1e-6)
        assert result.optima.ti == pytest.approx(800.0, rel=1e-6)

"""Unit tests for the synthetic EGEE-like trace generator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.workloads.rawlogs import RawLogDialect
from repro.workloads.swf import JobStatus
from repro.workloads.synthetic import (
    EGEETraceConfig,
    generate_egee_like_trace,
    generate_raw_grid_logs,
)


class TestConfig:
    def test_defaults_valid(self):
        EGEETraceConfig()

    def test_fractions_must_fit(self):
        with pytest.raises(ConfigurationError):
            EGEETraceConfig(failed_fraction=0.6, cancelled_fraction=0.5)

    def test_n_jobs_positive(self):
        with pytest.raises(ConfigurationError):
            EGEETraceConfig(n_jobs=0)


class TestRawLogs:
    @pytest.fixture(scope="class")
    def logs(self):
        return generate_raw_grid_logs(EGEETraceConfig(n_jobs=500), rng=1)

    def test_multiple_sites(self, logs):
        assert len(logs) == 3

    def test_mixed_dialects(self, logs):
        dialects = {dialect for dialect, _ in logs}
        assert dialects == {RawLogDialect.CSV, RawLogDialect.KEYVALUE}

    def test_total_job_count(self, logs):
        assert sum(len(lines) for _, lines in logs) == 500

    def test_deterministic(self):
        a = generate_raw_grid_logs(EGEETraceConfig(n_jobs=50), rng=9)
        b = generate_raw_grid_logs(EGEETraceConfig(n_jobs=50), rng=9)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_raw_grid_logs(EGEETraceConfig(n_jobs=50), rng=1)
        b = generate_raw_grid_logs(EGEETraceConfig(n_jobs=50), rng=2)
        assert a != b


class TestFullTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_egee_like_trace(EGEETraceConfig(n_jobs=2000), rng=5)

    def test_all_jobs_survive_conversion(self, trace):
        assert len(trace) == 2000

    def test_contains_failures_and_cancellations(self, trace):
        statuses = {r.status for r in trace}
        assert JobStatus.FAILED in statuses
        assert JobStatus.CANCELLED in statuses
        assert JobStatus.COMPLETED in statuses

    def test_failure_fraction_near_config(self, trace):
        failed = sum(1 for r in trace if r.status == JobStatus.FAILED)
        assert 0.12 < failed / len(trace) < 0.25

    def test_contains_anomalies(self, trace):
        # Negative runtimes or zero-CPU rows must exist for cleaning.
        assert any(r.run_time < 0 and r.status == JobStatus.COMPLETED for r in trace) or any(
            r.allocated_procs == 0 for r in trace
        )

    def test_sorted_and_renumbered(self, trace):
        submits = [r.submit_time for r in trace]
        assert submits == sorted(submits)
        assert [r.job_number for r in trace] == list(range(1, len(trace) + 1))

    def test_bursty_arrivals(self, trace):
        # A cluster process has many tiny inter-arrival gaps and some
        # large ones; a Poisson process of the same rate would not show
        # this many zero-gaps.
        gaps = [b.submit_time - a.submit_time for a, b in zip(trace, trace[1:])]
        zero_gaps = sum(1 for g in gaps if g <= 2)
        assert zero_gaps > len(gaps) * 0.3

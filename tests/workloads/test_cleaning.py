"""Unit tests for trace cleaning."""

import pytest

from repro.workloads.cleaning import clean_trace
from repro.workloads.swf import JobStatus, SWFRecord


def record(job=1, submit=0, run=100, status=JobStatus.COMPLETED, procs=1):
    return SWFRecord(
        job_number=job,
        submit_time=submit,
        run_time=run,
        status=int(status),
        allocated_procs=procs,
    )


class TestCleanTrace:
    def test_failed_removed(self):
        kept, report = clean_trace([record(status=JobStatus.FAILED), record(job=2)])
        assert len(kept) == 1
        assert report.failed == 1

    def test_cancelled_removed(self):
        kept, report = clean_trace([record(status=JobStatus.CANCELLED), record(job=2)])
        assert report.cancelled == 1
        assert len(kept) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            record(run=0),
            record(run=-5),
            record(procs=0),
            record(submit=-10),
            record(status=JobStatus.UNKNOWN),
        ],
    )
    def test_anomalies_removed(self, bad):
        kept, report = clean_trace([bad, record(job=2, submit=5)])
        assert report.anomalies == 1
        assert len(kept) == 1

    def test_unknown_procs_allowed(self):
        # -1 = "unknown" is not an anomaly (VM scaling replaces it).
        kept, report = clean_trace([record(procs=-1)])
        assert len(kept) == 1

    def test_rebased_and_renumbered(self):
        kept, _ = clean_trace([record(job=9, submit=100), record(job=4, submit=150)])
        assert [r.submit_time for r in kept] == [0, 50]
        assert [r.job_number for r in kept] == [1, 2]

    def test_sorted_output(self):
        kept, _ = clean_trace([record(job=1, submit=50), record(job=2, submit=10)])
        assert [r.submit_time for r in kept] == [0, 40]

    def test_report_totals(self):
        records = [
            record(job=1),
            record(job=2, status=JobStatus.FAILED),
            record(job=3, status=JobStatus.CANCELLED),
            record(job=4, run=-1),
        ]
        kept, report = clean_trace(records)
        assert report.total == 4
        assert report.kept == 1
        assert report.total - report.kept == 3
        assert "kept 1/4" in report.summary()

    def test_empty_trace(self):
        kept, report = clean_trace([])
        assert kept == []
        assert report.total == 0

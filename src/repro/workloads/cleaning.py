"""Trace cleaning (paper Sect. IV-B).

"Then, we cleaned the trace, now in SWF format, in order to eliminate
failed jobs, cancelled jobs and anomalies."

Anomalies, for a trace destined to drive the simulation, are records
whose essential fields are unusable: non-positive runtimes, missing or
non-positive CPU counts, or negative submit times.  Cleaning also
rebases submit times to zero and renumbers jobs, so downstream stages
can rely on a dense, chronologically sorted trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.workloads.swf import JobStatus, SWFRecord


@dataclass(frozen=True)
class CleanReport:
    """What cleaning removed and what survived."""

    total: int
    kept: int
    failed: int
    cancelled: int
    anomalies: int

    @property
    def removed(self) -> int:
        return self.total - self.kept

    def summary(self) -> str:
        return (
            f"kept {self.kept}/{self.total} jobs "
            f"(failed {self.failed}, cancelled {self.cancelled}, "
            f"anomalies {self.anomalies})"
        )


def _is_anomalous(record: SWFRecord) -> bool:
    if record.submit_time < 0:
        return True
    if record.run_time <= 0:
        return True
    if record.allocated_procs == 0 or record.allocated_procs < -1:
        return True
    return False


def clean_trace(records: Sequence[SWFRecord]) -> tuple[list[SWFRecord], CleanReport]:
    """Remove failed jobs, cancelled jobs and anomalies.

    Precedence when a record is wrong in several ways: failed and
    cancelled states are counted first (they are deliberate removals),
    anomalies catch the remainder.  Survivors are sorted by submit
    time, rebased so the first submission is second 0, and renumbered
    from 1.  Statuses are compared as raw ints (``JobStatus`` is an
    ``IntEnum``), so an unlisted status is an anomaly.
    """
    kept: list[SWFRecord] = []
    failed = cancelled = anomalies = 0
    for record in records:
        status = record.status
        if status == JobStatus.FAILED:
            failed += 1
        elif status == JobStatus.CANCELLED:
            cancelled += 1
        elif status != JobStatus.COMPLETED or _is_anomalous(record):
            anomalies += 1
        else:
            kept.append(record)

    kept.sort(key=attrgetter("submit_time"))
    if kept:
        base = kept[0].submit_time
        kept = [
            SWFRecord(index, record.submit_time - base, *record[2:])
            for index, record in enumerate(kept, start=1)
        ]
    report = CleanReport(
        total=len(records),
        kept=len(kept),
        failed=failed,
        cancelled=cancelled,
        anomalies=anomalies,
    )
    return kept, report

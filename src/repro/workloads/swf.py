"""Standard Workload Format (SWF) records, reader, writer and merger.

The SWF (Feitelson's Parallel Workload Archive) is a line-oriented
plain-text format: comment/header lines start with ``;``, data lines
hold 18 whitespace-separated integer fields per job, with ``-1``
denoting "unknown".  The paper converts the Grid Observatory logs into
SWF, merges the per-site files into one, and cleans the result.

Only the fields the reproduction consumes get named accessors; the
full 18-field tuple is preserved on round-trip.
"""

from __future__ import annotations

import enum
import os
from typing import Iterable, NamedTuple, Sequence

from repro.common.errors import TraceFormatError

#: SWF field count (fixed by the standard).
N_FIELDS = 18


class JobStatus(enum.IntEnum):
    """SWF status field values."""

    FAILED = 0
    COMPLETED = 1
    PARTIAL_TO_BE_CONTINUED = 2
    PARTIAL_LAST = 3
    CANCELLED = 5
    UNKNOWN = -1


class SWFRecord(NamedTuple):
    """One SWF job line.

    Field names follow the SWF standard; times are seconds relative to
    the trace start, ``-1`` = unknown.  A named tuple, so a trace of
    100k jobs costs one tuple per job to read and to clean (DESIGN.md
    "Set-up"); equality is tuple equality.
    """

    job_number: int
    submit_time: int
    wait_time: int = -1
    run_time: int = -1
    allocated_procs: int = -1
    avg_cpu_time: int = -1
    used_memory: int = -1
    requested_procs: int = -1
    requested_time: int = -1
    requested_memory: int = -1
    status: int = JobStatus.UNKNOWN
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: int = -1

    def shifted(self, delta_s: int) -> "SWFRecord":
        """A copy with the submit time shifted by ``delta_s`` seconds."""
        return self._replace(submit_time=self.submit_time + delta_s)


def read_swf(path: str | os.PathLike) -> tuple[list[str], list[SWFRecord]]:
    """Read an SWF file.

    Returns (header_comments, records); comments keep their leading
    ``;``.  The file must be UTF-8 text.  Undecodable bytes, data lines
    with the wrong field count and non-integer fields raise
    :class:`TraceFormatError` with the line number.
    """
    comments: list[str] = []
    records: list[SWFRecord] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                parts = line.split()
                if not parts:
                    continue
                if parts[0].startswith(";"):
                    comments.append(line.strip())
                    continue
                if len(parts) != N_FIELDS:
                    raise TraceFormatError(
                        f"expected {N_FIELDS} fields, got {len(parts)}",
                        line_number=line_number,
                    )
                try:
                    records.append(SWFRecord(*map(int, parts)))
                except ValueError as exc:
                    raise TraceFormatError(str(exc), line_number=line_number) from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"not UTF-8 text: {exc.reason}", line_number=_undecodable_line(path)
        ) from exc
    return comments, records


def _undecodable_line(path: str | os.PathLike) -> int | None:
    """The number of the first line that is not UTF-8.  Text-mode reads
    decode ahead of the line being parsed, so the decoder's error cannot
    tell the line; a byte-wise rescan can."""
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_number
    return None


def write_swf(
    records: Iterable[SWFRecord],
    path: str | os.PathLike,
    comments: Sequence[str] = (),
) -> None:
    """Write records to an SWF file (comments first, then data lines)."""
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            if not comment.startswith(";"):
                comment = f"; {comment}"
            handle.write(comment + "\n")
        for record in records:
            handle.write(" ".join(map(str, record)) + "\n")


def merge_swf(traces: Sequence[Sequence[SWFRecord]]) -> list[SWFRecord]:
    """Merge several SWF traces into one.

    "As they are usually composed of multiple files we combined them
    into a single file."  Records are interleaved by submit time and
    renumbered sequentially from 1 (job numbers from different sites
    collide); ties keep the input-trace order.
    """
    merged = sorted(
        (record for trace in traces for record in trace),
        key=lambda r: r.submit_time,
    )
    return [record._replace(job_number=index) for index, record in enumerate(merged, start=1)]

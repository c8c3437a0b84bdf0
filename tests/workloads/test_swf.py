"""Unit tests for the SWF reader/writer/merger."""

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.cleaning import clean_trace
from repro.workloads.swf import (
    N_FIELDS,
    JobStatus,
    SWFRecord,
    merge_swf,
    read_swf,
    write_swf,
)


def record(job=1, submit=0, run=100, status=JobStatus.COMPLETED, procs=1):
    return SWFRecord(
        job_number=job,
        submit_time=submit,
        run_time=run,
        status=int(status),
        allocated_procs=procs,
    )


class TestRecord:
    def test_field_count(self):
        assert len(record()) == N_FIELDS

    def test_from_fields_roundtrip(self, tmp_path):
        original = record(job=7, submit=33)
        path = tmp_path / "trace.swf"
        write_swf([original], path)
        assert read_swf(path)[1] == [original]

    def test_from_fields_wrong_arity(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text("1 2 3\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="fields"):
            read_swf(path)

    def test_status_enum(self):
        kept, report = clean_trace([record(status=JobStatus.FAILED), record()])
        assert report.failed == 1
        assert kept == [record()]

    def test_unknown_status_maps_to_unknown(self):
        r = SWFRecord(job_number=1, submit_time=0, run_time=100, status=42, allocated_procs=1)
        assert clean_trace([r])[1].anomalies == 1

    def test_shifted(self):
        assert record(submit=10).shifted(5).submit_time == 15


class TestFileRoundTrip:
    def test_roundtrip(self, tmp_path):
        records = [record(job=1), record(job=2, submit=10)]
        path = tmp_path / "trace.swf"
        write_swf(records, path, comments=["; Version: 2.2", "UnixStartTime: 0"])
        comments, loaded = read_swf(path)
        assert loaded == records
        assert comments[0] == "; Version: 2.2"
        assert comments[1].startswith(";")  # prefix added when missing

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.swf"
        line = " ".join(str(f) for f in record())
        path.write_text(f"\n{line}\n\n")
        _, loaded = read_swf(path)
        assert len(loaded) == 1

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_swf(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "trace.swf"
        fields = ["x"] + ["0"] * (N_FIELDS - 1)
        path.write_text(" ".join(fields) + "\n")
        with pytest.raises(TraceFormatError):
            read_swf(path)

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "trace.swf"
        line = " ".join(["1"] * N_FIELDS) + "\n"
        path.write_bytes(b"; header\n" + line.encode() + b"1 \xff\n")
        with pytest.raises(TraceFormatError, match="line 3: not UTF-8 text") as info:
            read_swf(path)
        assert info.value.line_number == 3


class TestMerge:
    def test_merge_sorts_by_submit(self):
        a = [record(job=1, submit=100)]
        b = [record(job=1, submit=50)]
        merged = merge_swf([a, b])
        assert [r.submit_time for r in merged] == [50, 100]

    def test_merge_renumbers(self):
        a = [record(job=1, submit=0), record(job=2, submit=5)]
        b = [record(job=1, submit=3)]
        merged = merge_swf([a, b])
        assert [r.job_number for r in merged] == [1, 2, 3]

    def test_merge_empty(self):
        assert merge_swf([]) == []
        assert merge_swf([[], []]) == []

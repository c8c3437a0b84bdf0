"""The SWF record, reader, merger and cleaning contract.

These pin what callers rely on, independent of how a record is stored:
value equality and hashing, immutability, the field-count checks, the
status mapping, the reader's comment and blank-line handling, and the
cleaning precedence, order, rebase and renumbering.
"""

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.cleaning import CleanReport, clean_trace
from repro.workloads.swf import (
    N_FIELDS,
    JobStatus,
    SWFRecord,
    merge_swf,
    read_swf,
)

FIELD_NAMES = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_procs",
    "avg_cpu_time",
    "used_memory",
    "requested_procs",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)


def record(job=1, submit=0, run=100, status=JobStatus.COMPLETED, procs=1, user=-1):
    return SWFRecord(
        job_number=job,
        submit_time=submit,
        run_time=run,
        status=int(status),
        allocated_procs=procs,
        user_id=user,
    )


def data_line(fields):
    return " ".join(str(f) for f in fields)


class TestRecordValue:
    def test_equal_by_value(self):
        assert record(job=3, submit=7) == record(job=3, submit=7)
        assert record(job=3, submit=7) != record(job=3, submit=8)

    def test_hashable_and_hash_follows_value(self):
        a, b = record(job=3, submit=7), record(job=3, submit=7)
        assert hash(a) == hash(b)
        assert len({a, b, record(job=4)}) == 2
        assert {a: "x"}[b] == "x"

    def test_setting_an_attribute_raises(self):
        r = record()
        with pytest.raises(AttributeError):
            r.submit_time = 5
        assert r.submit_time == 0

    def test_field_order_and_defaults(self):
        r = SWFRecord(11, 22)
        assert r.as_fields() == (11, 22) + (-1,) * (N_FIELDS - 2)
        assert r.status == JobStatus.UNKNOWN
        positional = SWFRecord(*range(N_FIELDS))
        for index, name in enumerate(FIELD_NAMES):
            assert getattr(positional, name) == index

    def test_as_fields_is_a_plain_tuple(self):
        fields = record(job=5).as_fields()
        assert type(fields) is tuple
        assert len(fields) == N_FIELDS

    def test_as_fields_round_trips(self):
        original = SWFRecord(*range(100, 100 + N_FIELDS))
        again = SWFRecord.from_fields(original.as_fields())
        assert again == original
        assert type(again) is SWFRecord

    @pytest.mark.parametrize("count", [N_FIELDS - 1, N_FIELDS + 1])
    def test_from_fields_rejects_wrong_count(self, count):
        with pytest.raises(ValueError, match=f"got {count}"):
            SWFRecord.from_fields([0] * count)

    def test_shifted_moves_only_submit_time(self):
        original = SWFRecord(*range(1, N_FIELDS + 1))
        moved = original.shifted(-2)
        assert type(moved) is SWFRecord
        assert moved.submit_time == original.submit_time - 2
        assert moved.as_fields()[:1] + moved.as_fields()[2:] == (
            original.as_fields()[:1] + original.as_fields()[2:]
        )
        assert original.submit_time == 2  # the original is untouched


class TestStatus:
    @pytest.mark.parametrize("raw", [4, -7])
    def test_unlisted_status_maps_to_unknown(self, raw):
        assert record(status=raw).job_status is JobStatus.UNKNOWN

    @pytest.mark.parametrize("member", list(JobStatus))
    def test_listed_status_maps_to_its_member(self, member):
        assert record(status=int(member)).job_status is member

    def test_completed(self):
        assert record(status=1).completed
        assert not record(status=3).completed


class TestReader:
    def test_comments_kept_verbatim_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.swf"
        first, second = SWFRecord(*range(N_FIELDS)), SWFRecord(*range(5, 5 + N_FIELDS))
        path.write_text(
            "; Version: 2.2\n"
            "\n"
            ";Note:  two  spaces ; and a second ;\n"
            "   \t \n"
            f"{data_line(first.as_fields())}\n"
            "  ; indented comment  \n"
            "\n"
            f"  {data_line(second.as_fields())}  \n",
            encoding="utf-8",
        )
        comments, records = read_swf(path)
        assert comments == [
            "; Version: 2.2",
            ";Note:  two  spaces ; and a second ;",
            "; indented comment",
        ]
        assert records == [first, second]
        assert all(type(r) is SWFRecord for r in records)

    def test_comments_only_trace(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text("; only a header\n\n", encoding="utf-8")
        assert read_swf(path) == (["; only a header"], [])

    @pytest.mark.parametrize("count", [N_FIELDS - 1, N_FIELDS + 1])
    def test_wrong_field_count_names_the_line(self, tmp_path, count):
        path = tmp_path / "trace.swf"
        good = data_line(range(N_FIELDS))
        path.write_text(f"; h\n{good}\n\n{data_line([1] * count)}\n", encoding="utf-8")
        message = f"line 4: expected {N_FIELDS} fields, got {count}"
        with pytest.raises(TraceFormatError, match=message) as info:
            read_swf(path)
        assert info.value.line_number == 4

    def test_non_integer_field_names_the_line(self, tmp_path):
        path = tmp_path / "trace.swf"
        fields = ["1"] * N_FIELDS
        fields[3] = "1.5"
        text = f"{data_line(range(N_FIELDS))}\n{' '.join(fields)}\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceFormatError, match=r"line 2: .*'1\.5'") as info:
            read_swf(path)
        assert info.value.line_number == 2


class TestCleaningContract:
    def test_failed_and_cancelled_count_before_anomalies(self):
        records = [
            record(job=1, status=JobStatus.FAILED, run=0, submit=-5),
            record(job=2, status=JobStatus.CANCELLED, procs=0),
            record(job=3, status=JobStatus.FAILED),
            record(job=4),
        ]
        kept, report = clean_trace(records)
        assert report == CleanReport(total=4, kept=1, failed=2, cancelled=1, anomalies=0)
        assert [r.user_id for r in kept] == [-1]

    @pytest.mark.parametrize("raw", [-1, 2, 3, 4])
    def test_unfinished_or_unlisted_status_is_an_anomaly(self, raw):
        kept, report = clean_trace([record(status=raw), record(job=2)])
        assert (report.failed, report.cancelled, report.anomalies) == (0, 0, 1)
        assert len(kept) == 1

    def test_sort_is_stable_rebased_and_renumbered(self):
        records = [
            record(job=40, submit=300, user=2),
            record(job=41, submit=120, user=5),
            record(job=42, submit=300, user=0),
            record(job=43, submit=120, user=1),
            record(job=44, submit=500, user=4, status=JobStatus.FAILED),
            record(job=45, submit=120, user=3),
        ]
        kept, report = clean_trace(records)
        assert [r.user_id for r in kept] == [5, 1, 3, 2, 0]
        assert [r.submit_time for r in kept] == [0, 0, 0, 180, 180]
        assert [r.job_number for r in kept] == [1, 2, 3, 4, 5]
        assert report.kept == 5 and report.failed == 1

    def test_survivors_keep_every_other_field(self):
        source = SWFRecord.from_fields(
            (9, 50, 3, 100, 4, 90, 512, 4, 200, 1024, 1, 7, 8, 9, 10, 11, -1, -1)
        )
        (kept,), _ = clean_trace([source])
        assert type(kept) is SWFRecord
        assert kept.as_fields() == (1, 0) + source.as_fields()[2:]

    def test_input_is_not_mutated(self):
        records = [record(job=7, submit=90), record(job=8, submit=30)]
        before = [r.as_fields() for r in records]
        clean_trace(records)
        assert [r.as_fields() for r in records] == before


class TestMergeContract:
    def test_ties_keep_input_order(self):
        a = [record(job=1, submit=10, user=4), record(job=2, submit=20, user=1)]
        b = [record(job=1, submit=10, user=0), record(job=2, submit=15, user=3)]
        c = [record(job=1, submit=10, user=2)]
        merged = merge_swf([a, b, c])
        assert [r.user_id for r in merged] == [4, 0, 2, 3, 1]
        assert [r.job_number for r in merged] == [1, 2, 3, 4, 5]
        assert all(type(r) is SWFRecord for r in merged)

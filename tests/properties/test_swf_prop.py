"""Property-based tests for SWF round-trips and cleaning invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.cleaning import clean_trace
from repro.workloads.swf import JobStatus, SWFRecord, merge_swf, read_swf, write_swf


field = st.integers(min_value=-1, max_value=10_000_000)
status = st.sampled_from([0, 1, 2, 3, 5, -1])


@st.composite
def swf_records(draw):
    return SWFRecord(
        job_number=draw(st.integers(min_value=1, max_value=10_000)),
        submit_time=draw(st.integers(min_value=0, max_value=1_000_000)),
        wait_time=draw(field),
        run_time=draw(field),
        allocated_procs=draw(st.integers(min_value=-1, max_value=128)),
        status=draw(status),
        user_id=draw(field),
    )


class TestSWFRoundTrip:
    @given(records=st.lists(swf_records(), max_size=30))
    @settings(max_examples=30)
    def test_file_roundtrip_identity(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("swf") / "trace.swf"
        write_swf(records, path)
        _, loaded = read_swf(path)
        assert loaded == records

    @given(swf_records())
    def test_fields_roundtrip(self, record):
        assert SWFRecord(*tuple(record)) == record


class TestMergeProperties:
    @given(st.lists(st.lists(swf_records(), max_size=10), max_size=4))
    @settings(max_examples=30)
    def test_merge_preserves_multiset_of_submits(self, traces):
        merged = merge_swf(traces)
        all_submits = sorted(r.submit_time for t in traces for r in t)
        assert sorted(r.submit_time for r in merged) == all_submits

    @given(st.lists(st.lists(swf_records(), max_size=10), max_size=4))
    @settings(max_examples=30)
    def test_merge_sorted_and_densely_numbered(self, traces):
        merged = merge_swf(traces)
        submits = [r.submit_time for r in merged]
        assert submits == sorted(submits)
        assert [r.job_number for r in merged] == list(range(1, len(merged) + 1))


class TestCleaningProperties:
    @given(st.lists(swf_records(), max_size=50))
    @settings(max_examples=50)
    def test_report_partitions_the_input(self, records):
        kept, report = clean_trace(records)
        assert report.total == len(records)
        assert report.kept == len(kept)
        assert report.kept + report.failed + report.cancelled + report.anomalies == report.total

    @given(st.lists(swf_records(), max_size=50))
    @settings(max_examples=50)
    def test_survivors_are_sound(self, records):
        kept, _ = clean_trace(records)
        for record in kept:
            assert record.status == JobStatus.COMPLETED
            assert record.run_time > 0
            assert record.submit_time >= 0
            assert record.allocated_procs != 0

    @given(st.lists(swf_records(), max_size=50))
    @settings(max_examples=50)
    def test_idempotent(self, records):
        once, _ = clean_trace(records)
        twice, report = clean_trace(once)
        assert twice == once
        assert report.total - report.kept == 0

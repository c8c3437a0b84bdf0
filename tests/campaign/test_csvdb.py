"""Unit tests for the CSV database and auxiliary file."""

import pytest

from benchmarks.bench_table2_database import records_to_rows
from repro.campaign.csvdb import (
    read_auxiliary_file,
    read_records_csv,
    write_auxiliary_file,
    write_records_csv,
)
from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord
from repro.common.errors import TraceFormatError
from repro.testbed.benchmarks import WorkloadClass


def record(key, time_s=100.0):
    return BenchmarkRecord.from_measurement(key, time_s, 20_000.0, 230.0)


def parse_text(tmp_path, text):
    """Read records from ``text`` through the file reader."""
    path = tmp_path / "db.csv"
    path.write_text(text, encoding="utf-8")
    return read_records_csv(path)


def sample_optima():
    return OptimalScenarios(
        per_class={
            WorkloadClass.CPU: ClassOptima(WorkloadClass.CPU, 9, 5, 600.0),
            WorkloadClass.MEM: ClassOptima(WorkloadClass.MEM, 3, 2, 700.0),
            WorkloadClass.IO: ClassOptima(WorkloadClass.IO, 2, 2, 800.0),
        }
    )


class TestRecordsRoundTrip:
    def test_roundtrip(self, tmp_path):
        records = [record((1, 0, 0)), record((0, 1, 0)), record((1, 1, 1))]
        path = tmp_path / "db.csv"
        write_records_csv(records, path)
        loaded = read_records_csv(path)
        assert [r.key for r in loaded] == [r.key for r in sorted(records)]
        for got, want in zip(loaded, sorted(records)):
            # The CSV stores 6 decimal places; values survive to that
            # precision, not bit-exactly.
            assert got.time_s == pytest.approx(want.time_s, abs=1e-6)
            assert got.avg_time_vm_s == pytest.approx(want.avg_time_vm_s, abs=1e-6)
            assert got.energy_j == pytest.approx(want.energy_j, abs=1e-6)
            assert got.edp == pytest.approx(want.edp, abs=1e-6)

    def test_writer_sorts(self, tmp_path):
        path = tmp_path / "db.csv"
        write_records_csv([record((2, 0, 0)), record((1, 0, 0))], path)
        loaded = read_records_csv(path)
        assert [r.key for r in loaded] == [(1, 0, 0), (2, 0, 0)]

    def test_duplicate_keys_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            write_records_csv([record((1, 0, 0)), record((1, 0, 0))], tmp_path / "x.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_records_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="header"):
            parse_text(tmp_path, "a,b,c\n")

    def test_malformed_row_rejected(self, tmp_path):
        text = "Ncpu,Nmem,Nio,Time,avgTimeVM,Energy,MaxPower,EDP\n1,0,0,ten,1,1,1,1\n"
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_text(tmp_path, text)

    def test_wrong_column_count_rejected(self, tmp_path):
        text = "Ncpu,Nmem,Nio,Time,avgTimeVM,Energy,MaxPower,EDP\n1,0,0\n"
        with pytest.raises(TraceFormatError, match="columns"):
            parse_text(tmp_path, text)

    def test_unsorted_file_rejected(self, tmp_path):
        header = "Ncpu,Nmem,Nio,Time,avgTimeVM,Energy,MaxPower,EDP"
        rows = "2,0,0,10,5,100,200,1000\n1,0,0,10,10,100,200,1000"
        with pytest.raises(TraceFormatError, match="sorted"):
            parse_text(tmp_path, f"{header}\n{rows}\n")

    def test_blank_lines_skipped(self, tmp_path):
        header = "Ncpu,Nmem,Nio,Time,avgTimeVM,Energy,MaxPower,EDP"
        text = f"{header}\n\n1,0,0,10,10,100,200,1000\n\n"
        assert len(parse_text(tmp_path, text)) == 1


class TestAuxiliaryFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "aux.csv"
        optima = sample_optima()
        write_auxiliary_file(optima, path)
        loaded = read_auxiliary_file(path)
        assert loaded.grid_bounds == optima.grid_bounds
        assert loaded.tc == optima.tc
        assert loaded.optima(WorkloadClass.MEM).ose == 2

    def test_inconsistent_os_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        write_auxiliary_file(sample_optima(), path)
        text = path.read_text().replace("OSC,9", "OSC,4")
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="inconsistent"):
            read_auxiliary_file(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("Parameter,Value\nOSPC,9\n")
        with pytest.raises(TraceFormatError, match="missing"):
            read_auxiliary_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_auxiliary_file(path)


class TestDisplayRows:
    def test_header_and_rows(self):
        rows = records_to_rows([record((1, 0, 0))])
        assert rows[0][0] == "Ncpu"
        assert len(rows) == 2

"""Experiment tests: Table II database."""

import pytest

from repro.campaign.combined_tests import expected_combination_count
from repro.core.model import ModelDatabase
from benchmarks.bench_table2_database import table2_database


@pytest.fixture(scope="module")
def result():
    return table2_database()


class TestTable2:
    def test_combined_count_matches_formula(self, result):
        osc, osm, osi = result.campaign.optima.grid_bounds
        assert result.expected_combined == expected_combination_count(osc, osm, osi)

    def test_database_holds_base_plus_combined(self, result):
        osc, osm, osi = result.campaign.optima.grid_bounds
        assert result.n_records == result.expected_combined + osc + osm + osi

    def test_sample_rows_schema(self, result):
        rows = result.sample_rows(limit=5)
        assert rows[0] == ["Ncpu", "Nmem", "Nio", "Time", "avgTimeVM", "Energy", "MaxPower", "EDP"]
        assert len(rows) == 6

    def test_round_trip_through_files(self, result, tmp_path):
        db_path = tmp_path / "db.csv"
        aux_path = tmp_path / "aux.csv"
        result.database.save(db_path, aux_path)
        loaded = ModelDatabase.from_files(db_path, aux_path)
        assert len(loaded) == result.n_records
        assert loaded.grid_bounds == result.database.grid_bounds

    def test_lookup_cost_logarithmic_shape(self, result):
        # Structural check: lookups go through bisect on sorted keys.
        keys = result.database.keys()
        assert list(keys) == sorted(keys)

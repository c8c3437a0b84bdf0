"""Unit tests for the campaign automation platform."""

import math

import pytest

from repro.campaign.combined_tests import expected_combination_count
from repro.campaign.csvdb import read_auxiliary_file, read_records_csv
from repro.campaign.platformrunner import run_campaign
from repro.testbed.benchmarks import WorkloadClass


class TestRunCampaign:
    def test_record_count(self, campaign):
        """DB rows = combined grid + base tests clipped to the bounds."""
        osc, osm, osi = campaign.optima.grid_bounds
        expected = expected_combination_count(osc, osm, osi) + osc + osm + osi
        assert len(campaign.records) == expected

    def test_records_sorted_and_unique(self, campaign):
        keys = [r.key for r in campaign.records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_base_rows_present_in_db(self, campaign):
        keys = {r.key for r in campaign.records}
        assert (1, 0, 0) in keys
        assert (0, 1, 0) in keys
        assert (0, 0, 1) in keys

    def test_base_rows_beyond_bounds_excluded(self, campaign):
        osc = campaign.optima.osc
        keys = {r.key for r in campaign.records}
        assert (osc, 0, 0) in keys
        assert (osc + 1, 0, 0) not in keys

    def test_save_and_reload(self, campaign, tmp_path):
        db_path, aux_path = campaign.save(tmp_path)
        records = read_records_csv(db_path)
        optima = read_auxiliary_file(aux_path)
        assert len(records) == len(campaign.records)
        assert optima.grid_bounds == campaign.optima.grid_bounds

    def test_progress_messages(self):
        messages = []
        run_campaign(max_base_vms=2, progress=messages.append)
        assert any("base tests" in m for m in messages)
        assert any("combined tests" in m for m in messages)
        assert any("complete" in m for m in messages)

    def test_deterministic(self, campaign):
        again = run_campaign()
        assert [r.key for r in again.records] == [r.key for r in campaign.records]
        assert [r.time_s for r in again.records] == [r.time_s for r in campaign.records]

    def test_meter_noise_perturbs_but_preserves_keys(self, campaign):
        noisy = run_campaign(meter_accuracy=0.015, meter_rng=11)
        assert [r.key for r in noisy.records] == [r.key for r in campaign.records]
        assert any(
            a.energy_j != b.energy_j
            for a, b in zip(noisy.records, campaign.records)
        )

    @pytest.mark.parametrize("accuracy", [math.nan, math.inf, -1.0])
    def test_bad_meter_accuracy_rejected(self, accuracy):
        with pytest.raises(ValueError, match="meter_accuracy must be non-negative and finite"):
            run_campaign(meter_accuracy=accuracy)

    def test_base_curve_counts(self, campaign):
        assert campaign.n_base_tests == 3 * 16

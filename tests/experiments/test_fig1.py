"""Experiment tests: Fig. 1 profiles."""

import pytest

from repro.experiments.fig1_profiles import fig1_profiles
from repro.testbed.spec import Subsystem


@pytest.fixture(scope="module")
def result():
    return fig1_profiles()


class TestFig1:
    def test_left_panel_is_cpu_only(self, result):
        profile = result.cpu_intensive.profile
        assert profile.is_intensive(Subsystem.CPU)
        assert not profile.is_intensive(Subsystem.NETWORK)
        assert not profile.is_intensive(Subsystem.DISK)

    def test_right_panel_is_cpu_and_network(self, result):
        profile = result.cpu_network_intensive.profile
        assert profile.is_intensive(Subsystem.CPU)
        assert profile.is_intensive(Subsystem.NETWORK)

    def test_series_exported_for_both_panels(self, result):
        series = result.series()
        assert set(series) == {"cpu_intensive", "cpu_network_intensive"}
        for rows in series.values():
            assert len(rows) > 100  # ~1 sample/second over the run
            assert all(len(row) == 5 for row in rows)

    def test_utilization_windows_visible(self, result):
        # Fig. 1 shows low-demand init windows then a busy phase.
        trace = result.cpu_intensive.trace
        busy = (trace.utilization[Subsystem.CPU] > 0.8).mean()
        assert 0.3 < busy < 0.95

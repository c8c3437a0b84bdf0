"""Tests for the one-shot reproduction summary."""

import pytest

from repro.experiments.paper_summary import reproduce_paper


@pytest.fixture(scope="module")
def reproduction():
    return reproduce_paper(vm_budget=2500)


class TestReproducePaper:
    def test_fig2_and_fig4_match(self, reproduction):
        assert reproduction.fig2.optimal_n == 9
        assert reproduction.fig4_matches

    def test_report_covers_every_artifact(self, reproduction):
        report = reproduction.report
        for marker in (
            "Fig. 1",
            "Fig. 2",
            "Table I",
            "Table II",
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Headline claims",
        ):
            assert marker in report, marker

    def test_report_quotes_paper_values(self, reproduction):
        report = reproduction.report
        assert "paper: 9" in report
        assert "1380s" in report
        assert "14.25kJ" in report
        assert "up to 18%" in report

    def test_evaluation_has_both_clouds(self, reproduction):
        clouds = {o.cloud for o in reproduction.evaluation.outcomes}
        assert clouds == {"SMALLER", "LARGER"}

    def test_progress_callback(self):
        messages = []
        reproduce_paper(vm_budget=400, progress=messages.append)
        assert any("campaign" in m for m in messages)
        assert any("Fig" in m for m in messages)

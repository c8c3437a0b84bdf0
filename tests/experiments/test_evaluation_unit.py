"""Unit-level tests for the evaluation plumbing (fast paths only)."""

import pytest

from repro.experiments.config import SMALLER
from repro.experiments.evaluation import run_evaluation
from repro.strategies.slotfit import FirstFitStrategy


class TestRunEvaluationPlumbing:
    def test_custom_strategy_factory(self, campaign):
        """The strategies callable controls the lineup entirely."""
        config = SMALLER.scaled(400)
        result = run_evaluation(
            configs=[config],
            strategies=lambda db: [FirstFitStrategy(1), FirstFitStrategy(2)],
            campaign=campaign,
        )
        assert result.strategies == ("FF", "FF-2")
        assert len(result.outcomes) == 2
        assert all(o.cloud == "SMALLER" for o in result.outcomes)

    def test_progress_messages_emitted(self, campaign):
        messages = []
        run_evaluation(
            configs=[SMALLER.scaled(300)],
            strategies=lambda db: [FirstFitStrategy(2)],
            campaign=campaign,
            progress=messages.append,
        )
        assert any("trace" in m for m in messages)
        assert any("FF-2" in m for m in messages)

    def test_outcomes_carry_wall_time(self, campaign):
        result = run_evaluation(
            configs=[SMALLER.scaled(300)],
            strategies=lambda db: [FirstFitStrategy(2)],
            campaign=campaign,
        )
        assert result.outcomes[0].wall_time_s > 0

    def test_campaign_reuse_skips_rebuild(self, campaign):
        """Passing a campaign must not re-run it (same optima object)."""
        result = run_evaluation(
            configs=[SMALLER.scaled(300)],
            strategies=lambda db: [FirstFitStrategy(2)],
            campaign=campaign,
        )
        assert result.campaign is campaign

"""Unit tests for the strategy registry."""

import pytest

from repro.common.errors import ConfigurationError
from repro.strategies.registry import STRATEGY_BUILDERS, make_strategy, paper_strategies
from repro.strategies.firstfit import FirstFitStrategy
from repro.strategies.proactive import ProactiveStrategy


class TestMakeStrategy:
    @pytest.mark.parametrize("name", sorted(STRATEGY_BUILDERS))
    def test_builders_resolve(self, name):
        strategy = make_strategy(name)
        assert strategy.name == name

    def test_proactive_requires_database(self):
        with pytest.raises(ConfigurationError, match="database"):
            make_strategy("PA-0.5")

    def test_proactive_with_database(self, database):
        strategy = make_strategy("PA-0.5", database=database)
        assert isinstance(strategy, ProactiveStrategy)
        assert strategy.alpha == 0.5

    def test_random_fit(self):
        strategy = make_strategy("RAND-2", rng=1)
        assert strategy.name == "RAND-2"

    def test_bad_proactive_alpha(self, database):
        with pytest.raises(ConfigurationError):
            make_strategy("PA-x", database=database)

    @pytest.mark.parametrize("name", ["PA-2", "PA--1", "PA-nan"])
    def test_out_of_range_alpha_is_a_configuration_error(self, name, database):
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \[0, 1\]"):
            make_strategy(name, database=database)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="FF"):
            make_strategy("MAGIC")


class TestPaperStrategies:
    def test_lineup(self, database):
        lineup = paper_strategies(database)
        assert [s.name for s in lineup] == ["FF", "FF-2", "FF-3", "PA-1", "PA-0", "PA-0.5"]

    def test_ff_multiplex_levels(self, database):
        lineup = paper_strategies(database)
        ffs = [s for s in lineup if isinstance(s, FirstFitStrategy)]
        assert [s.multiplex for s in ffs] == [1, 2, 3]

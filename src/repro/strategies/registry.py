"""Strategy registry: build strategies by their paper names.

``make_strategy("FF-2")`` or ``make_strategy("PA-0.5", database=db)``;
:func:`paper_strategies` returns the exact lineup of Figs. 5-7.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike
from repro.core.model import ModelDatabase
from repro.strategies.base import AllocationStrategy
from repro.strategies.bestfit import BestFitStrategy
from repro.strategies.firstfit import FirstFitStrategy
from repro.strategies.proactive import ProactiveStrategy
from repro.strategies.random_fit import RandomFitStrategy
from repro.strategies.worstfit import WorstFitStrategy

#: Builders for the slot-based strategies (no database needed).
STRATEGY_BUILDERS: Mapping[str, Callable[[], AllocationStrategy]] = {
    "FF": lambda: FirstFitStrategy(1),
    "FF-2": lambda: FirstFitStrategy(2),
    "FF-3": lambda: FirstFitStrategy(3),
    "BF": lambda: BestFitStrategy(1),
    "BF-2": lambda: BestFitStrategy(2),
    "BF-3": lambda: BestFitStrategy(3),
    "WF": lambda: WorstFitStrategy(1),
    "WF-2": lambda: WorstFitStrategy(2),
    "WF-3": lambda: WorstFitStrategy(3),
}


def make_strategy(
    name: str,
    database: Optional[ModelDatabase] = None,
    rng: RngLike = None,
    carbon=None,
) -> AllocationStrategy:
    """Build a strategy from its display name.

    Slot-based names come from :data:`STRATEGY_BUILDERS`; ``PA-<alpha>``
    needs ``database``; ``RAND[-k]`` accepts an optional seed.
    ``carbon`` (a :class:`repro.core.scoring.CarbonContext`) applies
    only to ``PA-<alpha>`` and adds the 3-way carbon/cost axis.
    """
    if name in STRATEGY_BUILDERS:
        return STRATEGY_BUILDERS[name]()
    if name.startswith("RAND"):
        multiplex = 1
        if "-" in name:
            try:
                multiplex = int(name.split("-", 1)[1])
            except ValueError:
                raise ConfigurationError(f"bad random-fit name {name!r}") from None
        return RandomFitStrategy(multiplex, rng=rng)
    if name.startswith("PA-"):
        alpha = proactive_alpha(name)
        if database is None:
            raise ConfigurationError(f"strategy {name!r} requires a model database")
        return ProactiveStrategy(database, alpha=alpha, carbon=carbon)
    known = sorted(STRATEGY_BUILDERS) + ["PA-<alpha>", "RAND[-k]"]
    raise ConfigurationError(f"unknown strategy {name!r}; known: {known}")


def proactive_alpha(name: str) -> float:
    """The alpha of a ``PA-<alpha>`` name; ConfigurationError unless in [0, 1]."""
    try:
        alpha = float(name[3:])
    except ValueError:
        raise ConfigurationError(f"bad proactive name {name!r}") from None
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"bad proactive name {name!r}: alpha must lie in [0, 1]")
    return alpha


def paper_strategies(
    database: ModelDatabase,
    time_budget_s: float | None = None,
    carbon=None,
) -> list[AllocationStrategy]:
    """The six strategies of Figs. 5-7, in the paper's presentation order.

    ``time_budget_s`` caps each proactive allocation's wall-clock cost
    (forcing the anytime search mode); ``None`` keeps automatic mode
    selection, where the paper-regime batches stay exact.  ``carbon``
    (a :class:`repro.core.scoring.CarbonContext`) adds the 3-way
    carbon/cost axis to the proactive strategies; the slot-based
    heuristics ignore it by construction.
    """
    return [
        FirstFitStrategy(1),
        FirstFitStrategy(2),
        FirstFitStrategy(3),
        # PA-1 minimizes energy, PA-0 time, PA-0.5 balances the two.
        ProactiveStrategy(database, alpha=1.0, time_budget_s=time_budget_s, carbon=carbon),
        ProactiveStrategy(database, alpha=0.0, time_budget_s=time_budget_s, carbon=carbon),
        ProactiveStrategy(database, alpha=0.5, time_budget_s=time_budget_s, carbon=carbon),
    ]

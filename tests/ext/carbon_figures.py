"""The two paper-style carbon figures: cost and gCO2 by strategy.

The source paper charts makespan/energy/SLA per strategy (Figs. 5-7);
the carbon scenario adds the matching pair for the temporal-signal
axes: total energy cost and total carbon mass per strategy, with and
without temporal shifting of deferrable jobs.  Everything here is a
deterministic pure function of (vm_budget, seed, alpha_carbon), so the
rendered documents are byte-stable and golden-tested
(``test_carbon_figures.py``).  No command draws them, so they live
beside that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.campaign.platformrunner import CampaignResult
from repro.common.rng import DEFAULT_SEED
from repro.experiments.config import SMALLER
from repro.experiments.evaluation import run_evaluation
from repro.ext.carbon.options import CarbonOptions
from repro.ext.carbon.signal import (
    TemporalSignals,
    daily_carbon_signal,
    double_peak_price_signal,
)


@dataclass(frozen=True)
class CarbonStrategyPoint:
    """One strategy's total on the figure's axis, unshifted and shifted."""

    strategy: str
    no_shift: float
    shifted: float

    @property
    def saving_pct(self) -> float:
        """Relative reduction from shifting, in percent (0 when degenerate)."""
        if self.no_shift == 0.0:
            return 0.0
        return 100.0 * (self.no_shift - self.shifted) / self.no_shift


@dataclass(frozen=True)
class CarbonFigure:
    """One bar figure: an axis total per strategy on one cloud."""

    title: str
    units: str
    cloud: str
    points: tuple[CarbonStrategyPoint, ...]


def figure_document(figure: CarbonFigure) -> dict:
    """The figure as a JSON-ready document (golden-tested bytes)."""
    return {
        "title": figure.title,
        "units": figure.units,
        "cloud": figure.cloud,
        "points": [
            {
                "strategy": point.strategy,
                "no_shift": point.no_shift,
                "shifted": point.shifted,
            }
            for point in figure.points
        ],
    }


def _axis_figure(
    title: str,
    units: str,
    cloud: str,
    base: "list[tuple[str, float]]",
    shifted: "dict[str, float]",
) -> CarbonFigure:
    return CarbonFigure(
        title=title,
        units=units,
        cloud=cloud,
        points=tuple(
            CarbonStrategyPoint(
                strategy=strategy, no_shift=value, shifted=shifted[strategy]
            )
            for strategy, value in base
        ),
    )


def carbon_figures(
    vm_budget: int = 300,
    seed: int = DEFAULT_SEED,
    alpha_carbon: float = 0.25,
    campaign: CampaignResult | None = None,
    progress: "Callable[[str], None] | None" = None,
) -> tuple[CarbonFigure, CarbonFigure]:
    """Build (cost figure, carbon figure) for the SMALLER cloud.

    Runs the strategy lineup twice under synthetic daily signals --
    once as-is, once with deferrable jobs shifted toward cheap/green
    windows -- and charts the per-strategy totals of both axes.
    ``campaign`` shares an already-run benchmarking campaign (the
    signals do not touch profiling, so reuse is exact).
    """
    signals = TemporalSignals(
        carbon=daily_carbon_signal(seed), price=double_peak_price_signal(seed)
    )
    config = SMALLER.scaled(vm_budget)
    results = {}
    for label, shift in (("no_shift", False), ("shifted", True)):
        results[label] = run_evaluation(
            configs=[config],
            campaign=campaign,
            progress=progress,
            carbon=CarbonOptions(
                signals=signals,
                alpha_carbon=alpha_carbon,
                shift_deferrable=shift,
            ),
        )
    cloud = config.label
    base_cost = results["no_shift"].series("cost")[cloud]
    base_carbon = results["no_shift"].series("carbon_g")[cloud]
    shifted_cost = dict(results["shifted"].series("cost")[cloud])
    shifted_carbon = dict(results["shifted"].series("carbon_g")[cloud])
    return (
        _axis_figure(
            "Energy cost by strategy", "EUR", cloud, base_cost, shifted_cost
        ),
        _axis_figure(
            "Carbon mass by strategy", "gCO2", cloud, base_carbon, shifted_carbon
        ),
    )

"""The records of the Figs. 5-7 evaluation: one outcome per cell, and the result.

They live apart from :mod:`repro.experiments.evaluation` so that the
wire schema (:mod:`repro.service.schema`) can encode and decode them
without importing the simulator, the workload pipeline or numpy: a
``repro serve`` process never runs an evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.campaign.platformrunner import CampaignResult
    from repro.sim.datacenter import SimulationResult


@dataclass(frozen=True)
class StrategyOutcome:
    """One bar of Figs. 5-7: a (cloud, strategy) cell.

    ``wall_time_s`` is excluded from equality: two equal-seed runs
    produce the same simulated metrics but never the same wall clock,
    and outcome tuples must compare equal across worker counts.  It
    also defaults to 0.0 so outcomes decoded from wire documents
    (which deliberately omit wall time) can be reconstructed.
    """

    cloud: str
    strategy: str
    makespan_s: float
    energy_j: float
    sla_violation_pct: float
    mean_response_s: float
    max_queue_length: int
    #: Time-integrated carbon mass / energy cost against the run's
    #: temporal signals (0.0 unless a carbon scenario was active).
    carbon_g: float = 0.0
    cost: float = 0.0
    wall_time_s: float = field(default=0.0, compare=False)

    @classmethod
    def from_result(
        cls, cloud: str, result: SimulationResult, wall_time_s: float
    ) -> "StrategyOutcome":
        return cls(
            cloud=cloud,
            strategy=result.strategy_name,
            makespan_s=result.metrics.makespan_s,
            energy_j=result.metrics.energy_j,
            sla_violation_pct=result.metrics.sla_violation_pct,
            mean_response_s=result.metrics.mean_response_s,
            max_queue_length=result.metrics.max_queue_length,
            carbon_g=result.metrics.carbon_g,
            cost=result.metrics.cost,
            wall_time_s=wall_time_s,
        )


@dataclass(frozen=True)
class EvaluationResult:
    """All cells of Figs. 5-7 plus provenance."""

    outcomes: tuple[StrategyOutcome, ...]
    n_jobs: int
    n_vms: int
    campaign: CampaignResult

    def cell(self, cloud: str, strategy: str) -> StrategyOutcome:
        # O(1) after the first call: the index is built lazily and
        # cached outside the dataclass fields (it never participates in
        # equality or repr).
        try:
            index = object.__getattribute__(self, "_cell_index")
        except AttributeError:
            index = {
                (outcome.cloud, outcome.strategy): outcome
                for outcome in self.outcomes
            }
            object.__setattr__(self, "_cell_index", index)
        try:
            return index[(cloud, strategy)]
        except KeyError:
            raise KeyError(f"no outcome for ({cloud!r}, {strategy!r})") from None

    def series(self, metric: str) -> Mapping[str, "list[tuple[str, float]]"]:
        """{cloud: [(strategy, value), ...]} for one metric attribute."""
        by_cloud: dict[str, list[tuple[str, float]]] = {}
        for outcome in self.outcomes:
            by_cloud.setdefault(outcome.cloud, []).append(
                (outcome.strategy, getattr(outcome, metric))
            )
        return by_cloud

    @property
    def strategies(self) -> tuple[str, ...]:
        seen: list[str] = []
        for outcome in self.outcomes:
            if outcome.strategy not in seen:
                seen.append(outcome.strategy)
        return tuple(seen)

"""Headline-claim extraction and display formatting.

Turns an :class:`~repro.experiments.outcomes.EvaluationResult` into
the quantities the paper states in prose, so EXPERIMENTS.md and the
assertion tests can compare paper-vs-measured directly:

* "PROACTIVE ... up to 18% shorter execution times" (vs the FF family),
* "saves around 12% of energy consumption on average with respect to
  first-fit (with and without VM multiplexing)",
* "PROACTIVE with the performance optimization goal reduces the
  execution times by more than 3% in comparison to the same strategy
  with the energy optimization goal",
* "the PROACTIVE strategy with the energy optimization goal saves
  almost 3% more energy than the same strategy with the performance
  optimization goal",
* SLA violations: PROACTIVE <= the traditional schemes; violations
  correlate with makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.outcomes import EvaluationResult

FF_FAMILY = ("FF", "FF-2", "FF-3")
PA_FAMILY = ("PA-1", "PA-0", "PA-0.5")


@dataclass(frozen=True)
class HeadlineClaims:
    """Measured counterparts of the paper's prose claims, per cloud."""

    cloud: str
    #: Best-PA makespan improvement vs the *worst* FF variant ("up to").
    max_makespan_improvement_pct: float
    #: Best-PA makespan improvement vs plain FF.
    makespan_improvement_vs_ff_pct: float
    #: Mean PA energy saving vs the FF-family average ("on average").
    avg_energy_saving_pct: float
    #: PA-0 makespan gain over PA-1 (paper: > 3%).
    pa0_vs_pa1_makespan_pct: float
    #: PA-1 energy gain over PA-0 (paper: almost 3%).
    pa1_vs_pa0_energy_pct: float
    #: Max PA violation percentage minus min FF violation percentage
    #: (negative or small = PA at least as good, the paper's claim).
    pa_worst_minus_ff_best_sla_pp: float
    #: Pearson-style correlation between makespan and violations over
    #: all strategies in this cloud (paper: positive correlation).
    makespan_sla_correlation: float


def _pct_gain(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def headline_claims(result: EvaluationResult) -> "list[HeadlineClaims]":
    """Compute the paper's prose claims for each simulated cloud."""
    claims: list[HeadlineClaims] = []
    for cloud in sorted({o.cloud for o in result.outcomes}):
        cells = {o.strategy: o for o in result.outcomes if o.cloud == cloud}
        missing = [s for s in FF_FAMILY + PA_FAMILY if s not in cells]
        if missing:
            raise KeyError(f"cloud {cloud!r} missing strategies {missing}")

        best_pa_makespan = min(cells[s].makespan_s for s in PA_FAMILY)
        worst_ff_makespan = max(cells[s].makespan_s for s in FF_FAMILY)
        ff_energy_avg = sum(cells[s].energy_j for s in FF_FAMILY) / len(FF_FAMILY)
        pa_energy_avg = sum(cells[s].energy_j for s in PA_FAMILY) / len(PA_FAMILY)

        makespans = [cells[s].makespan_s for s in FF_FAMILY + PA_FAMILY]
        violations = [cells[s].sla_violation_pct for s in FF_FAMILY + PA_FAMILY]
        claims.append(
            HeadlineClaims(
                cloud=cloud,
                max_makespan_improvement_pct=_pct_gain(worst_ff_makespan, best_pa_makespan),
                makespan_improvement_vs_ff_pct=_pct_gain(
                    cells["FF"].makespan_s, best_pa_makespan
                ),
                avg_energy_saving_pct=_pct_gain(ff_energy_avg, pa_energy_avg),
                pa0_vs_pa1_makespan_pct=_pct_gain(
                    cells["PA-1"].makespan_s, cells["PA-0"].makespan_s
                ),
                pa1_vs_pa0_energy_pct=_pct_gain(
                    cells["PA-0"].energy_j, cells["PA-1"].energy_j
                ),
                pa_worst_minus_ff_best_sla_pp=(
                    max(cells[s].sla_violation_pct for s in PA_FAMILY)
                    - min(cells[s].sla_violation_pct for s in FF_FAMILY)
                ),
                makespan_sla_correlation=_correlation(makespans, violations),
            )
        )
    return claims


def _correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; 0.0 when either side is constant."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x**0.5 * var_y**0.5)


def format_series_table(
    series: Mapping[str, "list[tuple[str, float]]"],
    value_format: str = "{:.0f}",
    title: str = "",
) -> str:
    """Render a {cloud: [(strategy, value)]} mapping as an ASCII table."""
    clouds = sorted(series)
    strategies: list[str] = []
    for cloud in clouds:
        for strategy, _ in series[cloud]:
            if strategy not in strategies:
                strategies.append(strategy)
    width = max(len(s) for s in strategies + clouds) + 2
    lines = []
    if title:
        lines.append(title)
    header = "".ljust(width) + "".join(c.ljust(width + 6) for c in clouds)
    lines.append(header)
    for strategy in strategies:
        row = strategy.ljust(width)
        for cloud in clouds:
            value = dict(series[cloud]).get(strategy)
            text = value_format.format(value) if value is not None else "-"
            row += text.ljust(width + 6)
        lines.append(row)
    return "\n".join(lines)

"""One-shot reproduction summary: every paper artifact in one report.

:func:`reproduce_paper` regenerates Figs. 1-4 and Tables I-II at full
fidelity and Figs. 5-7 at a configurable scale, then renders a
consolidated paper-vs-measured report -- the programmatic equivalent of
EXPERIMENTS.md, kept honest because it is recomputed on every call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.campaign.platformrunner import run_campaign
from repro.exec import mapper as exec_mapper
from repro.experiments.config import LARGER, SMALLER
from repro.experiments.evaluation import EvaluationResult, run_evaluation
from repro.experiments.fig1_profiles import Fig1Result, fig1_profiles
from repro.experiments.fig2_basecurve import Fig2Result, fig2_basecurve
from repro.experiments.fig4_accounting import Fig4Result, fig4_worked_example
from repro.experiments.report import format_series_table, headline_claims
from repro.testbed.spec import Subsystem


@dataclass(frozen=True)
class PaperReproduction:
    """Every regenerated artifact plus the rendered report."""

    fig1: Fig1Result
    fig2: Fig2Result
    fig4: Fig4Result
    evaluation: EvaluationResult
    report: str

    @property
    def fig4_matches(self) -> bool:
        return self.fig4.matches_paper


def reproduce_paper(
    vm_budget: int = 2500,
    progress=None,
    jobs: int = 1,
) -> PaperReproduction:
    """Regenerate all artifacts and render the consolidated report.

    ``vm_budget`` scales the Figs. 5-7 evaluation (the paper's full
    scale is 10,000; the default quarter scale keeps the call under a
    minute while preserving the relations).  ``jobs`` fans the campaign
    grid and the evaluation cells over worker processes; any value is
    bit-identical to serial (DESIGN.md, "Parallel execution").
    """

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    say("campaign + Tables I/II")
    campaign = run_campaign(mapper=exec_mapper(jobs))
    optima = campaign.optima

    say("Fig. 1 profiles")
    fig1 = fig1_profiles()
    say("Fig. 2 base curve")
    fig2 = fig2_basecurve()
    fig4 = fig4_worked_example()

    say(f"Figs. 5-7 evaluation ({vm_budget} VMs)")
    evaluation = run_evaluation(
        configs=[SMALLER.scaled(vm_budget), LARGER.scaled(vm_budget)],
        campaign=campaign,
        progress=progress,
        jobs=jobs,
    )

    out = io.StringIO()
    w = out.write
    w("=== Reproduction summary: paper vs measured ===\n\n")

    w("Fig. 1  sub-system utilization:\n")
    left = fig1.cpu_intensive
    right = fig1.cpu_network_intensive
    w(
        f"  left  ({left.benchmark_name}): class={left.workload_class.value}, "
        f"intensive={sorted(s.value for s in left.profile.intensive)}\n"
    )
    w(
        f"  right ({right.benchmark_name}): "
        f"intensive={sorted(s.value for s in right.profile.intensive)} "
        f"(paper: CPU + network)\n\n"
    )

    w("Fig. 2  FFTW curve:\n")
    w(
        f"  optimum at {fig2.optimal_n} VMs (paper: 9); "
        f"degradation at 12 VMs: {fig2.degradation_at(12):.2f}x "
        f"(paper: 'significant'); at 16: avg {fig2.avg_time_vm_s[-1]:.0f}s vs "
        f"solo {fig2.solo_time_s:.0f}s (paper: comparable to sequential)\n\n"
    )

    w("Table I parameters:\n")
    for row in optima.table_rows():
        name, osp, ose, t_single = row
        w(f"  {name:>4s}: OSP={osp:2d} OSE={ose:2d} T={t_single:.0f}s\n")
    osc, osm, osi = optima.grid_bounds
    w(f"  grid bounds (OSC, OSM, OSI) = ({osc}, {osm}, {osi})\n\n")

    w("Table II database:\n")
    w(f"  {len(campaign.records)} records (base + combined tests)\n\n")

    w("Fig. 4  worked example:\n")
    w(
        f"  ExecTime_VM1 = {fig4.exec_time_vm1_s:.0f}s (paper: 1380s); "
        f"Energy = {fig4.energy_j / 1000:.2f}kJ (paper: 14.25kJ)\n\n"
    )

    w(format_series_table(evaluation.series("makespan_s"), "{:.0f}", "Fig. 5  makespan (s):"))
    w("\n\n")
    energy_series = {
        cloud: [(s, v / 1000.0) for s, v in cells]
        for cloud, cells in evaluation.series("energy_j").items()
    }
    w(format_series_table(energy_series, "{:.0f}", "Fig. 6  energy (kJ):"))
    w("\n\n")
    w(
        format_series_table(
            evaluation.series("sla_violation_pct"), "{:.1f}", "Fig. 7  SLA violations (%):"
        )
    )
    w("\n\nHeadline claims:\n")
    for claims in headline_claims(evaluation):
        w(
            f"  {claims.cloud}: makespan -{claims.max_makespan_improvement_pct:.1f}% "
            f"vs worst FF (paper: up to 18%); energy "
            f"-{claims.avg_energy_saving_pct:.1f}% vs FF family (paper: ~12%); "
            f"PA-1 vs PA-0 energy {claims.pa1_vs_pa0_energy_pct:+.1f}% "
            f"(paper: ~3%); makespan/SLA correlation "
            f"{claims.makespan_sla_correlation:.2f} (paper: positive)\n"
        )

    return PaperReproduction(
        fig1=fig1,
        fig2=fig2,
        fig4=fig4,
        evaluation=evaluation,
        report=out.getvalue(),
    )

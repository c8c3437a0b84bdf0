"""Fig. 7: percentage of SLA violations per strategy on both clouds.

Paper: "the percentage of SLA violations with the PROACTIVE strategies
are also less compared to the traditional schemes" and "a correlation
between execution time and SLA violations".  The timed callable is one
full-scale simulation cell (SMALLER cloud, FF-3, the stress case).
"""

from repro.experiments.config import SMALLER
from repro.experiments.report import format_series_table, headline_claims
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.slotfit import FirstFitStrategy


def test_fig7_sla_violations(benchmark, evaluation_result, full_workload):
    jobs, qos = full_workload
    simulator = DatacenterSimulator(DatacenterConfig(n_servers=SMALLER.n_servers))
    strategy = FirstFitStrategy(3)

    benchmark.pedantic(lambda: simulator.run(jobs, strategy, qos), rounds=1, iterations=1)

    print("\n=== Fig. 7: SLA violations (%) ===")
    print(format_series_table(evaluation_result.series("sla_violation_pct"), "{:.1f}"))
    for claims in headline_claims(evaluation_result):
        print(
            f"{claims.cloud}: worst-PA minus best-FF = "
            f"{claims.pa_worst_minus_ff_best_sla_pp:.1f} pp (<= 0 means PA at "
            f"least as good); makespan/SLA correlation = "
            f"{claims.makespan_sla_correlation:.2f} (paper: positive)"
        )

    for claims in headline_claims(evaluation_result):
        assert claims.pa_worst_minus_ff_best_sla_pp <= 5.0
        assert claims.makespan_sla_correlation > 0.5

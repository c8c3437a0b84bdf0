"""Ablation: sensitivity to the workflow burst size.

The paper sizes bursts "randomly from 1 to 5 job requests" to model
scientific workflows.  This bench compares burst regimes (no bursts,
the paper's 1-5, heavy 5-10) on a quarter-scale SMALLER cloud: larger
same-profile bursts give the application-centric allocator more
same-class pressure to spread, while FF packs them blindly.
"""

from repro.experiments.config import SMALLER
from repro.common.rng import SeedSequenceFactory
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.slotfit import FirstFitStrategy
from repro.strategies.proactive import ProactiveStrategy
from repro.workloads.assignment import AssignmentConfig, assign_profiles_and_vms, truncate_to_vm_budget
from repro.workloads.cleaning import clean_trace
from repro.workloads.qos import QoSPolicy
from repro.workloads.synthetic import EGEETraceConfig, generate_egee_like_trace

REGIMES = {
    "no-bursts (1-1)": AssignmentConfig(min_burst=1, max_burst=1),
    "paper (1-5)": AssignmentConfig(min_burst=1, max_burst=5),
    "heavy (5-10)": AssignmentConfig(min_burst=5, max_burst=10),
}
SCALE = 2500


def test_burst_sensitivity(benchmark, campaign, database):
    config = SMALLER.scaled(SCALE)
    seeds = SeedSequenceFactory(config.seed)
    raw = generate_egee_like_trace(
        EGEETraceConfig(n_jobs=config.raw_jobs, mean_burst_gap_s=config.mean_burst_gap_s),
        rng=seeds.child("trace"),
    )
    cleaned, _ = clean_trace(raw)
    qos = QoSPolicy.from_optima(campaign.optima, factor=config.qos_factor)
    simulator = DatacenterSimulator(DatacenterConfig(n_servers=config.n_servers))

    rows = {}

    def sweep():
        for label, assignment in REGIMES.items():
            jobs = truncate_to_vm_budget(
                assign_profiles_and_vms(cleaned, assignment, rng=seeds.child(label)),
                config.vm_budget,
            )
            ff = simulator.run(jobs, FirstFitStrategy(2), qos)
            pa = simulator.run(jobs, ProactiveStrategy(database, alpha=0.5), qos)
            rows[label] = (ff.metrics, pa.metrics)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n=== burst-size sensitivity (quarter-scale SMALLER cloud) ===")
    print(f"{'regime':>18s} {'FF-2 makespan':>14s} {'PA-0.5 makespan':>16s} {'PA gain %':>10s}")
    for label, (ff, pa) in rows.items():
        gain = 100.0 * (ff.makespan_s - pa.makespan_s) / ff.makespan_s
        print(f"{label:>18s} {ff.makespan_s:14.0f} {pa.makespan_s:16.0f} {gain:10.1f}")

    # The application-centric strategy stays competitive in every
    # regime (never >5% worse than FF-2 on makespan).
    for label, (ff, pa) in rows.items():
        assert pa.makespan_s <= ff.makespan_s * 1.05, label

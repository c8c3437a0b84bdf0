"""Ablation: the exhaustive database vs a learned surrogate.

The paper's future work proposes extracting the model with machine
learning instead of running every combination.  This bench fits the
polynomial surrogate on half of the measured records, reports its
accuracy over the full grid, and replays a quarter-scale evaluation
with the stock PROACTIVE strategy running on each model.
"""

import numpy as np

from benchmarks.learning import fit_learned_model
from repro.experiments.config import SMALLER
from repro.experiments.evaluation import prepare_workload
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.proactive import ProactiveStrategy
from repro.workloads.qos import QoSPolicy

SCALE = 2500


def test_learned_model_accuracy(benchmark, database):
    learned = benchmark(lambda: fit_learned_model(database, sample_fraction=0.5, rng=7))

    errors = np.array([learned.relative_error(r) for r in database.records])
    print("\n=== learned surrogate vs exhaustive database ===")
    print(f"training records : {int(len(database) * 0.5)} of {len(database)}")
    print(f"time   rel. error: median {np.median(errors[:, 0]) * 100:5.1f}%  p90 {np.percentile(errors[:, 0], 90) * 100:5.1f}%")
    print(f"energy rel. error: median {np.median(errors[:, 1]) * 100:5.1f}%  p90 {np.percentile(errors[:, 1], 90) * 100:5.1f}%")

    assert np.median(errors[:, 0]) < 0.15
    assert np.median(errors[:, 1]) < 0.15


def test_allocation_quality_on_learned_model(benchmark, campaign, database):
    config = SMALLER.scaled(SCALE)
    jobs, _ = prepare_workload(config)
    qos = QoSPolicy.from_optima(campaign.optima, factor=config.qos_factor)
    simulator = DatacenterSimulator(DatacenterConfig(n_servers=config.n_servers))
    learned = fit_learned_model(database, sample_fraction=0.5, rng=7)

    results = {}

    def run_both():
        results["exact"] = simulator.run(jobs, ProactiveStrategy(database, alpha=0.5), qos)
        results["learned"] = simulator.run(
            jobs, ProactiveStrategy(learned, alpha=0.5), qos  # type: ignore[arg-type]
        )

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    print("\n=== PROACTIVE on exact vs learned model (quarter scale) ===")
    for label, result in results.items():
        print(
            f"  {label:8s} makespan={result.metrics.makespan_s:7.0f}s "
            f"energy={result.metrics.energy_kj:7.0f}kJ "
            f"SLA={result.metrics.sla_violation_pct:4.1f}%"
        )

    exact = results["exact"].metrics
    learned_metrics = results["learned"].metrics
    # The surrogate costs at most a modest premium on either objective.
    assert learned_metrics.makespan_s <= exact.makespan_s * 1.10
    assert learned_metrics.energy_j <= exact.energy_j * 1.15

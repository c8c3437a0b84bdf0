"""Tests for the thermal replay over simulation chronicles."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.ext.thermal import (
    ThermalAwareProactiveStrategy,
    ThermalParams,
    replay_chronicle,
    replay_thermal,
)
from repro.sim.chronicle import Chronicle, ChronicleSpill
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.proactive import ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


def jobs(n=10, n_vms=3):
    return [
        PreparedJob(
            job_id=i,
            submit_time_s=(i - 1) * 120.0,
            workload_class=list(WorkloadClass)[i % 3],
            n_vms=n_vms,
            burst_id=i,
        )
        for i in range(1, n + 1)
    ]


class TestReplayChronicle:
    def test_constant_power_reaches_steady_state(self):
        params = ThermalParams()
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 20 * params.time_constant_s, (1, 0, 0), 200.0, ["a"])
        summary = replay_chronicle(chronicle, params)
        expected = params.ambient_c + 200.0 * params.resistance_k_per_w
        assert summary.final_c == pytest.approx(expected, abs=0.1)
        assert summary.peak_c == pytest.approx(expected, abs=0.1)

    def test_cool_server_never_over_redline(self):
        params = ThermalParams()
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 10_000.0, (1, 0, 0), 100.0, ["a"])
        summary = replay_chronicle(chronicle, params)
        assert summary.stayed_cool

    def test_hot_server_accumulates_redline_time(self):
        params = ThermalParams(redline_c=50.0)
        hot_power = (80.0 - params.ambient_c) / params.resistance_k_per_w
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 50 * params.time_constant_s, (2, 0, 0), hot_power, ["a", "b"])
        summary = replay_chronicle(chronicle, params)
        assert summary.seconds_over_redline > 0
        assert summary.peak_c > params.redline_c

    def test_power_off_gap_cools(self):
        params = ThermalParams()
        chronicle = Chronicle("s0")
        chronicle.record(0.0, 1000.0, (1, 0, 0), 250.0, ["a"])
        chronicle.record(
            1000.0 + 20 * params.time_constant_s,
            1001.0 + 20 * params.time_constant_s,
            (1, 0, 0),
            0.0,
            ["b"],
        )
        summary = replay_chronicle(chronicle, params)
        assert summary.final_c == pytest.approx(params.ambient_c, abs=0.5)

    @staticmethod
    def heat(chronicle):
        for k in range(40):
            chronicle.record(60.0 * k, 60.0 * (k + 1), (1, 0, 0), 300.0, ["a"])

    def test_bounded_ring_with_spill_replays_the_whole_log(self, tmp_path):
        params = ThermalParams()
        unbounded = Chronicle("s0")
        self.heat(unbounded)
        with ChronicleSpill(str(tmp_path / "spill.jsonl")) as spill:
            bounded = Chronicle("s0", capacity=2, spill=spill)
            self.heat(bounded)
        assert bounded.n_evicted == 38
        expected = replay_chronicle(unbounded, params)
        assert replay_chronicle(bounded, params) == expected
        assert expected.seconds_over_redline > 0

    def test_eviction_without_spill_raises(self):
        bounded = Chronicle("s0", capacity=2)
        self.heat(bounded)
        with pytest.raises(SimulationError, match="evicted without a spill"):
            replay_chronicle(bounded, ThermalParams())


class TestReplayThermal:
    def test_requires_chronicles(self, database):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=2))
        result = sim.run(jobs(4), ProactiveStrategy(database), QoSPolicy.unlimited())
        with pytest.raises(ConfigurationError, match="chronicles"):
            replay_thermal(result)

    def test_thermal_aware_strategy_stays_cool(self, database):
        thermal = ThermalParams(ambient_c=30.0, redline_c=65.0)
        sim = DatacenterSimulator(DatacenterConfig(n_servers=4, record_chronicles=True))
        qos = QoSPolicy.unlimited()

        aware = sim.run(
            jobs(12), ThermalAwareProactiveStrategy(database, thermal, alpha=1.0), qos
        )
        replay_aware = replay_thermal(aware, thermal)
        # The power cap holds margin below the redline in closed loop.
        assert replay_aware.all_cool
        assert replay_aware.hottest_peak_c < thermal.redline_c

    def test_plain_energy_goal_runs_hotter(self, database):
        thermal = ThermalParams(ambient_c=30.0, redline_c=65.0)
        sim = DatacenterSimulator(DatacenterConfig(n_servers=4, record_chronicles=True))
        qos = QoSPolicy.unlimited()
        plain = sim.run(jobs(12), ProactiveStrategy(database, alpha=1.0), qos)
        aware = sim.run(
            jobs(12), ThermalAwareProactiveStrategy(database, thermal, alpha=1.0), qos
        )
        peak_plain = replay_thermal(plain, thermal).hottest_peak_c
        peak_aware = replay_thermal(aware, thermal).hottest_peak_c
        assert peak_aware <= peak_plain + 1e-9

    def test_summary_renders(self, database):
        sim = DatacenterSimulator(DatacenterConfig(n_servers=2, record_chronicles=True))
        result = sim.run(jobs(4), ProactiveStrategy(database), QoSPolicy.unlimited())
        text = replay_thermal(result).summary()
        assert "peak" in text and "redline" in text

"""Integration: the model database vs independent simulator replays.

The reproduction's central internal-validity question: do the Table II
records (measured by the *mix runner*) agree with what the *datacenter
simulator's* per-server runtime computes for the same mixes?  The two
share the contention physics but traverse completely different code
paths (batch event loop vs lazy synced runtime), so agreement is a
meaningful check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.campaign.combined_tests import build_mix_instances
from repro.campaign.records import BenchmarkRecord, MixKey
from repro.common.errors import ConfigurationError
from repro.core.model import ModelDatabase
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec, default_server


@dataclass(frozen=True)
class CrossCheckRow:
    """One mix compared across the two code paths."""

    key: MixKey
    db_time_s: float
    replay_time_s: float
    db_energy_j: float
    replay_energy_j: float

    @property
    def time_deviation(self) -> float:
        return abs(self.replay_time_s - self.db_time_s) / self.db_time_s

    @property
    def energy_deviation(self) -> float:
        return abs(self.replay_energy_j - self.db_energy_j) / self.db_energy_j


@dataclass(frozen=True)
class CrossCheckReport:
    rows: tuple[CrossCheckRow, ...]

    @property
    def max_time_deviation(self) -> float:
        return max((r.time_deviation for r in self.rows), default=0.0)

    @property
    def max_energy_deviation(self) -> float:
        return max((r.energy_deviation for r in self.rows), default=0.0)

    def summary(self) -> str:
        return (
            f"{len(self.rows)} mixes cross-checked: max deviation "
            f"time {self.max_time_deviation:.2e}, "
            f"energy {self.max_energy_deviation:.2e}"
        )


def _replay_mix(
    key: MixKey,
    server_spec: ServerSpec,
    params: ContentionParams | None,
) -> tuple[float, float]:
    """Run one mix through the simulator's ServerRuntime event loop."""
    runtime = ServerRuntime("xcheck", server_spec, params=params)
    runtime.sync(0.0)
    for index, instance in enumerate(build_mix_instances(key)):
        runtime.add_vm(
            SimVM(
                vm_id=instance.vm_id,
                job_id=index,
                workload_class=instance.benchmark.workload_class,
                submit_time_s=0.0,
                benchmark=instance.benchmark,
            ),
            0.0,
        )
    now = 0.0
    last_finish = 0.0
    for _ in range(100_000):
        boundary = runtime.next_boundary(now)
        if boundary is None:
            break
        now = boundary
        if runtime.sync(now):
            last_finish = now
    else:  # pragma: no cover - convergence guard
        raise ConfigurationError(f"replay of mix {key} did not converge")
    energy = runtime.energy()
    return last_finish, energy.busy_j + energy.idle_j


def crosscheck_database(
    database: ModelDatabase,
    server: ServerSpec | None = None,
    params: ContentionParams | None = None,
    sample: Sequence[MixKey] | None = None,
) -> CrossCheckReport:
    """Compare database records against simulator replays.

    Parameters
    ----------
    database:
        The campaign's model database (exact, noise-free records).
    server / params:
        Must match what the campaign used (defaults to the reference
        testbed, like :func:`repro.campaign.run_campaign`).
    sample:
        Mix keys to check; defaults to every record.
    """
    server = server or default_server()
    keys = list(sample) if sample is not None else [r.key for r in database.records]
    rows: list[CrossCheckRow] = []
    for key in keys:
        record: BenchmarkRecord = database.lookup(key)
        replay_time, replay_energy = _replay_mix(key, server, params)
        rows.append(
            CrossCheckRow(
                key=key,
                db_time_s=record.time_s,
                replay_time_s=replay_time,
                db_energy_j=record.energy_j,
                replay_energy_j=replay_energy,
            )
        )
    return CrossCheckReport(rows=tuple(rows))


class TestCrossCheck:
    def test_sampled_mixes_agree(self, database):
        sample = [r.key for r in database.records[:: max(1, len(database) // 40)]]
        report = crosscheck_database(database, sample=sample)
        # Two independent code paths over the same physics: tight
        # agreement expected (float-integration noise only).
        assert report.max_time_deviation < 1e-6, report.summary()
        assert report.max_energy_deviation < 1e-6, report.summary()

    def test_extreme_corners_agree(self, database):
        osc, osm, osi = database.grid_bounds
        corners = [(osc, 0, 0), (0, osm, 0), (0, 0, osi), (osc, osm, osi), (1, 1, 1)]
        report = crosscheck_database(database, sample=corners)
        assert report.max_time_deviation < 1e-6
        assert report.max_energy_deviation < 1e-6

    def test_report_summary(self, database):
        report = crosscheck_database(database, sample=[(1, 0, 0)])
        assert "1 mixes" in report.summary()
        assert len(report.rows) == 1

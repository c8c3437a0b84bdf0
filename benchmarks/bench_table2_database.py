"""Table II: the model database build (base + combined tests).

Prints the database schema with sample rows and the experiment-count
check against the paper's formula
``(OSC+1)(OSM+1)(OSI+1) - (1+OSC+OSM+OSI)``; times the full campaign.
:func:`table2_database` is the Table II contract; it lives here
because only this bench and its tests run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.campaign.combined_tests import expected_combination_count
from repro.campaign.csvdb import _HEADER
from repro.campaign.platformrunner import CampaignResult, run_campaign
from repro.campaign.records import BenchmarkRecord
from repro.core.model import ModelDatabase
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec


def records_to_rows(records: Sequence[BenchmarkRecord]) -> list[list[str]]:
    """Render records as display rows (header first), for reports."""
    rows = [list(_HEADER)]
    for record in sorted(records):
        rows.append(
            [
                str(record.ncpu),
                str(record.nmem),
                str(record.nio),
                f"{record.time_s:.1f}",
                f"{record.avg_time_vm_s:.1f}",
                f"{record.energy_j:.0f}",
                f"{record.max_power_w:.1f}",
                f"{record.edp:.0f}",
            ]
        )
    return rows


@dataclass(frozen=True)
class Table2Result:
    """The built database plus provenance."""

    campaign: CampaignResult
    database: ModelDatabase

    @property
    def n_records(self) -> int:
        return len(self.database)

    @property
    def expected_combined(self) -> int:
        osc, osm, osi = self.campaign.optima.grid_bounds
        return expected_combination_count(osc, osm, osi)

    def sample_rows(self, limit: int = 10) -> list[list[str]]:
        """First ``limit`` display rows (header included)."""
        rows = records_to_rows(self.database.records)
        return rows[: limit + 1]


def table2_database(
    server: ServerSpec | None = None,
    params: ContentionParams | None = None,
    max_base_vms: int = 16,
) -> Table2Result:
    """Run the campaign and wrap the resulting database."""
    campaign = run_campaign(server=server, params=params, max_base_vms=max_base_vms)
    return Table2Result(campaign=campaign, database=ModelDatabase.from_campaign(campaign))


def test_table2_database_build(benchmark):
    result = benchmark.pedantic(table2_database, rounds=1, iterations=1)

    osc, osm, osi = result.campaign.optima.grid_bounds
    print("\n=== Table II: model database ===")
    print(
        f"grid bounds OSC={osc} OSM={osm} OSI={osi}; "
        f"combined tests = (OSC+1)(OSM+1)(OSI+1) - (1+OSC+OSM+OSI) = "
        f"{result.expected_combined}; total records = {result.n_records}"
    )
    for row in result.sample_rows(limit=8):
        print("".join(f"{cell:>12s}" for cell in row))

    assert result.n_records == result.expected_combined + osc + osm + osi

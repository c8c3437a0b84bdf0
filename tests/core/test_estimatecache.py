"""Unit tests for the dense estimate grid and its bound tables."""

import pytest

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord, total_vms
from repro.common.errors import ConfigurationError, ModelLookupError
from repro.core.estimatecache import (
    BoundTables,
    CacheStats,
    EstimateGrid,
    grid_for,
)
from repro.core.model import ModelDatabase
from repro.testbed.benchmarks import WorkloadClass


def tiny_optima(osc=2, osm=1, osi=1):
    return OptimalScenarios(
        per_class={
            WorkloadClass.CPU: ClassOptima(WorkloadClass.CPU, osc, 1, 100.0),
            WorkloadClass.MEM: ClassOptima(WorkloadClass.MEM, osm, 1, 150.0),
            WorkloadClass.IO: ClassOptima(WorkloadClass.IO, osi, 1, 200.0),
        }
    )


def rec(key, time_s, energy_j=1000.0):
    return BenchmarkRecord.from_measurement(key, time_s, energy_j, 200.0)


@pytest.fixture
def partial_db():
    """A database whose campaign misses some in-box mixes entirely."""
    records = [
        rec((1, 0, 0), 100.0, 15_000.0),
        rec((2, 0, 0), 120.0, 20_000.0),
        rec((0, 1, 0), 150.0, 22_000.0),
        rec((1, 1, 0), 170.0, 30_000.0),
        # No record contains any IO VM: every (_, _, 1) key is missing.
    ]
    return ModelDatabase(records, tiny_optima())


def all_keys(bounds):
    osc, osm, osi = bounds
    for c in range(osc + 1):
        for m in range(osm + 1):
            for i in range(osi + 1):
                yield (c, m, i)


class TestEstimateGrid:
    def test_cells_match_scan(self, database):
        grid = database.estimate_grid
        for key in all_keys(grid.bounds):
            cell = grid.get(key)
            if total_vms(key) == 0:
                assert cell is None
                continue
            try:
                expected = database._estimate_scan(key)
            except ModelLookupError:
                expected = None
            assert cell == expected

    def test_full_campaign_has_no_missing_cells(self, database):
        grid = database.estimate_grid
        assert grid.n_missing == 0
        assert grid.n_exact == len(database)
        # Everything else on the grid resolves by proportional fallback.
        assert grid.n_exact + grid.n_fallback == len(grid) - 1  # minus (0,0,0)

    def test_partial_campaign_counts_missing(self, partial_db):
        grid = partial_db.estimate_grid
        assert grid.bounds == (2, 1, 1)
        # (0,0,1) dominates no record at all -> unestimable; every other
        # IO-bearing key still resolves proportionally from a dominated
        # CPU/MEM record.
        assert grid.n_missing == 1
        assert grid.get((0, 0, 1)) is None
        assert grid.get((1, 1, 1)) is not None
        assert not grid.get((1, 1, 1)).exact

    def test_covers(self, database):
        grid = database.estimate_grid
        osc, osm, osi = grid.bounds
        assert grid.covers((0, 0, 0))
        assert grid.covers((osc, osm, osi))
        assert not grid.covers((osc + 1, 0, 0))
        assert not grid.covers((-1, 0, 0))

    def test_index_get_consistent(self, database):
        grid = database.estimate_grid
        for key in all_keys(grid.bounds):
            assert grid.cells[grid.index(key)] is grid.get(key)

    def test_len(self, database):
        osc, osm, osi = database.grid_bounds
        assert len(database.estimate_grid) == (osc + 1) * (osm + 1) * (osi + 1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimateGrid((1, -1, 1), lambda key: None)


class TestBoundTables:
    def test_tables_match_brute_force(self, partial_db):
        grid = partial_db.estimate_grid
        tables = grid.bound_tables()
        assert isinstance(tables, BoundTables)
        inf = float("inf")
        for key in all_keys(grid.bounds):
            containing = [
                (sup, grid.get(sup))
                for sup in all_keys(grid.bounds)
                if all(sup[d] >= key[d] for d in range(3))
            ]
            estimable = [(sup, cell) for sup, cell in containing if cell is not None]
            idx = grid.index(key)
            if not estimable:
                assert tables.min_time_containing[idx] == inf
                assert tables.min_energy_containing[idx] == inf
                assert tables.min_vms_containing[idx] == inf
            else:
                assert tables.min_time_containing[idx] == min(
                    cell.time_s for _, cell in estimable
                )
                assert tables.min_energy_containing[idx] == min(
                    cell.energy_j for _, cell in estimable
                )
                assert tables.min_vms_containing[idx] == min(
                    total_vms(sup) for sup, _ in estimable
                )

    def test_tables_cached(self, database):
        grid = database.estimate_grid
        assert grid.bound_tables() is grid.bound_tables()


class TestGridFor:
    def test_model_database_reuses_own_grid(self, database):
        assert grid_for(database) is database.estimate_grid

    def test_duck_typed_stand_in_gets_fresh_grid(self, partial_db):
        class CappedProxy:
            """Stand-in vetoing big mixes through within_bounds only."""

            grid_bounds = partial_db.grid_bounds

            def within_bounds(self, key):
                return partial_db.within_bounds(key) and total_vms(key) <= 2

            def estimate(self, key):
                return partial_db.estimate(key)

        grid = grid_for(CappedProxy())
        assert grid is not partial_db.estimate_grid
        assert grid.bounds == partial_db.grid_bounds
        # The proxy's within_bounds veto must show up as missing cells,
        # even where the underlying estimate would succeed.
        assert partial_db.estimate_grid.get((2, 1, 0)) is not None
        assert grid.get((2, 1, 0)) is None
        assert grid.get((1, 1, 0)) == partial_db.estimate((1, 1, 0))


class TestCacheStats:
    def test_as_dict_round_trips_into_provenance(self):
        from repro.core.plan import AllocationProvenance

        stats = CacheStats(grid_hits=3, pruned_dominated_subtrees=2, bnb_active=True)
        provenance = AllocationProvenance(**stats.as_dict())
        assert provenance.grid_hits == 3
        assert provenance.pruned_dominated_subtrees == 2
        assert provenance.bnb_active is True
        assert provenance.subtrees_pruned == 2

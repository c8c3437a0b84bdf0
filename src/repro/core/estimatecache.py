"""Dense estimate cache for the model database (allocator hot path).

The paper accesses the model database by binary search ("the searching
cost is O(log(num_tests))"), and estimates off-database mixes by a
linear scan for the largest dominated record.  Both costs sit squarely
on the allocator's inner loop, which queries one mix per (partition,
block, server) triple.  Because the queryable key space is the tiny
dense grid ``(OSC+1) x (OSM+1) x (OSI+1)`` (Table I bounds), every
possible answer can be materialized once:

* :class:`EstimateGrid` -- a flat array of
  :class:`~repro.core.model.EstimatedOutcome` cells (exact rows plus
  proportional fallbacks resolved at build time), turning per-candidate
  estimation into a single O(1) indexed read;
* :class:`BoundTables` -- per-cell dominating aggregates (minima of
  time, energy, and VM total over every estimable in-grid superset
  mix), the admissible bounds behind the allocator's branch-and-bound
  pruning;
* :class:`CacheStats` -- counters (hits, fallbacks, prunes, frontier
  sizes) that the allocator snapshots into each plan's provenance.

The grid is built from *any* object that exposes ``estimate(key)``
(the ModelDatabase itself, a power-capped proxy, the learned
surrogate...), so every consumer of the duck-typed database
interface gets the same O(1) fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.campaign.records import MixKey, total_vms
from repro.common.errors import ConfigurationError, ModelLookupError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.model import EstimatedOutcome


_INF = float("inf")


@dataclass
class CacheStats:
    """Mutable counters for one allocation pass.

    ``grid_hits``/``grid_misses`` count dense-grid reads (a miss is a
    cell the underlying database could not estimate, e.g. a partial
    campaign or a power-capped mix).  ``energy_fallbacks`` counts
    the formerly *silent* ``_existing_energy`` lookup failures.  The
    prune counters record branch-and-bound activity; the frontier
    counters record the Pareto-streaming candidate retention.

    The ``anytime_*`` counters describe the heuristic search pass when
    the anytime mode ran; in exact mode they stay at their zero
    defaults and :meth:`as_dict` omits them entirely, so exact-mode
    registry snapshots are byte-identical to the pre-anytime layout.
    """

    grid_hits: int = 0
    grid_misses: int = 0
    energy_fallbacks: int = 0
    partitions_enumerated: int = 0
    candidates_feasible: int = 0
    candidates_compliant: int = 0
    frontier_retained: int = 0
    frontier_peak: int = 0
    pruned_infeasible_subtrees: int = 0
    pruned_dominated_subtrees: int = 0
    aborted_assignments: int = 0
    bnb_active: bool = False
    anytime: bool = False
    anytime_beam_width: int = 0
    anytime_rounds: int = 0
    anytime_evaluated: int = 0
    anytime_budget_exhausted: bool = False
    anytime_exact_fallback: bool = False

    def as_dict(self) -> dict:
        counts = {
            "grid_hits": self.grid_hits,
            "grid_misses": self.grid_misses,
            "energy_fallbacks": self.energy_fallbacks,
            "partitions_enumerated": self.partitions_enumerated,
            "candidates_feasible": self.candidates_feasible,
            "candidates_compliant": self.candidates_compliant,
            "frontier_retained": self.frontier_retained,
            "frontier_peak": self.frontier_peak,
            "pruned_infeasible_subtrees": self.pruned_infeasible_subtrees,
            "pruned_dominated_subtrees": self.pruned_dominated_subtrees,
            "aborted_assignments": self.aborted_assignments,
            "bnb_active": self.bnb_active,
        }
        if self.anytime:
            counts["anytime"] = self.anytime
            counts["anytime_beam_width"] = self.anytime_beam_width
            counts["anytime_rounds"] = self.anytime_rounds
            counts["anytime_evaluated"] = self.anytime_evaluated
            counts["anytime_budget_exhausted"] = self.anytime_budget_exhausted
            counts["anytime_exact_fallback"] = self.anytime_exact_fallback
        return counts


@dataclass(frozen=True)
class BoundTables:
    """Per-cell dominating aggregates over the estimable grid.

    For each grid key ``k`` the ``*_containing`` tables aggregate over
    every estimable in-grid key ``k' >= k`` (component-wise).  Since a
    server's mix only grows while blocks are placed, they are
    *admissible* bounds on whatever that server's final mix will cost:

    * ``min_time_containing[k]``  <= time of any final mix containing k
    * ``min_energy_containing[k]`` <= energy of any final mix containing k
    * ``min_vms_containing[k]``: smallest VM total among estimable
      mixes containing k (infinite when none exists) -- the exact
      feasibility test behind hopeless-block pruning.
    """

    min_time_containing: tuple[float, ...]
    min_energy_containing: tuple[float, ...]
    min_vms_containing: tuple[float, ...]


class EstimateGrid:
    """Dense ``(OSC+1) x (OSM+1) x (OSI+1)`` array of estimate cells.

    ``cells[index(key)]`` is the exact object ``estimate_fn(key)``
    returned at build time, or ``None`` when estimation failed with
    :class:`~repro.common.errors.ModelLookupError` (so a cell read is
    behaviourally identical to calling the database, minus the cost).
    The empty mix cell is ``None`` (estimating it is a ValueError).
    """

    def __init__(
        self,
        bounds: tuple[int, int, int],
        estimate_fn: "Callable[[MixKey], EstimatedOutcome]",
    ):
        if len(bounds) != 3 or min(bounds) < 0:
            raise ConfigurationError(f"grid bounds must be 3 non-negative ints, got {bounds}")
        osc, osm, osi = bounds
        self._bounds = (int(osc), int(osm), int(osi))
        # Public: hot loops inline the index arithmetic with these.
        self.stride_c = (osm + 1) * (osi + 1)
        self.stride_m = osi + 1
        cells: "list[EstimatedOutcome | None]" = []
        n_exact = n_fallback = n_missing = 0
        for ncpu in range(osc + 1):
            for nmem in range(osm + 1):
                for nio in range(osi + 1):
                    if ncpu + nmem + nio == 0:
                        cells.append(None)
                        continue
                    try:
                        outcome = estimate_fn((ncpu, nmem, nio))
                    except ModelLookupError:
                        outcome = None
                    if outcome is None:
                        n_missing += 1
                    elif outcome.exact:
                        n_exact += 1
                    else:
                        n_fallback += 1
                    cells.append(outcome)
        self.cells: "tuple[EstimatedOutcome | None, ...]" = tuple(cells)
        self.n_exact = n_exact
        self.n_fallback = n_fallback
        self.n_missing = n_missing
        self._bound_tables: BoundTables | None = None

    # -- geometry ----------------------------------------------------

    @property
    def bounds(self) -> tuple[int, int, int]:
        return self._bounds

    def __len__(self) -> int:
        return len(self.cells)

    def covers(self, key: MixKey) -> bool:
        """Whether the key lies inside the grid box."""
        osc, osm, osi = self._bounds
        return 0 <= key[0] <= osc and 0 <= key[1] <= osm and 0 <= key[2] <= osi

    def index(self, key: MixKey) -> int:
        """Flat index of an in-box key (no range check)."""
        return key[0] * self.stride_c + key[1] * self.stride_m + key[2]

    def get(self, key: MixKey) -> "EstimatedOutcome | None":
        """O(1) cell read for an in-box key; None = not estimable."""
        return self.cells[key[0] * self.stride_c + key[1] * self.stride_m + key[2]]

    # -- branch-and-bound aggregates ---------------------------------

    def bound_tables(self) -> BoundTables:
        """The dominating aggregates, built lazily and cached."""
        if self._bound_tables is None:
            self._bound_tables = self._build_bound_tables()
        return self._bound_tables

    def _build_bound_tables(self) -> BoundTables:
        osc, osm, osi = self._bounds
        size = len(self.cells)
        min_time = [_INF] * size
        min_energy = [_INF] * size
        min_vms = [_INF] * size

        # Suffix DP: every k' >= k is either k itself or contains one of
        # k + e_c, k + e_m, k + e_i; iterate keys in decreasing order so
        # the three successors are already aggregated.
        for ncpu in range(osc, -1, -1):
            for nmem in range(osm, -1, -1):
                for nio in range(osi, -1, -1):
                    key = (ncpu, nmem, nio)
                    idx = self.index(key)
                    cell = self.cells[idx]
                    if cell is not None:
                        min_time[idx] = cell.time_s
                        min_energy[idx] = cell.energy_j
                        min_vms[idx] = float(total_vms(key))
                    for succ in (
                        (ncpu + 1, nmem, nio) if ncpu < osc else None,
                        (ncpu, nmem + 1, nio) if nmem < osm else None,
                        (ncpu, nmem, nio + 1) if nio < osi else None,
                    ):
                        if succ is None:
                            continue
                        sidx = self.index(succ)
                        if min_time[sidx] < min_time[idx]:
                            min_time[idx] = min_time[sidx]
                        if min_energy[sidx] < min_energy[idx]:
                            min_energy[idx] = min_energy[sidx]
                        if min_vms[sidx] < min_vms[idx]:
                            min_vms[idx] = min_vms[sidx]

        return BoundTables(
            min_time_containing=tuple(min_time),
            min_energy_containing=tuple(min_energy),
            min_vms_containing=tuple(min_vms),
        )


def grid_for(database) -> EstimateGrid:
    """The database's own dense grid, or a freshly built one.

    :class:`~repro.core.model.ModelDatabase` materializes its grid at
    construction; duck-typed stand-ins (power caps, learned
    surrogates) are wrapped here by replaying their ``estimate`` over
    the grid once.  A cell is populated only when the database both
    reports the key ``within_bounds`` *and* estimates it -- the same
    two-step feasibility test the allocator's reference path applies
    per query -- so stand-ins that veto keys through ``within_bounds``
    (e.g. power caps) keep their semantics.
    """
    grid = getattr(database, "estimate_grid", None)
    if isinstance(grid, EstimateGrid):
        return grid

    def estimate_cell(key: MixKey):
        if not database.within_bounds(key):
            raise ModelLookupError(key, f"mix {key!r} outside database bounds")
        return database.estimate(key)

    return EstimateGrid(database.grid_bounds, estimate_cell)

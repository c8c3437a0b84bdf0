"""The proactive application-centric VM allocation algorithm (Sect. III-D).

Inputs, per the paper: "(i) the database with the allocation model,
(ii) values from the base experiments such as OSC/OSM/OSI (can be
extracted from the auxiliary file), (iii) a set of VMs and the
application's profile and maximum execution time (QoS guarantees) for
each of them, and (iv) the optimization goal (alpha).  The algorithm
returns the allocation of VMs that best matches the input optimization
goal while satisfying the QoS constraints."

Search: brute force over partitions of the input VM set.  Because VMs
are interchangeable within a workload class, the default fast path
enumerates *type partitions* (multiset partitions over class counts)
instead of raw Orlov set partitions -- the candidate spaces are
equivalent for scoring purposes and the type-aware one is exponentially
smaller.  Each partition's blocks, largest first, are assigned greedily:
a block goes to the feasible server (the combined mix stays inside the
database grid and under the server's VM limit) with the best marginal
alpha score, deadline-compliant placements first, and a tie goes to the
first server of the list.  Candidates are ranked by the alpha objective
with ties resolving to the earliest-enumerated candidate, which
implements "if two partitions have the same rank in different servers,
we select the first server of the list".

QoS: a candidate is compliant when, for every placed VM, the estimated
execution time of its server's combined mix is within the VM's maximum
execution time.  Strict mode raises when no compliant candidate exists
("The algorithm can be relaxed by disregarding the QoS guarantees but
it might be not acceptable for production system"); relaxed mode then
falls back to the best non-compliant candidate.

Implementation: :meth:`ProactiveAllocator.allocate` is a streaming,
pruned search engineered to return the *bit-identical* plan of the
naive brute force (the oracle ``reference_allocate`` in
``tests/oracles/allocator.py``, cross-checked property-style in
``tests/properties``):

* model estimates come from the dense :class:`EstimateGrid` (one O(1)
  indexed read per probe);
* the greedy scores each distinct block once per call against each
  *pristine* server class -- heads sharing (residual mix, VM cap) --
  and keeps the classes sorted by compliance and score.
  Assigning a partition then reads that table for the servers it has
  not touched and re-scores only the few it has, instead of probing
  every server class for every block of every partition.  The
  ``grid_hits``/``grid_misses`` counters still count one probe per
  block and distinct *current* server class, as that scan would;
* instead of materializing every feasible candidate, only the
  (makespan, energy) Pareto frontier is retained -- the alpha score is
  monotone in both axes under any fixed normalization, so a candidate
  weakly dominated by an *earlier* one can never win the
  earliest-wins epsilon tie-break.  Pool maxima for normalization are
  tracked over all evaluated candidates, dropped or not, so the final
  scores equal the full-pool scores exactly;
* for batches of ``bnb_min_vms`` or more VMs the enumeration is
  branch-and-bound pruned: blocks that no server can ever host cut
  their whole subtree (exact, via the grid's min-VMs-containing
  table), and subtrees/partial assignments whose admissible
  (time, energy) lower bounds are already weakly dominated by a
  retained compliant candidate are cut once the running pool maxima
  provably cover anything the pruned candidates could contribute;
* smaller batches enumerate their whole family unpruned, and read it
  from the process-wide memo of
  :func:`~repro.core.partitions.partition_family`, already in
  assignment order.

See DESIGN.md, "Key design choices", for why each step preserves
bit-identical output.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from repro.campaign.records import MixKey, key_for_classes, total_vms
from repro.common.errors import (
    ConfigurationError,
    InfeasibleAllocationError,
    QoSViolationError,
)
from repro.core.anytime import AnytimeConfig, AnytimeResult, run_anytime_search
from repro.core.estimatecache import CacheStats, EstimateGrid, grid_for
from repro.core.model import EstimatedOutcome, ModelDatabase
from repro.core.partitions import (
    count_type_partitions_capped,
    largest_first,
    ordered_type_partitions,
)
from repro.core.plan import AllocationPlan, AllocationProvenance, BlockAssignment
from repro.core.scoring import (
    CarbonContext,
    ScoreWeights,
    best_candidate_index,
    carbon_axis,
    score_candidates,
    score_candidates_carbon,
)
# Deliberate exception to the core->obs.runtime ban: allocate() honours the
# ambient bundle when none is injected, so `repro allocate --trace` observes
# the search without callers threading state.  The hot path itself only sees
# the injected/ambient handle (see _allocate_impl).
# repro: allow layering-import -- ambient-observability fallback, see above
from repro.obs.runtime import Observability, get_observability
from repro.testbed.benchmarks import WORKLOAD_CLASSES, WorkloadClass

_INF = float("inf")

T = TypeVar("T")

#: A server's class: the model sees it only through (residual mix, VM cap).
_SERVER_CLASS = attrgetter("allocated", "max_vms")

#: Block-table order: deadline-compliant first, then the alpha score.
_RANK = itemgetter(0, 1)

#: A workload class's position in a mix key.  (An enum hashes through a
#: Python-level ``__hash__``, so a class-keyed dict built per call costs
#: more than this one shared table.)
_CLASS_POSITION = {workload_class: i for i, workload_class in enumerate(WORKLOAD_CLASSES)}


@dataclass(frozen=True)
class VMRequest:
    """One VM awaiting allocation.

    ``max_exec_time_s`` is the QoS guarantee (maximum execution time);
    ``None`` means no deadline.
    """

    vm_id: str
    workload_class: WorkloadClass
    max_exec_time_s: float | None = None

    def __post_init__(self) -> None:
        if not self.vm_id:
            raise ConfigurationError("vm_id must be non-empty")
        if self.max_exec_time_s is not None and self.max_exec_time_s <= 0:
            raise ConfigurationError(
                f"max_exec_time_s must be positive or None, got {self.max_exec_time_s}"
            )
        if type(self.workload_class) is not WorkloadClass:
            object.__setattr__(self, "workload_class", WorkloadClass(self.workload_class))


@dataclass(frozen=True)
class ServerState:
    """A server's identity and its current (already running) mix."""

    server_id: str
    allocated: MixKey = (0, 0, 0)
    max_vms: int | None = None

    def __post_init__(self) -> None:
        if not self.server_id:
            raise ConfigurationError("server_id must be non-empty")
        if min(self.allocated) < 0:
            raise ConfigurationError(f"allocated counts must be >= 0, got {self.allocated}")
        if self.max_vms is not None and self.max_vms < 1:
            raise ConfigurationError(f"max_vms must be >= 1 or None, got {self.max_vms}")

    def combined(self, block: MixKey) -> MixKey:
        return (
            self.allocated[0] + block[0],
            self.allocated[1] + block[1],
            self.allocated[2] + block[2],
        )


class _Candidate:
    """Internal: one fully assigned partition, pre-scoring.

    ``assignments`` holds ``(server_id, block, combined mix, estimate)``
    per block.  ``rank_time_s`` is the time aggregate used for ranking:
    the estimated completion of the slowest touched server.  (An
    alternative ranking by average-execution-time-per-VM -- the
    paper's Sect. III metric -- rewards density so strongly that the
    greedy assignment over-consolidates into thrashing mixes; see
    DESIGN.md, "Key design choices".)  A slotted class, not a
    dataclass: one is built per feasible partition, and nothing compares
    or hashes it.
    """

    __slots__ = ("assignments", "rank_time_s", "energy_j", "qos_ok")

    def __init__(
        self,
        assignments: tuple[tuple[str, MixKey, MixKey, EstimatedOutcome], ...],
        rank_time_s: float,
        energy_j: float,
        qos_ok: bool,
    ):
        self.assignments = assignments
        self.rank_time_s = rank_time_s
        self.energy_j = energy_j
        self.qos_ok = qos_ok


class _Frontier:
    """Streaming (rank_time, energy) Pareto retention with pool maxima.

    ``offer`` drops a new candidate iff some *earlier retained* one
    weakly dominates it on both axes; earlier elements are never
    evicted.  That rule is exactly lossless for the allocator's
    selection: :func:`~repro.core.scoring.best_candidate_index` can
    only move ``best`` to a strictly better candidate, and a dropped
    candidate's score is >= its dominator's under any shared
    normalization, so it could never have become ``best``.  The
    running ``max_time``/``max_energy`` cover *every* offered
    candidate (retained or dropped): they are the exact pool maxima
    the reference implementation normalizes by.

    The domination test is indexed by a *staircase* -- the
    Pareto-minimal points of the retained list, kept as parallel
    arrays sorted by time with strictly decreasing energy.  Some
    retained point weakly dominates ``(t, e)`` iff the staircase's
    last point with time <= t has energy <= e, so each ``offer`` is
    one bisect instead of a scan.  ``min_time``/``min_energy`` track
    the per-axis minima over *offered* candidates: a dropped
    candidate's dominator is retained and at least as good on both
    axes, so a single-axis minimum over the offered pool is always
    witnessed by a retained candidate too.
    """

    __slots__ = (
        "retained",
        "count",
        "max_time",
        "max_energy",
        "min_time",
        "min_energy",
        "peak",
        "lossless",
        "_stair_t",
        "_stair_e",
    )

    def __init__(self) -> None:
        self.retained: list[_Candidate] = []
        self.lossless = False
        self.count = 0
        self.max_time = 0.0
        self.max_energy = 0.0
        self.min_time = _INF
        self.min_energy = _INF
        self.peak = 0
        self._stair_t: list[float] = []
        self._stair_e: list[float] = []

    def observe(self, time_s: float, energy_j: float) -> None:
        """Fold a candidate's aggregates into the pool *maxima* only.

        Used by the warm start; deliberately leaves the minima and the
        staircase untouched -- the warm candidate is enumerated late,
        so it must never serve as a dominance witness for candidates
        that precede its natural position.
        """
        if time_s > self.max_time:
            self.max_time = time_s
        if energy_j > self.max_energy:
            self.max_energy = energy_j

    def dominated(self, time_s: float, energy_j: float) -> bool:
        """Whether some retained candidate weakly dominates (t, e)."""
        i = bisect_right(self._stair_t, time_s)
        return i > 0 and self._stair_e[i - 1] <= energy_j

    def offer(self, candidate: _Candidate) -> bool:
        self.count += 1
        time_s = candidate.rank_time_s
        energy_j = candidate.energy_j
        if time_s > self.max_time:
            self.max_time = time_s
        if energy_j > self.max_energy:
            self.max_energy = energy_j
        if time_s < self.min_time:
            self.min_time = time_s
        if energy_j < self.min_energy:
            self.min_energy = energy_j
        if self.lossless:
            # Carbon-aware pools: (t, e)-dominance is lossy once the
            # carbon axis joins the score, so every feasible candidate
            # stays scoreable and the staircase is never consulted.
            self.retained.append(candidate)
            if len(self.retained) > self.peak:
                self.peak = len(self.retained)
            return True
        stair_t = self._stair_t
        stair_e = self._stair_e
        i = bisect_right(stair_t, time_s)
        if i > 0 and stair_e[i - 1] <= energy_j:
            return False
        self.retained.append(candidate)
        if len(self.retained) > self.peak:
            self.peak = len(self.retained)
        # Staircase insert: evict the (contiguous) points the new one
        # dominates, keeping times increasing and energies decreasing.
        pos = bisect_left(stair_t, time_s)
        j = pos
        n = len(stair_t)
        while j < n and stair_e[j] >= energy_j:
            j += 1
        if j > pos:
            del stair_t[pos:j]
            del stair_e[pos:j]
        stair_t.insert(pos, time_s)
        stair_e.insert(pos, energy_j)
        return True

    def drop_retention(self) -> None:
        """Release retained candidates (pool can no longer be scored)."""
        self.retained.clear()
        self._stair_t.clear()
        self._stair_e.clear()


class _SearchState:
    """Per-allocate scratch: precomputed server data, frontiers, bounds."""

    __slots__ = (
        "servers",
        "server_ids",
        "caps",
        "deadlines",
        "stats",
        "cells",
        "bounds",
        "stride_c",
        "stride_m",
        "norm_time",
        "norm_energy",
        "residual0",
        "base0",
        "inbox",
        "compliant",
        "fallback",
        "tables",
        "dominance",
        "ready",
        "need_t",
        "need_e",
        "ub_time",
        "ub_energy",
        "block_memo",
        "class_index",
        "class_of",
        "class_members",
        "block_tables",
    )


class ProactiveAllocator:
    """The paper's allocation algorithm over one model database.

    Parameters
    ----------
    database:
        The empirical model (records + Table I bounds), or any stand-in
        exposing ``estimate``, ``within_bounds``, ``grid_bounds`` and
        the time/energy ranges.
    alpha:
        Optimization goal: 1 = minimize energy (PA-1), 0 = minimize
        execution time (PA-0), 0.5 = balanced (PA-0.5).
    strict_qos:
        Raise :class:`QoSViolationError` when no QoS-compliant
        allocation exists (otherwise return the best non-compliant
        one).
    max_candidates:
        Safety valve on the brute-force enumeration; exceeding it
        raises :class:`ConfigurationError` so callers learn they
        passed an unreasonably large batch instead of hanging.  With
        branch-and-bound active the valve counts *expanded* partitions
        (pruned subtrees are free).
    bnb_min_vms:
        Batch size (total VMs) from which the branch-and-bound
        machinery (bound tables, warm start, subtree pruning) is
        armed.  Small batches skip the setup entirely -- their
        enumeration is already microseconds and the paper's
        steady-state bursts stay in that regime.
    obs:
        Observability bundle (:mod:`repro.obs`); ``None`` resolves the
        process-local default per call.  When enabled, each ``allocate``
        emits one ``allocator.allocate`` span and folds its search
        counters into ``allocator.*`` registry counters; when disabled
        (the default) the only cost is one predicate check per call.
    anytime:
        Anytime-search policy.  ``None`` (default) enables automatic
        mode selection with default :class:`AnytimeConfig` knobs:
        batches whose type-partition family reaches
        ``exact_partition_limit`` run the bounded beam + local search
        of :mod:`repro.core.anytime`, smaller ones keep the exact
        enumerator and bit-identical plans.  ``True`` forces the
        anytime path for every batch; ``False`` disables it (the exact
        enumerator always runs); an :class:`AnytimeConfig` customizes
        the knobs.
    time_budget_s:
        Optional wall-clock deadline for the anytime search.  Setting
        it forces the anytime path and arms a monotonic deadline --
        this is the one opt-in departure from determinism (see
        :class:`repro.core.anytime.Deadline`).  Rejected when
        ``anytime=False``.
    carbon:
        Optional :class:`repro.core.scoring.CarbonContext` folding
        time-integrated carbon mass and energy cost into the score as
        a third axis weighted by its ``alpha_carbon``.  A context with
        ``alpha_carbon == 0`` (or ``None``) leaves every code path --
        and every float -- bit-identical to the 2-way allocator.  An
        active context retains all feasible candidates (the carbon
        window mean is not monotone in (time, energy), so Pareto
        retention would be lossy) and keeps the exact enumerator:
        combining it with a forced anytime mode or a time budget is a
        configuration error.
    """

    def __init__(
        self,
        database: ModelDatabase,
        alpha: float = 0.5,
        strict_qos: bool = True,
        max_candidates: int = 2_000_000,
        bnb_min_vms: int = 9,
        obs: Observability | None = None,
        anytime: "AnytimeConfig | bool | None" = None,
        time_budget_s: float | None = None,
        carbon: CarbonContext | None = None,
    ):
        if isinstance(database, Mapping):
            raise ConfigurationError(
                "per-server databases were removed in 3.0: pass one model database"
            )
        self._db = database
        self._grid = grid_for(database)
        self._norm_time = database.time_range_s[1]
        self._norm_energy = database.energy_range_j[1]
        self._carbon = (
            carbon if carbon is not None and carbon.alpha_carbon > 0.0 else None
        )
        self._weights = ScoreWeights(
            alpha,
            alpha_carbon=(
                self._carbon.alpha_carbon if self._carbon is not None else 0.0
            ),
        )
        self._strict_qos = bool(strict_qos)
        if max_candidates < 1:
            raise ConfigurationError(f"max_candidates must be >= 1, got {max_candidates}")
        self._max_candidates = int(max_candidates)
        if bnb_min_vms < 0:
            raise ConfigurationError(f"bnb_min_vms must be >= 0, got {bnb_min_vms}")
        self._bnb_min_vms = int(bnb_min_vms)
        self._obs = obs
        if anytime is False:
            if time_budget_s is not None:
                raise ConfigurationError(
                    "time_budget_s requires the anytime mode, got anytime=False"
                )
            self._anytime_config: AnytimeConfig | None = None
            self._anytime_forced = False
        elif anytime is None or anytime is True:
            self._anytime_config = AnytimeConfig(time_budget_s=time_budget_s)
            self._anytime_forced = anytime is True or time_budget_s is not None
        elif isinstance(anytime, AnytimeConfig):
            config = anytime
            if time_budget_s is not None:
                config = replace(config, time_budget_s=time_budget_s)
            self._anytime_config = config
            self._anytime_forced = config.time_budget_s is not None
        else:
            raise ConfigurationError(
                f"anytime must be an AnytimeConfig, bool, or None, got {anytime!r}"
            )
        if self._carbon is not None and self._anytime_forced:
            raise ConfigurationError(
                "carbon-aware scoring keeps the exact enumerator; it cannot "
                "be combined with a forced anytime mode or a time budget"
            )
        # Mode-selection memo: counts -> bool (bounds are fixed per
        # allocator), plus the shared saturating-DP state memo behind
        # it -- the decision is O(1) after the first check per mix.
        self._mode_memo: dict[MixKey, bool] = {}
        self._count_memo: dict = {}

    def __deepcopy__(self, memo: dict) -> "ProactiveAllocator":
        """A copy that shares the read-only database and estimate grid.

        The settings and the mode-selection memos are copied as usual.
        A sharded run copies its strategy once per shard, and the
        database and grid are the bulk of it (milliseconds a copy).
        """
        memo[id(self._db)] = self._db
        memo[id(self._grid)] = self._grid
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in vars(self).items():
            setattr(clone, name, copy.deepcopy(value, memo))
        return clone

    @property
    def database(self) -> ModelDatabase:
        """The model database, as passed."""
        return self._db

    @property
    def alpha(self) -> float:
        return self._weights.alpha

    @property
    def weights(self) -> ScoreWeights:
        """The resolved score weights (including the carbon knob)."""
        return self._weights

    @property
    def carbon(self) -> CarbonContext | None:
        """The active carbon context (None when scoring is 2-way)."""
        return self._carbon

    @property
    def strict_qos(self) -> bool:
        return self._strict_qos

    @property
    def estimate_grid(self) -> EstimateGrid:
        """The dense estimate cache backing the optimized search."""
        return self._grid

    def allocate(
        self,
        requests: Sequence[VMRequest],
        servers: Sequence[ServerState],
    ) -> AllocationPlan:
        """Allocate a batch of VM requests onto the given servers.

        Returns the best-scoring :class:`AllocationPlan`, carrying an
        :class:`AllocationProvenance` with the search's cache/prune
        counters (also folded into the observability registry when one
        is enabled).  The selected plan (assignments, score, QoS flag)
        is bit-identical to the naive brute force.

        The search reads a server only through its ``server_id``,
        ``allocated`` and ``max_vms``, so any record carrying those
        serves (the simulator hands over its snapshots as they are).
        It runs on the class heads of ``servers`` (see
        :func:`class_heads`): the first ``len(requests)`` servers, in
        list order, of each ``(allocated, max_vms)`` class -- no other
        server can win the paper's first-in-list tie rule.  A call
        costs O(classes x batch) past that one pass, not O(servers);
        a :class:`ClassHeads` list, already reduced by the caller for
        at least ``len(requests)`` VMs, skips the pass.  Error messages
        and ``energy_fallbacks`` still count every offered server.

        Raises
        ------
        InfeasibleAllocationError
            No partition fits the servers' residual capacities.
        QoSViolationError
            (strict mode) capacity-feasible plans exist but all break
            some VM's deadline.
        """
        obs = self._obs if self._obs is not None else get_observability()
        if not obs.enabled:
            return self._allocate_impl(requests, servers, None)
        span = obs.tracer.start(
            "allocator.allocate",
            n_vms=len(requests),
            n_servers=(
                servers.offered if isinstance(servers, ClassHeads) else len(servers)
            ),
            alpha=self.alpha,
        )
        try:
            plan = self._allocate_impl(requests, servers, obs)
        except Exception as exc:
            obs.registry.counter(
                "allocator.errors", kind=type(exc).__name__
            ).inc()
            span.end(outcome=type(exc).__name__)
            raise
        provenance = plan.search_provenance
        span.end(
            outcome="ok",
            score=plan.score,
            qos_satisfied=plan.qos_satisfied,
            partitions=(
                provenance.partitions_enumerated if provenance is not None else 0
            ),
        )
        return plan

    def _allocate_impl(
        self,
        requests: Sequence[VMRequest],
        servers: Sequence[ServerState],
        obs: Observability | None,
    ) -> AllocationPlan:
        if not requests:
            return AllocationPlan(
                assignments=(),
                alpha=self.alpha,
                score=0.0,
                qos_satisfied=True,
                alpha_carbon=self._weights.alpha_carbon,
            )
        if not servers:
            raise InfeasibleAllocationError("no servers available")
        ids = [r.vm_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate vm_id in batch: {ids}")

        counts = key_for_classes([r.workload_class for r in requests])
        deadlines = _tightest_deadlines(requests)
        if isinstance(servers, ClassHeads):
            if servers.limit < len(requests):
                raise ConfigurationError(
                    f"class heads kept for batches of {servers.limit} VMs, "
                    f"got {len(requests)}"
                )
            heads, stands_for, offered = servers, servers.stands_for, servers.offered
        else:
            heads, stands_for = class_heads(servers, _SERVER_CLASS, len(requests))
            offered = len(servers)
        state = self._prepare_state(counts, heads, stands_for, deadlines)

        # Aggregate-capacity fast path: if the batch exceeds what the
        # servers' residual grid/VM slack could absorb in total, no
        # partition is feasible -- skip enumeration entirely.
        if self._capacity_infeasible(counts, state):
            raise InfeasibleAllocationError(
                f"no feasible partition of mix {counts} across {offered} servers"
            )

        anytime_result: AnytimeResult | None = None
        if self._select_anytime(counts, obs):
            anytime_result = self._stream_anytime(counts, state)
            if (state.compliant.count == 0 and state.fallback.count == 0) or (
                self._strict_qos and state.compliant.count == 0
            ):
                # The heuristic found nothing usable (or nothing
                # compliant in strict mode): rerun the exact enumerator
                # on a fresh state so infeasibility and strict-QoS
                # errors keep their certified exact-mode semantics.
                prior = state.stats
                state = self._prepare_state(counts, heads, stands_for, deadlines)
                state.stats.anytime = True
                state.stats.anytime_exact_fallback = True
                state.stats.anytime_beam_width = prior.anytime_beam_width
                state.stats.anytime_rounds = prior.anytime_rounds
                state.stats.anytime_evaluated = prior.anytime_evaluated
                state.stats.anytime_budget_exhausted = prior.anytime_budget_exhausted
                self._stream_candidates(counts, state)
        else:
            self._stream_candidates(counts, state)

        stats = state.stats
        compliant = state.compliant
        fallback = state.fallback
        if compliant.count == 0 and fallback.count == 0:
            raise InfeasibleAllocationError(
                f"no feasible partition of mix {counts} across {offered} servers"
            )
        if compliant.count:
            frontier = compliant
            qos_satisfied = True
        else:
            if self._strict_qos:
                raise QoSViolationError(
                    f"every feasible allocation of mix {counts} violates a deadline"
                )
            frontier = fallback
            qos_satisfied = False

        retained = frontier.retained
        impacts: list[tuple[float, float]] | None = None
        if self._carbon is None:
            scores = score_candidates(
                [(c.rank_time_s, c.energy_j) for c in retained],
                self._weights,
                maxima=(frontier.max_time, frontier.max_energy),
            )
        else:
            impacts = [
                self._carbon.impact(c.energy_j, c.rank_time_s) for c in retained
            ]
            axis = carbon_axis(impacts)
            scores = score_candidates_carbon(
                [
                    (c.rank_time_s, c.energy_j, axis[i])
                    for i, c in enumerate(retained)
                ],
                self._weights,
                maxima=(frontier.max_time, frontier.max_energy),
            )
        best_index = best_candidate_index(scores)
        chosen = retained[best_index]

        stats.candidates_feasible = compliant.count + fallback.count
        stats.candidates_compliant = compliant.count
        stats.frontier_retained = len(retained)
        stats.frontier_peak = max(compliant.peak, fallback.peak)
        if obs is not None:
            obs.registry.counter("allocator.calls").inc()
            obs.registry.merge_counts(stats.as_dict(), prefix="allocator.")
        # Wall-clock budget figures bypass the (numeric-only) counter
        # registry and live on the provenance record alone.
        if anytime_result is not None and self._anytime_config.time_budget_s is not None:
            provenance = AllocationProvenance.from_stats(
                stats,
                time_budget_s=self._anytime_config.time_budget_s,
                budget_consumed_s=anytime_result.budget_consumed_s,
            )
        else:
            provenance = AllocationProvenance.from_stats(stats)
        return self._materialize(
            chosen,
            requests,
            scores[best_index],
            qos_satisfied,
            provenance,
            carbon_impact=None if impacts is None else impacts[best_index],
        )

    def _select_anytime(self, counts: MixKey, obs: Observability | None) -> bool:
        """Whether this batch takes the anytime path.

        Forced configurations (explicit ``anytime=True`` or a live
        ``time_budget_s``) always do.  Auto mode first applies the
        free ``mode_check_min_vms`` floor (the paper's steady-state
        bursts never reach it), then asks the saturating partition
        count whether the family reaches ``exact_partition_limit`` --
        memoized per mix, so repeated batches decide in one dict hit.
        """
        config = self._anytime_config
        if config is None:
            return False
        if self._carbon is not None:
            # Carbon-aware scoring needs the lossless exact pool; the
            # beam heuristic retains a (t, e)-frontier only.  Forced
            # anytime with carbon was rejected in the constructor.
            return False
        if self._anytime_forced:
            return True
        if total_vms(counts) < config.mode_check_min_vms:
            return False
        cached = self._mode_memo.get(counts)
        if cached is None:
            reached = count_type_partitions_capped(
                counts,
                self._grid.bounds,
                cap=config.exact_partition_limit,
                memo=self._count_memo,
            )
            cached = reached >= config.exact_partition_limit
            self._mode_memo[counts] = cached
            outcome = "computed"
        else:
            outcome = "memo"
        if obs is not None:
            obs.registry.counter("allocator.mode_checks", outcome=outcome).inc()
        return cached

    def _stream_anytime(self, counts: MixKey, state: _SearchState) -> AnytimeResult:
        """Run the bounded beam + local search, streaming every
        evaluated candidate into the same Pareto frontiers the exact
        path uses (so final scoring and tie-breaking are shared)."""
        config = self._anytime_config
        stats = state.stats
        stats.anytime = True
        stats.anytime_beam_width = config.beam_width
        if state.tables is None:
            # Guidance needs the min-containing tables even when the
            # batch is below the branch-and-bound arming size.
            state.tables = self._grid.bound_tables()
        bounds = self._grid.bounds
        norm_time = state.norm_time
        norm_energy = state.norm_energy
        energy_weight = self._weights.energy_weight
        time_weight = self._weights.time_weight

        def objective(time_s: float, energy_j: float) -> float:
            score = 0.0
            if norm_energy > 0.0:
                score += energy_weight * (energy_j / norm_energy)
            if norm_time > 0.0:
                score += time_weight * (time_s / norm_time)
            return score

        def evaluate(partition):
            stats.partitions_enumerated += 1
            candidate = self._assign_streamed(
                largest_first(partition), state, abortable=True
            )
            if candidate is None:
                return None
            self._offer(candidate, state)
            return objective(candidate.rank_time_s, candidate.energy_j)

        def guidance(prefix, remaining):
            # Ranking heuristic, not an admissible bound: makespan is
            # the max of the blocks' placement time bounds, but energy
            # *sums* the bounds -- overcounting when blocks share a
            # server, yet far better at penalizing over-fine prefixes
            # than the max the exact pruner must use.
            lb_t = 0.0
            lb_e = 0.0
            for block in prefix:
                info = self._block_info(block, state)
                if info is None:
                    return None
                block_lb_t, block_lb_e = info
                if block_lb_t > lb_t:
                    lb_t = block_lb_t
                lb_e += block_lb_e
            return objective(lb_t, lb_e)

        result = run_anytime_search(counts, bounds, config, evaluate, guidance)
        stats.anytime_rounds = result.rounds
        stats.anytime_evaluated = result.evaluated
        stats.anytime_budget_exhausted = result.budget_exhausted
        return result

    # -- optimized search --------------------------------------------

    def _prepare_state(
        self,
        counts: MixKey,
        servers: Sequence[ServerState],
        stands_for: Sequence[int],
        deadlines: "dict[WorkloadClass, float]",
    ) -> _SearchState:
        """Search scratch over ``servers``, the class heads of the
        offered list; ``stands_for[i]`` is how many offered servers
        head ``i`` represents (see :func:`class_heads`)."""
        grid = self._grid
        state = _SearchState()
        state.servers = servers
        state.server_ids = [s.server_id for s in servers]
        state.caps = [s.max_vms for s in servers]
        state.deadlines = deadlines
        state.stats = CacheStats()
        state.cells = grid.cells
        state.bounds = bounds = grid.bounds
        state.stride_c = stride_c = grid.stride_c
        state.stride_m = stride_m = grid.stride_m
        state.norm_time = self._norm_time
        state.norm_energy = self._norm_energy
        state.compliant = _Frontier()
        state.fallback = _Frontier()
        if self._carbon is not None:
            # (t, e)-dominance is lossy once the carbon axis joins the
            # score: the cheapest-carbon candidate can be dominated on
            # both time and energy.  Retain every feasible candidate.
            state.compliant.lossless = True
            state.fallback.lossless = True
        state.tables = None
        state.dominance = False
        state.ready = False
        # Weights are fractions in [0, 1] (check_fraction), so "goal
        # contributes" is exactly "weight is positive" -- no equality.
        # Carbon scoring consumes both estimates regardless of weights.
        state.need_t = self._weights.time_weight > 0.0 or self._carbon is not None
        state.need_e = self._weights.energy_weight > 0.0 or self._carbon is not None
        state.ub_time = -_INF
        state.ub_energy = -_INF
        state.block_memo = {}

        residual0: list[MixKey] = []
        base0: list[float] = []
        inbox: list[bool] = []
        for server, represented in zip(servers, stands_for):
            mix = server.allocated
            residual0.append(mix)
            if mix[0] > bounds[0] or mix[1] > bounds[1] or mix[2] > bounds[2]:
                # Off-grid residual: every combined mix is off-grid
                # too, so the server can never host a block and its
                # base energy is never consulted.
                inbox.append(False)
                base0.append(0.0)
                continue
            inbox.append(True)
            if total_vms(mix) == 0:
                base0.append(0.0)
                continue
            cell = state.cells[mix[0] * stride_c + mix[1] * stride_m + mix[2]]
            if cell is None:
                # The naive brute force silently treats an unestimable
                # existing mix as zero committed energy; keep the value
                # but surface the event in the provenance counters,
                # once per offered server the head stands for.
                state.stats.energy_fallbacks += represented
                base0.append(0.0)
            else:
                base0.append(cell.energy_j)
        state.residual0 = residual0
        state.base0 = base0
        state.inbox = inbox
        # Pristine server classes: heads sharing (residual, cap) score
        # every block alike.  Classes are numbered in order of their
        # first member; members stay in index order.
        class_index: dict[tuple[MixKey, int | None], int] = {}
        class_of: list[int] = []
        class_members: list[list[int]] = []
        for index, equivalence in enumerate(zip(residual0, state.caps)):
            cls = class_index.get(equivalence)
            if cls is None:
                cls = class_index[equivalence] = len(class_members)
                class_members.append([])
            class_members[cls].append(index)
            class_of.append(cls)
        state.class_index = class_index
        state.class_of = class_of
        state.class_members = class_members
        state.block_tables = {}

        if self._carbon is None and total_vms(counts) >= self._bnb_min_vms:
            # Branch-and-bound prunes on (time, energy) upper bounds,
            # which would drop carbon-preferable candidates; the carbon
            # path enumerates the full feasible pool instead.
            state.stats.bnb_active = True
            state.tables = grid.bound_tables()
            state.ub_time, state.ub_energy = self._upper_bounds(counts, state)
            state.dominance = True
        return state

    def _capacity_infeasible(self, counts: MixKey, state: _SearchState) -> bool:
        """Exact necessary condition: per-dimension and total VM slack.

        Sums, over in-grid servers, how many VMs of each class (and in
        total) each could still absorb given the grid box and its
        ``max_vms``; any feasible assignment respects these caps, so a
        batch exceeding one has no feasible partition.
        """
        osc, osm, osi = state.bounds
        cap_c = cap_m = cap_i = 0
        cap_total = 0
        for index, server in enumerate(state.servers):
            if not state.inbox[index]:
                continue
            rc, rm, ri = state.residual0[index]
            slack_c = osc - rc
            slack_m = osm - rm
            slack_i = osi - ri
            box_slack = slack_c + slack_m + slack_i
            if server.max_vms is None:
                vm_slack = box_slack
            else:
                vm_slack = server.max_vms - (rc + rm + ri)
                if vm_slack < 0:
                    vm_slack = 0
            cap_c += slack_c if slack_c < vm_slack else vm_slack
            cap_m += slack_m if slack_m < vm_slack else vm_slack
            cap_i += slack_i if slack_i < vm_slack else vm_slack
            cap_total += box_slack if box_slack < vm_slack else vm_slack
        ncpu, nmem, nio = counts
        return (
            ncpu > cap_c
            or nmem > cap_m
            or nio > cap_i
            or ncpu + nmem + nio > cap_total
        )

    def _upper_bounds(self, counts: MixKey, state: _SearchState) -> tuple[float, float]:
        """Admissible maxima over every possible candidate's aggregates.

        ``ub_time``: no candidate's makespan can exceed the largest
        estimable time among mixes any single server could end up
        running (its residual plus a sub-mix of the batch, within its
        VM cap).  ``ub_energy``: a small knapsack over servers -- each
        receiving ``a`` of the batch's ``n`` VMs contributes at most
        its best estimable marginal energy at that count -- bounds the
        summed marginal energy of any candidate.  Both gate the
        dominance latch: pruning only starts once the running compliant
        pool maxima reach these bounds, so pruned candidates provably
        cannot change the normalization (see DESIGN.md).
        """
        n = total_vms(counts)
        osc, osm, osi = state.bounds
        cells = state.cells
        stride_c = state.stride_c
        stride_m = state.stride_m
        ub_time = -_INF
        best = [0.0] + [-_INF] * n
        # Identical (residual, cap) servers share scan results.
        scan_memo: dict[tuple[MixKey, int | None], tuple[float, list[float]]] = {}
        for index, server in enumerate(state.servers):
            if not state.inbox[index]:
                continue
            key = (state.residual0[index], server.max_vms)
            cached = scan_memo.get(key)
            if cached is None:
                rc, rm, ri = state.residual0[index]
                r_total = rc + rm + ri
                cap = n
                if server.max_vms is not None and server.max_vms - r_total < cap:
                    cap = server.max_vms - r_total
                if cap < 0:
                    cap = 0
                base = state.base0[index]
                hi_c = min(rc + counts[0], osc)
                hi_m = min(rm + counts[1], osm)
                hi_i = min(ri + counts[2], osi)
                local_ub_t = -_INF
                gains = [-_INF] * (cap + 1)
                gains[0] = 0.0
                for c in range(rc, hi_c + 1):
                    for m in range(rm, hi_m + 1):
                        row = c * stride_c + m * stride_m
                        for i in range(ri, hi_i + 1):
                            placed = (c - rc) + (m - rm) + (i - ri)
                            if placed == 0 or placed > cap:
                                continue
                            cell = cells[row + i]
                            if cell is None:
                                continue
                            if cell.time_s > local_ub_t:
                                local_ub_t = cell.time_s
                            gain = cell.energy_j - base
                            if gain < 0.0:
                                gain = 0.0
                            if gain > gains[placed]:
                                gains[placed] = gain
                cached = (local_ub_t, gains)
                scan_memo[key] = cached
            local_ub_t, gains = cached
            if local_ub_t > ub_time:
                ub_time = local_ub_t
            cap = len(gains) - 1
            new = [-_INF] * (n + 1)
            for total in range(n + 1):
                hi = cap if cap < total else total
                acc = -_INF
                for placed in range(hi + 1):
                    gain = gains[placed]
                    if gain == -_INF:
                        continue
                    prev = best[total - placed]
                    if prev == -_INF:
                        continue
                    value = prev + gain
                    if value > acc:
                        acc = value
                new[total] = acc
            best = new
        return ub_time, best[n]

    def _block_info(self, block: MixKey, state: _SearchState):
        """Per-block placement bound: None if no server can ever host it,
        else the (time, energy) lower bounds of hosting it anywhere.

        A block placed on server ``s`` lands in a combined mix
        containing ``allocated(s) + block``; the grid's min-containing
        tables bound that mix's time/energy from below, and its
        min-VMs-containing entry decides feasibility against
        ``max_vms`` exactly (every estimable containing mix has at
        least that many VMs).
        """
        cached = state.block_memo.get(block, False)
        if cached is not False:
            return cached
        tables = state.tables
        min_time = tables.min_time_containing
        min_energy = tables.min_energy_containing
        min_vms = tables.min_vms_containing
        osc, osm, osi = state.bounds
        stride_c = state.stride_c
        stride_m = state.stride_m
        bc, bm, bi = block
        lb_t = _INF
        lb_e = _INF
        hopeful = False
        for index, server in enumerate(state.servers):
            if not state.inbox[index]:
                continue
            rc, rm, ri = state.residual0[index]
            kc = rc + bc
            km = rm + bm
            ki = ri + bi
            if kc > osc or km > osm or ki > osi:
                continue
            grid_index = kc * stride_c + km * stride_m + ki
            needed = min_vms[grid_index]
            if needed == _INF:
                continue
            if server.max_vms is not None and needed > server.max_vms:
                continue
            hopeful = True
            t = min_time[grid_index]
            if t < lb_t:
                lb_t = t
            e = min_energy[grid_index] - state.base0[index]
            if e < 0.0:
                e = 0.0
            if e < lb_e:
                lb_e = e
        result = (lb_t, lb_e) if hopeful else None
        state.block_memo[block] = result
        return result

    def _dominance_ready(self, state: _SearchState) -> bool:
        """Latch: dominance pruning may start once the compliant pool's
        running maxima reach the upper bounds of anything still
        enumerable (per axis the alpha score actually weighs), so
        pruned candidates cannot change the normalization."""
        if state.ready:
            return True
        compliant = state.compliant
        if not compliant.retained:
            return False
        if state.need_t and compliant.max_time < state.ub_time:
            return False
        if state.need_e and compliant.max_energy < state.ub_energy:
            return False
        state.ready = True
        return True

    def _has_dominator(self, state: _SearchState, lb_t: float, lb_e: float) -> bool:
        """A retained compliant candidate at least as good, on every
        axis the score weighs, as the given lower bounds.

        Both-axes queries hit the frontier's staircase index; single-
        axis queries (alpha 0 or 1) compare the offered-pool minimum,
        which is always witnessed by a retained candidate because a
        dropped candidate's dominator is retained and no worse on
        either axis.
        """
        compliant = state.compliant
        if state.need_t:
            if state.need_e:
                return compliant.dominated(lb_t, lb_e)
            return compliant.min_time <= lb_t
        return compliant.min_energy <= lb_e

    def _stream_candidates(self, counts: MixKey, state: _SearchState) -> None:
        """Enumerate partitions, assign greedily, stream into frontiers."""
        bounds = self._grid.bounds
        stats = state.stats

        prune = None
        if state.dominance:
            # Warm start: evaluate the finest (all-singletons) partition
            # up front and fold its aggregates into the pool maxima --
            # maxima are order-independent, and larger running maxima
            # close the dominance latch sooner.  It is re-offered (or
            # provably dominated) at its natural enumeration position.
            # All-singleton blocks are already in assignment order.
            finest = (
                ((1, 0, 0),) * counts[0]
                + ((0, 1, 0),) * counts[1]
                + ((0, 0, 1),) * counts[2]
            )
            warm = self._assign_streamed(finest, state, abortable=False)
            if warm is not None:
                target = state.compliant if warm.qos_ok else state.fallback
                target.observe(warm.rank_time_s, warm.energy_j)

            def prune(prefix, remaining, _state=state):
                info = self._block_info(prefix[-1], _state)
                if info is None:
                    _state.stats.pruned_infeasible_subtrees += 1
                    return True
                if _state.ready or self._dominance_ready(_state):
                    lb_t = 0.0
                    lb_e = 0.0
                    for block in prefix:
                        block_lb_t, block_lb_e = self._block_info(block, _state)
                        if block_lb_t > lb_t:
                            lb_t = block_lb_t
                        if block_lb_e > lb_e:
                            lb_e = block_lb_e
                    if self._has_dominator(_state, lb_t, lb_e):
                        _state.stats.pruned_dominated_subtrees += 1
                        return True
                return False

        produced = 0
        for partition in ordered_type_partitions(counts, bounds, prune=prune):
            produced += 1
            if produced > self._max_candidates:
                raise ConfigurationError(
                    f"partition enumeration exceeded {self._max_candidates} "
                    f"candidates for mix {counts}; split the batch"
                )
            candidate = self._assign_streamed(partition, state, abortable=True)
            if candidate is None:
                continue
            self._offer(candidate, state)
        stats.partitions_enumerated += produced

    def _offer(self, candidate: "_Candidate", state: _SearchState) -> None:
        """Stream one feasible candidate into the QoS-split frontiers
        (shared by the exact enumerator and the anytime search)."""
        if candidate.qos_ok:
            compliant = state.compliant
            if compliant.count == 0:
                # The compliant pool exists from here on; the
                # fallback frontier can never be the scored pool.
                state.fallback.drop_retention()
            compliant.offer(candidate)
        else:
            fallback = state.fallback
            if state.compliant.count == 0:
                fallback.offer(candidate)
            else:
                fallback.count += 1

    def _block_table(self, block: MixKey, state: _SearchState) -> tuple:
        """Score ``block`` once against every pristine server class.

        Returns ``(hits, misses, ranked, deadline)``: the grid hits and
        misses of probing every class, the hit classes as ``(not
        compliant, score, members, estimate)`` sorted by compliance and
        then score, and the block deadline.  The sort is
        stable and classes are numbered by their first member, so among
        tied classes the one holding the lowest index comes first.
        Built on a block's first sight in an ``allocate`` call, kept in
        ``state.block_tables``.
        """
        deadlines = state.deadlines
        block_deadline = _block_deadline(block, deadlines) if deadlines else None
        cells = state.cells
        osc, osm, osi = state.bounds
        stride_c = state.stride_c
        stride_m = state.stride_m
        max_time = state.norm_time
        max_energy = state.norm_energy
        energy_weight = self._weights.energy_weight
        time_weight = self._weights.time_weight
        base0 = state.base0
        bc, bm, bi = block
        hits = 0
        misses = 0
        ranked: list[tuple[bool, float, list[int], EstimatedOutcome]] = []
        for (mix, cap), members in zip(state.class_index, state.class_members):
            kc = mix[0] + bc
            km = mix[1] + bm
            ki = mix[2] + bi
            if kc > osc or km > osm or ki > osi:
                continue
            if cap is not None and kc + km + ki > cap:
                continue
            estimate = cells[kc * stride_c + km * stride_m + ki]
            if estimate is None:
                misses += 1
                continue
            hits += 1
            marginal_energy = estimate.energy_j - base0[members[0]]
            if marginal_energy < 0.0:
                marginal_energy = 0.0
            score = (
                energy_weight * (marginal_energy / max_energy)
                + time_weight * (estimate.time_s / max_time)
            )
            compliant = block_deadline is None or estimate.time_s <= block_deadline
            ranked.append((not compliant, score, members, estimate))
        ranked.sort(key=_RANK)
        table = (hits, misses, ranked, block_deadline)
        state.block_tables[block] = table
        return table

    def _assign_streamed(
        self,
        partition: tuple[MixKey, ...],
        state: _SearchState,
        abortable: bool,
    ) -> _Candidate | None:
        """Greedy block assignment against the dense grid.

        ``partition`` arrives in assignment order, largest block first
        (:func:`~repro.core.partitions.largest_first`).

        Each block goes to the server with the best ``(compliant,
        -score)``, the lowest index winning ties: the naive brute
        force's rule, float for float.  Untouched servers still have
        their pristine class, so the best of them comes from the
        block's table (:meth:`_block_table`): the lowest untouched
        index among the leading classes that tie.  Only the servers
        this partition has already touched are scored afresh, from
        their current estimate.  ``grid_hits``/``grid_misses`` still
        count one probe per distinct *current* class, as a scan over
        every server would: the table's totals, minus the classes whose
        members are all touched, plus the touched servers' current
        classes that no untouched server shares.

        The one behavioural addition to the brute force is the
        mid-assignment abort: once the dominance latch is closed, a
        partial assignment whose admissible lower bounds are already
        weakly dominated by a retained compliant candidate is abandoned
        (it could neither be selected nor move the pool maxima).
        """
        tables = state.block_tables
        cells = state.cells
        osc, osm, osi = state.bounds
        stride_c = state.stride_c
        stride_m = state.stride_m
        max_time = state.norm_time
        max_energy = state.norm_energy
        energy_weight = self._weights.energy_weight
        time_weight = self._weights.time_weight
        server_ids = state.server_ids
        caps = state.caps
        base0 = state.base0
        residual0 = state.residual0
        class_index = state.class_index
        class_of = state.class_of
        class_members = state.class_members
        check_abort = abortable and state.dominance
        last = len(partition) - 1

        picks: list[tuple[str, MixKey, MixKey, EstimatedOutcome]] = []
        # index -> (pristine base energy, current estimate)
        touched: dict[int, tuple[float, EstimatedOutcome]] = {}
        # Untouched members left, for the classes this partition touched,
        # and the (mix, cap) of the classes with none left: the table
        # counted their probes, which no longer happen.
        untouched: dict[int, int] = {}
        dead: list[tuple[MixKey, int | None]] = []
        # Touched servers whose probe counts apart from the table: one
        # per distinct current class that is not a live pristine class.
        counted: set[int] = set()
        hits = 0
        misses = 0
        # Running AND of the chosen placements' compliance flags.  Per
        # block, compliance is exactly "the estimate fits every
        # deadline among the block's classes" (the block deadline is the
        # min over them), so this equals a final all(...) pass.
        qos_ok = True

        for position, block in enumerate(partition):
            if check_abort and position > 0 and (
                state.ready or self._dominance_ready(state)
            ):
                bound_tables = state.tables
                min_time_tab = bound_tables.min_time_containing
                min_energy_tab = bound_tables.min_energy_containing
                lb_t = 0.0
                lb_e = 0.0
                for index, (energy0, estimate) in touched.items():
                    kc, km, ki = estimate.key
                    grid_index = kc * stride_c + km * stride_m + ki
                    t = min_time_tab[grid_index]
                    if t > lb_t:
                        lb_t = t
                    gain = min_energy_tab[grid_index] - energy0
                    if gain > 0.0:
                        lb_e += gain
                if self._has_dominator(state, lb_t, lb_e):
                    state.stats.aborted_assignments += 1
                    state.stats.grid_hits += hits
                    state.stats.grid_misses += misses
                    return None

            table = tables.get(block)
            if table is None:
                table = self._block_table(block, state)
            block_hits, block_misses, ranked, block_deadline = table
            hits += block_hits
            misses += block_misses
            bc, bm, bi = block
            for mix, cap in dead:
                kc = mix[0] + bc
                km = mix[1] + bm
                ki = mix[2] + bi
                if kc > osc or km > osm or ki > osi:
                    continue
                if cap is not None and kc + km + ki > cap:
                    continue
                if cells[kc * stride_c + km * stride_m + ki] is None:
                    misses -= 1
                else:
                    hits -= 1

            best_index = -1
            best_noncompliant = True
            best_score = _INF
            best_estimate: EstimatedOutcome | None = None
            if not touched:
                if ranked:
                    best_noncompliant, best_score, members, best_estimate = ranked[0]
                    best_index = members[0]
            else:
                for noncompliant, score, members, estimate in ranked:
                    if best_index >= 0 and (
                        noncompliant != best_noncompliant or score > best_score
                    ):
                        break
                    for index in members:
                        if index not in touched:
                            if best_index < 0 or index < best_index:
                                best_index = index
                                best_noncompliant = noncompliant
                                best_score = score
                                best_estimate = estimate
                            break
                for index, (_, current) in touched.items():
                    mix = current.key
                    kc = mix[0] + bc
                    km = mix[1] + bm
                    ki = mix[2] + bi
                    if kc > osc or km > osm or ki > osi:
                        continue
                    cap = caps[index]
                    if cap is not None and kc + km + ki > cap:
                        continue
                    estimate = cells[kc * stride_c + km * stride_m + ki]
                    if estimate is None:
                        if index in counted:
                            misses += 1
                        continue
                    if index in counted:
                        hits += 1
                    marginal_energy = estimate.energy_j - current.energy_j
                    if marginal_energy < 0.0:
                        marginal_energy = 0.0
                    score = (
                        energy_weight * (marginal_energy / max_energy)
                        + time_weight * (estimate.time_s / max_time)
                    )
                    noncompliant = not (
                        block_deadline is None or estimate.time_s <= block_deadline
                    )
                    # Deadline-compliant placements always beat
                    # non-compliant ones; within a compliance tier the
                    # alpha score decides, then the lower index.
                    if best_index < 0 or (noncompliant, score, index) < (
                        best_noncompliant,
                        best_score,
                        best_index,
                    ):
                        best_index = index
                        best_noncompliant = noncompliant
                        best_score = score
                        best_estimate = estimate
            if best_index < 0:
                state.stats.grid_hits += hits
                state.stats.grid_misses += misses
                return None
            assert best_estimate is not None
            previous = touched.get(best_index)
            if previous is None:
                touched[best_index] = (base0[best_index], best_estimate)
                cls = class_of[best_index]
                left = untouched.get(cls)
                if left is None:
                    left = len(class_members[cls])
                untouched[cls] = left - 1
                if left == 1:
                    dead.append((residual0[best_index], caps[best_index]))
            else:
                touched[best_index] = (previous[0], best_estimate)
            picks.append((server_ids[best_index], block, best_estimate.key, best_estimate))
            qos_ok = qos_ok and not best_noncompliant
            if position < last:
                representatives: dict[tuple[MixKey, int | None], int] = {}
                for index, (_, current) in touched.items():
                    equivalence = (current.key, caps[index])
                    cls = class_index.get(equivalence)
                    if cls is None or untouched.get(cls) == 0:
                        representatives.setdefault(equivalence, index)
                counted = set(representatives.values())

        state.stats.grid_hits += hits
        state.stats.grid_misses += misses
        makespan = -_INF
        gains: list[float] = []
        for energy0, estimate in touched.values():
            if estimate.time_s > makespan:
                makespan = estimate.time_s
            gain = estimate.energy_j - energy0
            gains.append(gain if gain > 0.0 else 0.0)
        return _Candidate(
            assignments=tuple(picks),
            rank_time_s=makespan,
            # sum(), not a hand fold: from Python 3.12 it is compensated.
            energy_j=sum(gains),
            qos_ok=qos_ok,
        )

    def _materialize(
        self,
        chosen: _Candidate,
        requests: Sequence[VMRequest],
        score: float,
        qos_satisfied: bool,
        search_provenance: AllocationProvenance,
        carbon_impact: "tuple[float, float] | None" = None,
    ) -> AllocationPlan:
        """Bind concrete VM ids to the chosen partition's blocks."""
        blocks = [block for _, block, _, _ in chosen.assignments]
        assignments = tuple(
            BlockAssignment(
                server_id=server_id,
                block=block,
                vm_ids=vm_ids,
                combined_key=combined,
                estimate=estimate,
            )
            for (server_id, block, combined, estimate), vm_ids in zip(
                chosen.assignments, bind_vm_ids(blocks, requests)
            )
        )
        return AllocationPlan(
            assignments=assignments,
            alpha=self.alpha,
            score=score,
            qos_satisfied=qos_satisfied,
            alpha_carbon=self._weights.alpha_carbon,
            estimated_carbon_g=None if carbon_impact is None else carbon_impact[0],
            estimated_cost=None if carbon_impact is None else carbon_impact[1],
            search_provenance=search_provenance,
        )


def bind_vm_ids(blocks: Iterable[MixKey], vms: Iterable) -> list[tuple[str, ...]]:
    """Concrete VM ids for each partition block, in block order.

    ``vms`` are :class:`VMRequest`-like records (``vm_id`` and
    ``workload_class``).  VMs of one class are interchangeable, so each
    block takes the next unbound ids of every class it holds, CPU
    first, then MEM, then IO.
    """
    queues: tuple[list[str], list[str], list[str]] = ([], [], [])
    for vm in vms:
        queues[_CLASS_POSITION[vm.workload_class]].append(vm.vm_id)
    cpu, mem, io = queues
    c = m = i = 0  # ids of each class bound so far
    bound: list[tuple[str, ...]] = []
    for bc, bm, bi in blocks:
        bound.append(tuple(cpu[c : c + bc] + mem[m : m + bm] + io[i : i + bi]))
        c += bc
        m += bm
        i += bi
    return bound


def class_heads(
    items: Sequence[T],
    key: Callable[[T], Hashable],
    limit: int,
) -> tuple[list[T], list[int]]:
    """The first ``limit`` members of every ``key`` class, in list order.

    The greedy assignment sees a server only through its (residual mix,
    VM cap) class and breaks ties to the first server of the list.  A
    batch of ``limit`` VMs has at most ``limit`` blocks, so at most
    ``limit - 1`` servers are touched before its last block is placed:
    whenever a class is scored, the member picked is among its first
    ``limit``.  Searching the heads therefore yields the plan a search
    over every item would.

    Also returns, parallel to the heads, how many items each one stands
    for: 1, plus the dropped members for a class's last head, so the
    counts sum to ``len(items)``.
    """
    heads: list[T] = []
    stands_for: list[int] = []
    kept: dict[Hashable, list[int]] = {}  # class -> [heads kept, index of the last]
    for item in items:
        group = key(item)
        seen = kept.get(group)
        if seen is None:
            kept[group] = [1, len(heads)]
        elif seen[0] < limit:
            seen[0] += 1
            seen[1] = len(heads)
        else:
            stands_for[seen[1]] += 1
            continue
        heads.append(item)
        stands_for.append(1)
    return heads, stands_for


class ClassHeads(list):
    """Servers already reduced to their class heads, for :meth:`allocate`.

    The list holds the heads in offered order; ``stands_for[i]`` is how
    many offered servers head ``i`` stands for (as :func:`class_heads`
    returns it), ``limit`` the per-class cap the reduction used, and
    ``offered`` the size of the list it was reduced from.  The
    allocator searches such a list as is, instead of reducing again.
    A head is any record with ``server_id``, ``allocated`` and
    ``max_vms``: a :class:`ServerState`, or the simulator's snapshot
    (:class:`~repro.strategies.base.ServerView`) as it is.
    """

    __slots__ = ("stands_for", "limit", "offered")

    def __init__(self, heads: Iterable, stands_for: list[int], limit: int):
        super().__init__(heads)
        self.stands_for = stands_for
        self.limit = limit
        self.offered = sum(stands_for)


def _tightest_deadlines(requests: Iterable[VMRequest]) -> dict[WorkloadClass, float]:
    """Per-class minimum of the requests' QoS deadlines.

    The paper defines QoS "per application type and not for each
    specific request", so the class-level minimum is the binding
    constraint for every block containing that class.
    """
    deadlines: dict[WorkloadClass, float] = {}
    for request in requests:
        if request.max_exec_time_s is None:
            continue
        current = deadlines.get(request.workload_class)
        if current is None or request.max_exec_time_s < current:
            deadlines[request.workload_class] = request.max_exec_time_s
    return deadlines


def _block_deadline(
    block: MixKey,
    deadlines: dict[WorkloadClass, float],
) -> float | None:
    """Tightest deadline among the classes a block contains."""
    tightest: float | None = None
    for class_index, workload_class in enumerate(
        (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)
    ):
        if block[class_index] == 0:
            continue
        deadline = deadlines.get(workload_class)
        if deadline is not None and (tightest is None or deadline < tightest):
            tightest = deadline
    return tightest

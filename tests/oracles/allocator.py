"""The naive brute-force allocator: the equivalence oracle.

:func:`reference_allocate` is the pre-optimization PROACTIVE search
kept verbatim: it materializes every feasible candidate, queries the
database per probe and applies no pruning.
``tests/properties/test_allocator_equivalence_prop.py`` asserts that
:meth:`ProactiveAllocator.allocate` returns the bit-identical plan
(assignments, score, QoS flag) on seeded random inputs, and
``benchmarks/bench_perf_allocator.py`` times it for before/after
numbers.

The oracle scores on (time, energy) only -- it predates the carbon axis
-- and reads nothing from the allocator but its public ``database``,
``weights`` and ``strict_qos``.  Every probe queries the database.  Its
plans carry no search provenance.

:func:`greedy_assign_streamed` is a narrower oracle: the greedy
block-assignment pass of the optimized allocator as it was before that
pass read per-call tables of pristine-class scores.  It runs inside the
shipped search (same pruning, same provenance counters), so patched in
place of ``ProactiveAllocator._assign_streamed`` it must leave both the
plan and ``search_provenance`` unchanged.

:func:`plan_objective` scores any plan on the allocator's alpha scale,
so plans from different search modes compare.
"""

from __future__ import annotations

from typing import Sequence

from repro.campaign.records import MixKey, key_for_classes, total_vms
from repro.common.errors import (
    ConfigurationError,
    InfeasibleAllocationError,
    ModelLookupError,
    QoSViolationError,
)
from repro.core.allocator import (
    _INF,
    ProactiveAllocator,
    ServerState,
    VMRequest,
    _block_deadline,
    _Candidate,
    _tightest_deadlines,
    bind_vm_ids,
)
from repro.core.estimatecache import grid_for
from repro.core.model import EstimatedOutcome
from repro.core.partitions import type_partitions
from repro.core.plan import AllocationPlan, BlockAssignment
from repro.core.scoring import ScoreWeights, score_candidates
from repro.testbed.benchmarks import WorkloadClass


def reference_allocate(
    allocator: ProactiveAllocator,
    requests: Sequence[VMRequest],
    servers: Sequence[ServerState],
) -> AllocationPlan:
    """Allocate like ``allocator.allocate``, by exhaustive enumeration."""
    weights = allocator.weights
    if not requests:
        return AllocationPlan(
            assignments=(), alpha=weights.alpha, score=0.0, qos_satisfied=True
        )
    if not servers:
        raise InfeasibleAllocationError("no servers available")
    ids = [r.vm_id for r in requests]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate vm_id in batch: {ids}")

    counts = key_for_classes([r.workload_class for r in requests])
    deadlines = _tightest_deadlines(requests)
    candidates: list[_Candidate] = []
    for partition in type_partitions(counts, allocator.database.grid_bounds):
        candidate = _assign_partition(allocator, partition, servers, deadlines)
        if candidate is not None:
            candidates.append(candidate)
    if not candidates:
        raise InfeasibleAllocationError(
            f"no feasible partition of mix {counts} across {len(servers)} servers"
        )

    compliant = [c for c in candidates if c.qos_ok]
    pool = compliant
    qos_satisfied = True
    if not compliant:
        if allocator.strict_qos:
            raise QoSViolationError(
                f"every feasible allocation of mix {counts} violates a deadline"
            )
        pool = candidates
        qos_satisfied = False

    scores = score_candidates([(c.rank_time_s, c.energy_j) for c in pool], weights)
    best_index = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best_index] - 1e-12:
            best_index = i
    chosen = pool[best_index]
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
        alpha=weights.alpha,
        score=scores[best_index],
        qos_satisfied=qos_satisfied,
    )


def _assign_partition(
    allocator: ProactiveAllocator,
    partition: tuple[MixKey, ...],
    servers: Sequence[ServerState],
    deadlines: dict[WorkloadClass, float],
) -> _Candidate | None:
    """Score-driven assignment of one partition's blocks to servers.

    For every block (largest first -- hardest to fit, and the pass
    is order-sensitive) each feasible server is evaluated by the
    alpha objective over the *marginal* cost of hosting the block:
    marginal energy (combined-mix energy minus what the server's
    existing mix was already going to consume -- waking an empty
    server pays its idle draw, joining a busy one amortizes it)
    and the combined mix's completion time, both estimated by the
    database and normalized by its ranges.  The block goes to the
    best-scoring server, ties resolving to the first in list order (the
    paper's rule).  Servers whose (current mix, VM cap) are identical
    are interchangeable, so only the first of each equivalence class is
    evaluated.

    Returns None when some block cannot be placed anywhere.
    """
    weights = allocator.weights
    database = allocator.database
    max_time = database.time_range_s[1]
    max_energy = database.energy_range_j[1]
    residual: list[MixKey] = [s.allocated for s in servers]
    base_energy: list[float | None] = [None] * len(servers)  # lazy
    picks: list[tuple[str, MixKey, MixKey, EstimatedOutcome]] = []
    touched: dict[int, tuple[float, EstimatedOutcome]] = {}  # index -> (energy0, final est)

    for block in sorted(partition, key=total_vms, reverse=True):
        block_deadline = _block_deadline(block, deadlines)
        best_index: int | None = None
        best_score = float("inf")
        best_estimate: EstimatedOutcome | None = None
        best_compliant = False
        seen_classes: set[tuple[MixKey, int | None]] = set()
        for index, server in enumerate(servers):
            equivalence = (residual[index], server.max_vms)
            if equivalence in seen_classes:
                continue
            seen_classes.add(equivalence)
            combined = (
                residual[index][0] + block[0],
                residual[index][1] + block[1],
                residual[index][2] + block[2],
            )
            if not database.within_bounds(combined):
                continue
            if server.max_vms is not None and total_vms(combined) > server.max_vms:
                continue
            try:
                estimate = database.estimate(combined)
            except ModelLookupError:
                continue
            if base_energy[index] is None:
                base_energy[index] = _existing_energy(database, residual[index])
            marginal_energy = max(0.0, estimate.energy_j - base_energy[index])
            score = (
                weights.energy_weight * (marginal_energy / max_energy)
                + weights.time_weight * (estimate.time_s / max_time)
            )
            compliant = block_deadline is None or estimate.time_s <= block_deadline
            # Deadline-compliant placements always beat non-compliant
            # ones; within a compliance tier the alpha score decides.
            better = (compliant, -score) > (best_compliant, -best_score)
            if best_index is None or better:
                best_score = score
                best_index = index
                best_estimate = estimate
                best_compliant = compliant
        if best_index is None:
            return None
        assert best_estimate is not None
        if best_index not in touched:
            energy0 = base_energy[best_index]
            assert energy0 is not None
            touched[best_index] = (energy0, best_estimate)
        else:
            touched[best_index] = (touched[best_index][0], best_estimate)
        residual[best_index] = best_estimate.key
        base_energy[best_index] = best_estimate.energy_j
        picks.append(
            (servers[best_index].server_id, block, best_estimate.key, best_estimate)
        )

    makespan = max(est.time_s for _, est in touched.values())
    energy = sum(max(0.0, est.energy_j - energy0) for energy0, est in touched.values())
    qos_ok = all(
        _block_meets_deadline(block, estimate, deadlines)
        for _, block, _, estimate in picks
    )
    return _Candidate(
        assignments=tuple(picks),
        rank_time_s=makespan,
        energy_j=energy,
        qos_ok=qos_ok,
    )


def _existing_energy(database, mix: MixKey) -> float:
    """Energy the server's existing mix is already committed to.

    Zero for an idle server: placing nothing there costs nothing, so a
    block placed on it is charged the full combined-mix energy
    including the idle draw it wakes up.  (The optimized path reads the
    same value from the dense grid and counts the lookup-failed-to-zero
    fallback in the plan provenance.)
    """
    if total_vms(mix) == 0:
        return 0.0
    try:
        return database.estimate(mix).energy_j
    except ModelLookupError:
        return 0.0


def _block_meets_deadline(
    block: MixKey,
    estimate: EstimatedOutcome,
    deadlines: dict[WorkloadClass, float],
) -> bool:
    """QoS check for one block under its server's combined estimate.

    The estimated execution time of every VM in the mix is the mix's
    total time (the conservative bound); a block complies when that
    bound fits the tightest deadline among the block's classes.
    """
    for class_index, workload_class in enumerate(
        (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)
    ):
        if block[class_index] == 0:
            continue
        deadline = deadlines.get(workload_class)
        if deadline is not None and estimate.time_s > deadline:
            return False
    return True


def greedy_assign_streamed(
    self,
    partition: tuple[MixKey, ...],
    state: "_SearchState",
    abortable: bool,
) -> _Candidate | None:
    """The greedy oracle: the per-server scan ``_assign_streamed`` ran
    before it read per-call tables of pristine-class scores.

    For every block it walks every server index, deduplicates servers by
    their *current* ``(mix, cap)`` class and probes the grid
    once per class, keeping the first server of the best class (deadline
    compliance first, then the alpha score, then list order).  So
    ``grid_hits``/``grid_misses`` count the live classes of each block.
    The mid-assignment abort is the shipped one.  It takes the allocator
    as ``self``: patch it over ``ProactiveAllocator._assign_streamed`` to
    compare plans and ``search_provenance`` with the shipped greedy
    (``tests/properties/test_allocator_equivalence_prop.py``).  The one
    edit to the old body: the block deadline is recomputed per block
    instead of memoized on the search state.
    """
    deadlines = state.deadlines
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
    n_servers = len(server_ids)
    check_abort = abortable and state.dominance

    residual: list[MixKey] = list(state.residual0)
    base_energy: list[float] = list(state.base0)
    picks: list[tuple[str, MixKey, MixKey, EstimatedOutcome]] = []
    touched: dict[int, tuple[float, EstimatedOutcome]] = {}
    hits = 0
    misses = 0
    # Running AND of the chosen placements' compliance flags.  Per
    # block, ``best_compliant`` is exactly "the estimate fits every
    # deadline among the block's classes" (the block deadline is the
    # min over them), so this equals a final all(...) pass.
    qos_ok = True

    for position, block in enumerate(partition):
        if check_abort and position > 0 and (
            state.ready or self._dominance_ready(state)
        ):
            tables = state.tables
            min_time_tab = tables.min_time_containing
            min_energy_tab = tables.min_energy_containing
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

        block_deadline = _block_deadline(block, deadlines) if deadlines else None
        bc, bm, bi = block
        best_index = -1
        best_score = _INF
        best_estimate: EstimatedOutcome | None = None
        best_compliant = False
        seen_classes: set[tuple[MixKey, int | None]] = set()
        seen_add = seen_classes.add
        for index in range(n_servers):
            mix = residual[index]
            cap = caps[index]
            equivalence = (mix, cap)
            if equivalence in seen_classes:
                continue
            seen_add(equivalence)
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
            marginal_energy = estimate.energy_j - base_energy[index]
            if marginal_energy < 0.0:
                marginal_energy = 0.0
            score = (
                energy_weight * (marginal_energy / max_energy)
                + time_weight * (estimate.time_s / max_time)
            )
            compliant = block_deadline is None or estimate.time_s <= block_deadline
            # Deadline-compliant placements always beat non-compliant
            # ones; within a compliance tier the alpha score decides.
            if best_index < 0 or (compliant, -score) > (best_compliant, -best_score):
                best_score = score
                best_index = index
                best_estimate = estimate
                best_compliant = compliant
        if best_index < 0:
            state.stats.grid_hits += hits
            state.stats.grid_misses += misses
            return None
        assert best_estimate is not None
        previous = touched.get(best_index)
        if previous is None:
            touched[best_index] = (base_energy[best_index], best_estimate)
        else:
            touched[best_index] = (previous[0], best_estimate)
        residual[best_index] = best_estimate.key
        base_energy[best_index] = best_estimate.energy_j
        picks.append((server_ids[best_index], block, best_estimate.key, best_estimate))
        qos_ok = qos_ok and best_compliant

    state.stats.grid_hits += hits
    state.stats.grid_misses += misses
    makespan = max(est.time_s for _, est in touched.values())
    energy = sum(max(0.0, est.energy_j - energy0) for energy0, est in touched.values())
    return _Candidate(
        assignments=tuple(picks),
        rank_time_s=makespan,
        energy_j=energy,
        qos_ok=qos_ok,
    )


def plan_objective(
    plan: AllocationPlan,
    servers: Sequence[ServerState],
    database,
) -> float:
    """Alpha objective of a plan, recomputed from its assignments.

    Puts plans from different search modes on one comparable scale
    (the anytime-vs-exact quality ratio of ``bench_perf_allocator.py``
    and ``tests/properties/test_anytime_prop.py``): makespan over each
    touched server's *final* combined-mix estimate (the last
    assignment per server wins, since its mix only grows), summed
    marginal energy versus each server's pre-plan base (zero for
    empty, off-grid, or unestimable residuals -- the allocator's own
    fallback), normalized by the database ranges exactly as the
    allocator scores candidates.
    """
    if not plan.assignments:
        return 0.0
    grid = grid_for(database)
    base: dict[str, float] = {}
    for server in servers:
        mix = server.allocated
        energy = 0.0
        if grid.covers(mix) and total_vms(mix) > 0:
            cell = grid.get(mix)
            if cell is not None:
                energy = cell.energy_j
        base[server.server_id] = energy
    final: dict[str, EstimatedOutcome] = {}
    for assignment in plan.assignments:
        final[assignment.server_id] = assignment.estimate
    makespan = max(estimate.time_s for estimate in final.values())
    energy = sum(
        max(0.0, estimate.energy_j - base.get(server_id, 0.0))
        for server_id, estimate in final.items()
    )
    weights = ScoreWeights(plan.alpha)
    max_time = database.time_range_s[1]
    max_energy = database.energy_range_j[1]
    score = 0.0
    if max_energy > 0.0:
        score += weights.energy_weight * (energy / max_energy)
    if max_time > 0.0:
        score += weights.time_weight * (makespan / max_time)
    return score

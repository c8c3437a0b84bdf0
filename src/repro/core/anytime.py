"""Anytime search over type partitions: seeded beam + local refinement.

The exact enumerator in :mod:`repro.core.allocator` is optimal but its
cost grows with the multiset-partition family -- ~13 s at batch 16 and
effectively unbounded beyond.  Following the heuristic-placement
framing of the energy-aware taxonomy literature, this module trades
certified optimality for a bounded, deterministic search:

1. **Seeds** -- a handful of structurally extreme partitions (finest,
   greedy-coarsest, pure per-class chunks) that are cheap to build and
   span the consolidation spectrum.
2. **Beam search** -- canonical prefix expansion through the shared
   :func:`repro.core.partitions.candidate_blocks` step, keeping the
   ``beam_width`` best prefixes per level under a lower-bound guidance
   score (the allocator's ``_block_info`` tables).
3. **Local refinement** -- deterministic rounds of block split/merge/
   move neighborhoods around the incumbent, evaluated in seeded random
   order, stopping when a round yields no improvement.

All randomness flows from :class:`repro.common.rng.SeedSequenceFactory`
children labelled ``"allocator.anytime.{round}"`` -- identical seeds
give identical plans regardless of process count.  The wall-clock
deadline is *opt-in*: with no ``time_budget_s`` the search is bounded
purely by deterministic caps (rounds, beam width, neighbor budget) and
never reads the clock, so auto-selected anytime mode stays
reproducible.  The module knows nothing about servers or models: the
allocator hands it ``evaluate``/``guidance`` callbacks, keeping the
layering acyclic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.campaign.records import MixKey
from repro.common.errors import ConfigurationError
from repro.common.seeds import DEFAULT_SEED
from repro.core.partitions import candidate_blocks

Partition = tuple[MixKey, ...]
Bounds = tuple[int, int, int]

# evaluate(partition) -> objective score or None (infeasible/aborted).
EvaluateFn = Callable[[Partition], "float | None"]
# guidance(prefix, remaining) -> lower-bound score or None (dead prefix).
GuidanceFn = Callable[[Partition, MixKey], "float | None"]

_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class AnytimeConfig:
    """Knobs for the anytime search.

    ``time_budget_s=None`` (the default) keeps the search fully
    deterministic: only the structural caps below bound the work and
    the wall clock is never consulted.  Setting a budget arms a
    monotonic deadline that aborts evaluation between candidates.
    """

    time_budget_s: float | None = None
    beam_width: int = 8
    max_rounds: int = 16
    max_neighbors: int = 220
    exact_partition_limit: int = 50_000
    mode_check_min_vms: int = 13
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        budget = self.time_budget_s
        if budget is not None:
            if not isinstance(budget, (int, float)) or isinstance(budget, bool):
                raise ConfigurationError(
                    f"time_budget_s must be a positive number, got {budget!r}"
                )
            if math.isnan(budget) or math.isinf(budget) or budget <= 0:
                raise ConfigurationError(
                    f"time_budget_s must be positive and finite, got {budget!r}"
                )
        if self.beam_width < 1:
            raise ConfigurationError(
                f"beam_width must be >= 1, got {self.beam_width}"
            )
        if self.max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be >= 0, got {self.max_rounds}"
            )
        if self.max_neighbors < 1:
            raise ConfigurationError(
                f"max_neighbors must be >= 1, got {self.max_neighbors}"
            )
        if self.exact_partition_limit < 1:
            raise ConfigurationError(
                "exact_partition_limit must be >= 1, got "
                f"{self.exact_partition_limit}"
            )
        if self.mode_check_min_vms < 0:
            raise ConfigurationError(
                f"mode_check_min_vms must be >= 0, got {self.mode_check_min_vms}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


class Deadline:
    """Opt-in wall-clock deadline.

    With ``budget_s=None`` the deadline never expires and the clock is
    never read, so deterministic runs stay clock-free.  A live deadline
    reads the monotonic clock -- that is the point of an explicit
    ``--time-budget``, and the determinism suite only exercises budgets
    generous enough that the structural caps bind first.
    """

    __slots__ = ("_started", "_expires")

    def __init__(self, budget_s: float | None) -> None:
        if budget_s is None:
            self._started = None
            self._expires = None
        else:
            self._started = time.monotonic()  # repro: allow determinism-wallclock, determinism-taint -- opt-in --time-budget deadline; never armed in deterministic mode
            self._expires = self._started + budget_s

    def expired(self) -> bool:
        if self._expires is None:
            return False
        return time.monotonic() >= self._expires  # repro: allow determinism-wallclock -- opt-in --time-budget deadline; never armed in deterministic mode

    def consumed_s(self) -> float:
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started  # repro: allow determinism-wallclock -- opt-in --time-budget deadline; never armed in deterministic mode


@dataclass
class AnytimeResult:
    """Outcome and effort accounting of one anytime search."""

    best_partition: Partition | None = None
    best_score: float = math.inf
    evaluated: int = 0
    rounds: int = 0
    beam_levels: int = 0
    improved: int = 0
    budget_exhausted: bool = False
    budget_consumed_s: float = 0.0
    seen: set[Partition] = field(default_factory=set)
    scored: dict[Partition, float] = field(default_factory=dict)


def seed_partitions(counts: MixKey, bounds: Bounds) -> list[Partition]:
    """Structurally extreme starting partitions, canonical and deduped.

    * finest: every VM in its own singleton block;
    * greedy-coarsest: repeatedly take the largest bound-feasible block
      of everything remaining;
    * pure per-class runs: each class chunked into blocks of k VMs for
      k = 2..max(bounds), capped at that class's bound.
    """
    ncpu, nmem, nio = counts
    seeds: list[Partition] = []
    seen: set[Partition] = set()

    def add(blocks: Iterable[MixKey]) -> None:
        partition = tuple(sorted(blocks, reverse=True))
        if partition and partition not in seen:
            seen.add(partition)
            seeds.append(partition)

    singles = (
        [(1, 0, 0)] * ncpu + [(0, 1, 0)] * nmem + [(0, 0, 1)] * nio
    )
    add(singles)

    coarse: list[MixKey] = []
    remaining = (ncpu, nmem, nio)
    while remaining != (0, 0, 0):
        block = (
            min(remaining[0], bounds[0]),
            min(remaining[1], bounds[1]),
            min(remaining[2], bounds[2]),
        )
        if block == (0, 0, 0):
            coarse = []
            break
        coarse.append(block)
        remaining = (
            remaining[0] - block[0],
            remaining[1] - block[1],
            remaining[2] - block[2],
        )
    if coarse:
        add(coarse)

    for k in range(2, max(bounds) + 1 if bounds else 2):
        blocks: list[MixKey] = []
        for axis, total in enumerate((ncpu, nmem, nio)):
            size = min(k, bounds[axis])
            if size < 1:
                if total > 0:
                    blocks = []
                    break
                continue
            left = total
            while left > 0:
                chunk = min(size, left)
                block = [0, 0, 0]
                block[axis] = chunk
                blocks.append(tuple(block))
                left -= chunk
        if blocks:
            add(blocks)

    return seeds


def _beam_search(
    counts: MixKey,
    bounds: Bounds,
    config: AnytimeConfig,
    guidance: GuidanceFn,
    consider: Callable[[Partition], None],
    deadline: Deadline,
    result: AnytimeResult,
    rng,
) -> None:
    """Expand canonical partition prefixes level by level, keeping the
    ``beam_width`` most promising per level under the guidance bound."""
    def greedy_complete(prefix: Partition, remaining: MixKey, ceiling: MixKey) -> None:
        """Complete a prefix by repeatedly taking the guidance-best
        block, then evaluate the resulting partition.  Gives every
        surviving beam state a concrete candidate long before the beam
        reaches full depth."""
        while remaining != (0, 0, 0):
            best_block: MixKey | None = None
            best_rest: MixKey | None = None
            best_bound = math.inf
            for block in candidate_blocks(remaining, ceiling, bounds):
                rest = (
                    remaining[0] - block[0],
                    remaining[1] - block[1],
                    remaining[2] - block[2],
                )
                bound = guidance(prefix + (block,), rest)
                if bound is not None and bound < best_bound:
                    best_bound = bound
                    best_block = block
                    best_rest = rest
            if best_block is None:
                return
            prefix = prefix + (best_block,)
            remaining = best_rest
            ceiling = best_block
        consider(prefix)

    # state: (prefix, remaining, ceiling); ceiling starts at counts so
    # the first block is unconstrained, exactly as in type_partitions.
    states: list[tuple[Partition, MixKey, MixKey]] = [((), counts, counts)]
    while states:
        if deadline.expired():
            result.budget_exhausted = True
            return
        result.beam_levels += 1
        scored: list[tuple[float, float, int, tuple[Partition, MixKey, MixKey]]] = []
        order = 0
        for prefix, remaining, ceiling in states:
            for block in candidate_blocks(remaining, ceiling, bounds):
                rest = (
                    remaining[0] - block[0],
                    remaining[1] - block[1],
                    remaining[2] - block[2],
                )
                extended = prefix + (block,)
                if rest == (0, 0, 0):
                    # Canonical complete partition: score it directly.
                    consider(extended)
                    if deadline.expired():
                        result.budget_exhausted = True
                        return
                    continue
                bound = guidance(extended, rest)
                if bound is None:
                    continue  # dead prefix: no feasible completion
                scored.append(
                    (bound, float(rng.random()), order, (extended, rest, block))
                )
                order += 1
        scored.sort(key=lambda item: item[:3])
        states = [item[3] for item in scored[: config.beam_width]]
        for prefix, remaining, ceiling in states:
            if deadline.expired():
                result.budget_exhausted = True
                return
            greedy_complete(prefix, remaining, ceiling)


def _neighbors(partition: Partition, bounds: Bounds) -> list[Partition]:
    """Deterministic split/merge/move neighborhood, canonical + deduped."""
    blocks = list(partition)
    out: list[Partition] = []
    seen: set[Partition] = set()

    def add(candidate: list[MixKey]) -> None:
        canonical = tuple(sorted((b for b in candidate if b != (0, 0, 0)), reverse=True))
        if canonical and canonical != partition and canonical not in seen:
            seen.add(canonical)
            out.append(canonical)

    n = len(blocks)
    # Merges: combine two blocks when the union stays within bounds.
    for i in range(n):
        for j in range(i + 1, n):
            merged = (
                blocks[i][0] + blocks[j][0],
                blocks[i][1] + blocks[j][1],
                blocks[i][2] + blocks[j][2],
            )
            if all(merged[axis] <= bounds[axis] for axis in range(3)):
                add([merged] + [blocks[k] for k in range(n) if k not in (i, j)])
    # Moves: shift one VM of one class from block i to block j.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for axis in range(3):
                if blocks[i][axis] == 0 or blocks[j][axis] + 1 > bounds[axis]:
                    continue
                shrunk = list(blocks[i])
                shrunk[axis] -= 1
                grown = list(blocks[j])
                grown[axis] += 1
                candidate = [
                    blocks[k] for k in range(n) if k not in (i, j)
                ] + [tuple(shrunk), tuple(grown)]
                add(candidate)
    # Swaps: exchange one VM of class a (i -> j) for one of class b
    # (j -> i), a != b -- reachable only through a worse intermediate
    # under single moves, so hill climbing needs it as a primitive.
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(3):
                for b in range(3):
                    if a == b:
                        continue
                    if blocks[i][a] == 0 or blocks[j][b] == 0:
                        continue
                    left = list(blocks[i])
                    right = list(blocks[j])
                    left[a] -= 1
                    right[a] += 1
                    right[b] -= 1
                    left[b] += 1
                    if left[b] > bounds[b] or right[a] > bounds[a]:
                        continue
                    candidate = [
                        blocks[k] for k in range(n) if k not in (i, j)
                    ] + [tuple(left), tuple(right)]
                    add(candidate)
    # Splits: break one block into two non-empty halves (first >= second
    # lexicographically, halving mirror-image duplicates).
    for i in range(n):
        block = blocks[i]
        rest = [blocks[k] for k in range(n) if k != i]
        for c in range(block[0] + 1):
            for m in range(block[1] + 1):
                for io in range(block[2] + 1):
                    first = (c, m, io)
                    second = (
                        block[0] - c,
                        block[1] - m,
                        block[2] - io,
                    )
                    if first == (0, 0, 0) or second == (0, 0, 0):
                        continue
                    if first < second:
                        continue
                    add(rest + [first, second])
    return out


def _local_round(
    incumbent: Partition,
    bounds: Bounds,
    config: AnytimeConfig,
    consider: Callable[[Partition], None],
    deadline: Deadline,
    result: AnytimeResult,
    rng,
) -> None:
    """One refinement round: evaluate up to ``max_neighbors`` unseen
    neighbors of the incumbent in seeded random order."""
    neighbors = _neighbors(incumbent, bounds)
    if not neighbors:
        return
    fresh = 0
    for index in rng.permutation(len(neighbors)):
        if deadline.expired():
            result.budget_exhausted = True
            break
        candidate = neighbors[int(index)]
        if candidate in result.seen:
            continue
        consider(candidate)
        fresh += 1
        if fresh >= config.max_neighbors:
            break


def run_anytime_search(
    counts: MixKey,
    bounds: Bounds,
    config: AnytimeConfig,
    evaluate: EvaluateFn,
    guidance: GuidanceFn,
) -> AnytimeResult:
    """Run seeds -> beam -> local refinement; return the best partition
    found plus effort accounting.

    ``evaluate`` scores a complete canonical partition (lower is
    better) or returns None for infeasible ones; ``guidance`` gives an
    optimistic lower bound for a prefix or None to kill it.  Each
    partition is evaluated at most once.
    """
    result = AnytimeResult()
    if counts == (0, 0, 0):
        result.best_partition = ()
        result.best_score = 0.0
        return result
    # numpy (behind the seed streams) loads with the first search.
    from repro.common.rng import SeedSequenceFactory

    deadline = Deadline(config.time_budget_s)
    factory = SeedSequenceFactory(config.seed)

    def consider(partition: Partition) -> None:
        if partition in result.seen:
            return
        result.seen.add(partition)
        result.evaluated += 1
        score = evaluate(partition)
        if score is None:
            return
        result.scored[partition] = score
        if score < result.best_score - _IMPROVEMENT_EPS:
            result.best_score = score
            result.best_partition = partition
            result.improved += 1

    try:
        for partition in seed_partitions(counts, bounds):
            if deadline.expired():
                result.budget_exhausted = True
                return result
            consider(partition)

        beam_rng = factory.child("allocator.anytime.0")
        _beam_search(
            counts, bounds, config, guidance, consider, deadline, result, beam_rng
        )

        # Best-first refinement: each round expands the neighborhood of
        # the best not-yet-expanded feasible partition.  Plateau
        # tolerant by construction -- when the incumbent's neighborhood
        # is exhausted the next-best candidate is expanded instead, so
        # a single local optimum cannot stall the search; max_rounds
        # and max_neighbors bound the total work deterministically.
        expanded: set[Partition] = set()
        for round_index in range(1, config.max_rounds + 1):
            if result.budget_exhausted or deadline.expired():
                result.budget_exhausted = True
                break
            pick: Partition | None = None
            pick_score = math.inf
            for partition, score in result.scored.items():
                if partition in expanded:
                    continue
                if score < pick_score or (
                    score == pick_score and (pick is None or partition < pick)
                ):
                    pick = partition
                    pick_score = score
            if pick is None:
                break
            expanded.add(pick)
            result.rounds += 1
            round_rng = factory.child(f"allocator.anytime.{round_index}")
            _local_round(pick, bounds, config, consider, deadline, result, round_rng)
    finally:
        result.budget_consumed_s = deadline.consumed_s()
    return result

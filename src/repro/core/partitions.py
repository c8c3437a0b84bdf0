"""Type-partition generation (paper Sect. III-D).

"As the number of partitions of a set might be large, we used the
search algorithm discussed in [21] [M. Orlov, 'Efficient Generation of
Set Partitions', 2002], which is efficient in terms of complexity."

VMs are interchangeable within a workload class, so a partition block
is fully described by its (Ncpu, Nmem, Nio) counts and the search space
collapses from Bell(n) set partitions to the much smaller family of
multiset partitions.  :func:`type_partitions` emits blocks in
non-increasing lexicographic order, which canonicalizes each multiset
of blocks and avoids duplicates.  Per-dimension bounds prune blocks the
model database could not score.  Orlov's set-partition scheme, the
reference the type partitions are checked against, is
``tests/oracles/partitions.py``.

The allocator reads type partitions through
:func:`ordered_type_partitions`, which hands each partition over in
assignment order (largest block first, see :func:`largest_first`).  A
prune-free family depends only on ``(counts, bounds)``, so for batches
of at most :data:`FAMILY_MAX_VMS` VMs it comes from
:func:`partition_family`, a process-wide memo shared by every
allocator: a request-serving allocator sees the same few small mixes
over and over, and enumerates each of them once per process.  The memo
is bounded in entries (:data:`FAMILY_MAX_ENTRIES`, least recently used
evicted) and, through the VM bound, in family size: no mix of at most 8
VMs has more than 300 partitions at any bounds, and the 164 such mixes
hold 9,800 together.  Code that substitutes ``type_partitions`` (a
counting test double, say) must call ``partition_family.cache_clear()``
first, or it sees the families cached before.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from repro.campaign.records import MixKey, total_vms

PrunePredicate = Callable[[Sequence[MixKey], MixKey], bool]


def candidate_blocks(
    remaining: MixKey,
    ceiling: MixKey,
    bounds: tuple[int, int, int] | None,
) -> Iterator[MixKey]:
    """Non-empty blocks <= remaining (component-wise), <= bounds,
    and lexicographically <= ceiling, in descending lex order.

    This is the canonical-order expansion step shared by the exhaustive
    generator, the counting DPs, and the anytime beam search
    (:mod:`repro.core.anytime`): a partition in canonical form is a
    first block ``b`` followed by a canonical partition of the
    remainder with ceiling ``b``.
    """
    max_c = min(remaining[0], ceiling[0], bounds[0] if bounds else remaining[0])
    for c in range(max_c, -1, -1):
        m_hi = min(
            remaining[1],
            bounds[1] if bounds else remaining[1],
        )
        if c == ceiling[0]:
            m_hi = min(m_hi, ceiling[1])
        for m in range(m_hi, -1, -1):
            i_hi = min(
                remaining[2],
                bounds[2] if bounds else remaining[2],
            )
            if c == ceiling[0] and m == ceiling[1]:
                i_hi = min(i_hi, ceiling[2])
            for i in range(i_hi, -1, -1):
                if c + m + i > 0:
                    yield (c, m, i)


def type_partitions(
    counts: MixKey,
    bounds: tuple[int, int, int] | None = None,
    prune: PrunePredicate | None = None,
) -> Iterator[tuple[MixKey, ...]]:
    """Generate all multiset partitions of a typed VM batch.

    Parameters
    ----------
    counts:
        (Ncpu, Nmem, Nio) of the batch to partition.
    bounds:
        Optional per-dimension block bounds (OSC, OSM, OSI): blocks
        exceeding them are pruned during generation, not after -- this
        is the key efficiency win over naive set partitions.
    prune:
        Optional branch-and-bound hook ``prune(prefix, remaining)``
        called after each block is appended to the current prefix,
        with ``remaining`` the counts still to be partitioned.
        Returning True cuts the whole subtree: no partition extending
        ``prefix`` is generated.  ``prefix`` is the generator's live
        working list -- callers must treat it as read-only and must not
        retain it across calls.

    Yields
    ------
    Tuples of block keys in non-increasing lexicographic order (the
    canonical form); every multiset of blocks appears exactly once.

    Notes
    -----
    A batch of (2, 1, 0) yields::

        ((2, 1, 0),)
        ((2, 0, 0), (0, 1, 0))
        ((1, 1, 0), (1, 0, 0))
        ((1, 0, 0), (1, 0, 0), (0, 1, 0))

    which are the 4 distinct ways of grouping two interchangeable
    CPU VMs and one MEM VM, versus Bell(3) = 5 raw set partitions.
    """
    ncpu, nmem, nio = counts
    if min(ncpu, nmem, nio) < 0:
        raise ValueError(f"counts must be non-negative, got {counts}")
    if bounds is not None and min(bounds) < 0:
        raise ValueError(f"bounds must be non-negative, got {bounds}")
    if ncpu + nmem + nio == 0:
        yield ()
        return

    top = (ncpu, nmem, nio)

    def recurse(remaining: MixKey, ceiling: MixKey, prefix: list[MixKey]) -> Iterator[tuple[MixKey, ...]]:
        if remaining == (0, 0, 0):
            yield tuple(prefix)
            return
        for block in candidate_blocks(remaining, ceiling, bounds):
            rest = (
                remaining[0] - block[0],
                remaining[1] - block[1],
                remaining[2] - block[2],
            )
            prefix.append(block)
            if prune is None or not prune(prefix, rest):
                yield from recurse(rest, block, prefix)
            prefix.pop()

    yield from recurse(top, top, [])


#: Prune-free families of batches up to this many VMs are memoized.
#: Branch-and-bound arms at 9 VMs by default, so this covers every
#: batch that enumerates its whole family unpruned, carbon scoring's
#: larger ones excepted: a 9-VM family already has up to 686 partitions.
FAMILY_MAX_VMS = 8

#: Families kept by :func:`partition_family`: every mix of at most
#: :data:`FAMILY_MAX_VMS` VMs (164) under one set of bounds, with room
#: for a second set.
FAMILY_MAX_ENTRIES = 256


def largest_first(partition: Iterable[MixKey]) -> tuple[MixKey, ...]:
    """The blocks of ``partition`` in assignment order: total VMs
    descending, ties kept in enumeration order."""
    return tuple(sorted(partition, key=total_vms, reverse=True))


@lru_cache(maxsize=FAMILY_MAX_ENTRIES)
def partition_family(
    counts: MixKey, bounds: tuple[int, int, int] | None = None
) -> tuple[tuple[MixKey, ...], ...]:
    """Every type partition of a batch of at most
    :data:`FAMILY_MAX_VMS` VMs, in :func:`type_partitions` order, each
    one :func:`largest_first`; memoized per ``(counts, bounds)``."""
    if total_vms(counts) > FAMILY_MAX_VMS:
        raise ValueError(
            f"partition families are kept for at most {FAMILY_MAX_VMS} VMs, got {counts}"
        )
    # Families share block tuples: a block is stored once per family.
    blocks: dict[MixKey, MixKey] = {}
    intern = blocks.setdefault
    return tuple(
        tuple(intern(block, block) for block in largest_first(partition))
        for partition in type_partitions(counts, bounds)
    )


def ordered_type_partitions(
    counts: MixKey,
    bounds: tuple[int, int, int] | None = None,
    prune: PrunePredicate | None = None,
) -> Iterable[tuple[MixKey, ...]]:
    """:func:`type_partitions`, each partition :func:`largest_first`.

    Without a ``prune`` hook a batch of at most :data:`FAMILY_MAX_VMS`
    VMs reads its memoized :func:`partition_family`; otherwise the
    partitions stream from the generator, so a hook still sees every
    prefix as the caller's search state evolves.
    """
    if prune is None and total_vms(counts) <= FAMILY_MAX_VMS:
        return partition_family(counts, bounds)
    return (largest_first(p) for p in type_partitions(counts, bounds, prune=prune))


def count_type_partitions_capped(
    counts: MixKey,
    bounds: tuple[int, int, int] | None = None,
    *,
    cap: int,
    memo: dict[tuple[MixKey, MixKey], int] | None = None,
) -> int:
    """``min(count_type_partitions(counts, bounds), cap)`` without
    paying for the full count.

    The allocator's mode-selection check only needs to know whether the
    partition family is below an exact-affordable threshold; the true
    count at large batches (hundreds of millions) is irrelevant.  This
    DP saturates every subproblem at ``cap``: once a partial sum reaches
    the cap the remaining first blocks are skipped, so work is bounded
    by the threshold rather than the family size.

    Saturation is sound because clamping is superadditive over the
    recurrence: ``sum_i min(c_i, cap) >= min(sum_i c_i, cap)``, so a
    memoized clamped value can only cause the total to saturate, never
    to undercount below the cap.  Whenever the true count is < ``cap``
    no clamping occurs anywhere and the result is exact.

    ``memo`` may be shared across calls with the *same bounds and cap*
    (the allocator keys its shared memo per (bounds, cap) pair) --
    states are keyed (remaining, ceiling) only.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if min(counts) < 0:
        raise ValueError(f"counts must be non-negative, got {counts}")
    if bounds is not None and min(bounds) < 0:
        raise ValueError(f"bounds must be non-negative, got {bounds}")
    top = tuple(counts)
    if memo is None:
        memo = {}

    def count(remaining: MixKey, ceiling: MixKey) -> int:
        if remaining == (0, 0, 0):
            return 1
        state = (remaining, ceiling)
        cached = memo.get(state)
        if cached is not None:
            return cached
        total = 0
        for block in candidate_blocks(remaining, ceiling, bounds):
            rest = (
                remaining[0] - block[0],
                remaining[1] - block[1],
                remaining[2] - block[2],
            )
            total += count(rest, block)
            if total >= cap:
                total = cap
                break
        memo[state] = total
        return total

    return count(top, top)

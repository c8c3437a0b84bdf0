"""Reference partition counts and the paper-literal set-partition enumeration.

"As the number of partitions of a set might be large, we used the
search algorithm discussed in [21] [M. Orlov, 'Efficient Generation of
Set Partitions', 2002]" (Sect. III-D).  :func:`set_partitions` is that
scheme over distinguishable VMs; :func:`bell_number` counts its output.
The allocator enumerates the much smaller family of type partitions
instead (:func:`repro.core.partitions.type_partitions`: VMs of one
class are interchangeable), and the tests check the two against each
other.  :func:`count_type_partitions` counts that family exactly; the
allocator's mode check needs only the saturating
``count_type_partitions_capped``.  The partition tests and the
partition benches use these.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

from repro.campaign.records import MixKey
from repro.core.partitions import candidate_blocks

T = TypeVar("T")


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """Generate all partitions of ``items`` (Orlov's RGS scheme).

    Each partition is a list of non-empty blocks; blocks appear in
    order of their smallest member, members keep input order.  The
    number of partitions is Bell(len(items)) -- callers are expected
    to keep ``items`` small (the paper's allocator operates on burst
    batches of at most ~20 VMs and prunes via the type-aware variant).

    Yields fresh lists; mutating them does not affect iteration.
    """
    n = len(items)
    if n == 0:
        yield []
        return
    # Restricted growth string kappa with running prefix maxima M,
    # per Orlov: M[i] = max(kappa[0..i]).  A digit at position i may
    # grow while kappa[i] <= M[i-1] (it can open at most one new block
    # beyond the prefix's largest block id).
    kappa = [0] * n
    maxima = [0] * n

    def emit() -> list[list[T]]:
        n_blocks = max(kappa) + 1
        blocks: list[list[T]] = [[] for _ in range(n_blocks)]
        for index, block_id in enumerate(kappa):
            blocks[block_id].append(items[index])
        return blocks

    yield emit()
    while True:
        for i in range(n - 1, 0, -1):
            if kappa[i] <= maxima[i - 1]:
                kappa[i] += 1
                maxima[i] = max(maxima[i], kappa[i])
                for j in range(i + 1, n):
                    kappa[j] = 0
                    maxima[j] = maxima[i]
                yield emit()
                break
        else:
            return


def count_type_partitions(counts: MixKey, bounds: tuple[int, int, int] | None = None) -> int:
    """Number of type partitions, by memoized DP (no enumeration).

    A partition in canonical (non-increasing lex) order is a first
    block ``b`` followed by a canonical partition of the remainder with
    ceiling ``b``, so the count satisfies::

        N(remaining, ceiling) = sum over admissible first blocks b of
                                N(remaining - b, b)

    memoized on (remaining, ceiling).  Matches the generator exactly
    (cross-checked in ``tests/core/test_partitions.py``) at a fraction of its cost -- the
    state space is polynomial in the counts while the partition family
    itself grows super-exponentially.
    """
    if min(counts) < 0:
        raise ValueError(f"counts must be non-negative, got {counts}")
    if bounds is not None and min(bounds) < 0:
        raise ValueError(f"bounds must be non-negative, got {bounds}")
    top = tuple(counts)
    memo: dict[tuple[MixKey, MixKey], int] = {}

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
        memo[state] = total
        return total

    return count(top, top)

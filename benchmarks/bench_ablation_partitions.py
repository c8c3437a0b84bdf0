"""Ablation: partition enumeration -- Orlov set partitions vs the
type-aware multiset fast path.

DESIGN.md calls out the type-aware enumeration as the allocator's key
efficiency win: VMs are interchangeable within a class, so the search
space collapses from Bell(n) to the (much smaller) multiset-partition
family.  This bench quantifies the gap on a paper-regime batch (one
burst: 5 jobs x up to 4 VMs).
"""

import pytest

from repro.core.partitions import type_partitions
from tests.oracles.partitions import bell_number, count_type_partitions, set_partitions

#: A large single-burst batch: 12 CPU VMs (bursts share one profile).
BATCH = (12, 0, 0)
BOUNDS = (9, 7, 7)


def test_orlov_set_partitions(benchmark):
    items = list(range(sum(BATCH)))

    def enumerate_all():
        return sum(1 for _ in set_partitions(items))

    count = benchmark.pedantic(enumerate_all, rounds=1, iterations=1)
    print(f"\nOrlov set partitions of {sum(BATCH)} VMs: {count} (Bell number)")
    assert count == bell_number(sum(BATCH))


def test_type_aware_partitions(benchmark):
    count = benchmark(lambda: count_type_partitions(BATCH, BOUNDS))
    print(f"\ntype-aware partitions of {BATCH} under bounds {BOUNDS}: {count}")
    assert count < bell_number(sum(BATCH)) / 1000


def test_collapse_ratio():
    """Document the search-space collapse for the paper's batch sizes."""
    print("\n=== partition search-space collapse (set vs type-aware) ===")
    print(f"{'batch':>12s} {'Bell(n)':>14s} {'type-aware':>12s} {'ratio':>10s}")
    for batch in [(4, 0, 0), (2, 1, 1), (8, 0, 0), (4, 2, 2)]:
        n = sum(batch)
        typed = count_type_partitions(batch, BOUNDS)
        bell = bell_number(n)
        print(f"{str(batch):>12s} {bell:14d} {typed:12d} {bell / typed:10.1f}x")
        assert typed <= bell

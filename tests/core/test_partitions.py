"""Unit tests for partition generation."""

import pytest

from repro.campaign.records import total_vms
from repro.core.partitions import (
    FAMILY_MAX_VMS,
    largest_first,
    ordered_type_partitions,
    partition_family,
    type_partitions,
)
from tests.oracles.partitions import bell_number, count_type_partitions, set_partitions

#: Table I's grid bounds (OSC, OSM, OSI) and two small boxes.
BOXES = [(9, 7, 7), (2, 1, 1), (0, 3, 3)]


def small_mixes(max_vms=FAMILY_MAX_VMS):
    return [
        (c, m, i)
        for c in range(max_vms + 1)
        for m in range(max_vms + 1 - c)
        for i in range(max_vms + 1 - c - m)
        if c + m + i > 0
    ]


class TestBellNumbers:
    def test_known_values(self):
        assert [bell_number(n) for n in range(9)] == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_match_bell(self, n):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell_number(n)

    def test_empty_set(self):
        assert list(set_partitions([])) == [[]]

    def test_singleton(self):
        assert list(set_partitions(["a"])) == [[["a"]]]

    def test_partitions_are_valid(self):
        items = list(range(5))
        for partition in set_partitions(items):
            flat = sorted(x for block in partition for x in block)
            assert flat == items
            assert all(block for block in partition)

    def test_all_distinct(self):
        seen = set()
        for partition in set_partitions(list(range(6))):
            canonical = frozenset(frozenset(b) for b in partition)
            assert canonical not in seen
            seen.add(canonical)

    def test_yields_fresh_lists(self):
        gen = set_partitions([1, 2, 3])
        first = next(gen)
        first[0].append(99)
        second = next(gen)
        assert 99 not in [x for block in second for x in block]


class TestTypePartitions:
    def test_counts_preserved(self):
        for partition in type_partitions((3, 2, 1)):
            sums = [sum(block[i] for block in partition) for i in range(3)]
            assert sums == [3, 2, 1]

    def test_canonical_order(self):
        for partition in type_partitions((3, 2, 1)):
            assert list(partition) == sorted(partition, reverse=True)

    def test_all_distinct(self):
        seen = set()
        for partition in type_partitions((3, 2, 2)):
            assert partition not in seen
            seen.add(partition)

    def test_matches_collapsed_set_partitions(self):
        # Gold standard: collapse raw set partitions of typed items.
        items = ["c"] * 3 + ["m"] * 2 + ["i"]

        def collapse(partition):
            keys = []
            for block in partition:
                keys.append(
                    (
                        sum(1 for x in block if x == "c"),
                        sum(1 for x in block if x == "m"),
                        sum(1 for x in block if x == "i"),
                    )
                )
            return tuple(sorted(keys, reverse=True))

        expected = {collapse(p) for p in set_partitions(items)}
        got = {tuple(sorted(p, reverse=True)) for p in type_partitions((3, 2, 1))}
        assert got == expected

    def test_bounds_prune_blocks(self):
        bounded = list(type_partitions((4, 0, 0), bounds=(2, 0, 0)))
        for partition in bounded:
            assert all(block[0] <= 2 for block in partition)
        # (4,0,0) with max part 2: {4}, {3,1} excluded; {2,2}, {2,1,1},
        # {1,1,1,1} remain.
        assert len(bounded) == 3

    def test_empty_batch(self):
        assert list(type_partitions((0, 0, 0))) == [()]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            list(type_partitions((-1, 0, 0)))

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            list(type_partitions((1, 0, 0), bounds=(-1, 0, 0)))

    def test_count_helper(self):
        assert count_type_partitions((2, 1, 0)) == 4

    def test_much_smaller_than_bell(self):
        # The whole point of the type-aware fast path.
        n_typed = count_type_partitions((4, 3, 3))
        assert n_typed < bell_number(10) / 50


class TestCountTypePartitions:
    """The memoized DP count must agree with generator exhaustion."""

    @pytest.mark.parametrize(
        "counts",
        [(0, 0, 0), (1, 0, 0), (3, 0, 0), (2, 2, 0), (3, 2, 1), (2, 2, 2), (4, 3, 1)],
    )
    def test_matches_generator_unbounded(self, counts):
        assert count_type_partitions(counts) == sum(1 for _ in type_partitions(counts))

    @pytest.mark.parametrize(
        "counts,bounds",
        [
            ((4, 0, 0), (2, 0, 0)),
            ((3, 2, 1), (2, 1, 1)),
            ((2, 2, 2), (1, 1, 1)),
            ((5, 3, 0), (3, 2, 2)),
        ],
    )
    def test_matches_generator_bounded(self, counts, bounds):
        assert count_type_partitions(counts, bounds) == sum(
            1 for _ in type_partitions(counts, bounds)
        )

    def test_infeasible_bounds_count_zero(self):
        # A class with demand but zero per-block headroom: no partition.
        assert count_type_partitions((1, 0, 0), bounds=(0, 2, 2)) == 0
        assert list(type_partitions((1, 0, 0), bounds=(0, 2, 2))) == []

    def test_large_count_is_fast(self):
        # 12.5M partitions counted in well under a second -- far beyond
        # what generator exhaustion could enumerate in test time.
        assert count_type_partitions((9, 7, 7)) == 12_569_747

    def test_validation_matches_generator(self):
        with pytest.raises(ValueError):
            count_type_partitions((-1, 0, 0))
        with pytest.raises(ValueError):
            count_type_partitions((1, 0, 0), bounds=(-1, 0, 0))


class TestPruneCallback:
    def test_none_prune_is_default(self):
        assert list(type_partitions((2, 1, 0), prune=None)) == list(
            type_partitions((2, 1, 0))
        )

    def test_prune_sees_prefix_and_remaining(self):
        seen = []

        def prune(prefix, remaining):
            seen.append((tuple(prefix), remaining))
            return False

        list(type_partitions((2, 0, 0), prune=prune))
        # Every call's prefix blocks plus remaining must sum to the batch.
        for prefix, remaining in seen:
            totals = [
                sum(block[d] for block in prefix) + remaining[d] for d in range(3)
            ]
            assert totals == [2, 0, 0]

    def test_prune_cuts_subtrees(self):
        # Refusing any prefix starting with the (2,0,0) block removes
        # exactly the {2} partition of (2,0,0), keeping {1,1}.
        kept = list(
            type_partitions((2, 0, 0), prune=lambda prefix, _rest: prefix[-1][0] == 2)
        )
        assert kept == [((1, 0, 0), (1, 0, 0))]

    def test_prune_everything_yields_nothing(self):
        assert list(type_partitions((3, 2, 1), prune=lambda *_: True)) == []


class TestPartitionFamilies:
    @pytest.mark.parametrize("bounds", BOXES)
    def test_family_is_type_partitions_largest_block_first(self, bounds):
        for counts in small_mixes():
            expected = tuple(
                tuple(sorted(p, key=total_vms, reverse=True))
                for p in type_partitions(counts, bounds)
            )
            assert partition_family(counts, bounds) == expected, counts

    def test_largest_first_is_stable(self):
        # Equal-size blocks keep their canonical (enumeration) order.
        partition = ((1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 1))
        assert largest_first(partition) == ((0, 2, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1))

    def test_family_sizes_are_bounded(self):
        # The memory bound the module docstring states: no family of at
        # most FAMILY_MAX_VMS VMs exceeds 300 partitions at any bounds,
        # and all of them together hold 9,800.
        sizes = [count_type_partitions(counts) for counts in small_mixes()]
        assert len(sizes) == 164
        assert max(sizes) == 300
        assert sum(sizes) == 9_800

    def test_larger_batches_are_not_kept(self):
        with pytest.raises(ValueError, match="at most 8 VMs"):
            partition_family((3, 3, 3), (9, 7, 7))

    def test_ordered_partitions_read_the_memo_without_prune(self):
        family = partition_family((2, 1, 1), (9, 7, 7))
        assert ordered_type_partitions((2, 1, 1), (9, 7, 7)) is family

    def test_ordered_partitions_stream_with_prune_or_above_the_bound(self):
        pruned = ordered_type_partitions((2, 1, 1), (9, 7, 7), prune=lambda *_: False)
        assert tuple(pruned) == partition_family((2, 1, 1), (9, 7, 7))
        large = ordered_type_partitions((3, 3, 3), (9, 7, 7))
        assert list(large) == [
            largest_first(p) for p in type_partitions((3, 3, 3), (9, 7, 7))
        ]

    def test_memo_counts_one_enumeration_per_key(self, type_partitions_calls):
        for _ in range(3):
            partition_family((1, 2, 0), (9, 7, 7))
        partition_family((1, 2, 0), (2, 1, 1))
        assert type_partitions_calls == [((1, 2, 0), (9, 7, 7)), ((1, 2, 0), (2, 1, 1))]

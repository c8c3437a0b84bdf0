"""Property-based tests for partition generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import type_partitions
from tests.oracles.partitions import bell_number, set_partitions


@st.composite
def small_counts(draw):
    return (
        draw(st.integers(min_value=0, max_value=4)),
        draw(st.integers(min_value=0, max_value=3)),
        draw(st.integers(min_value=0, max_value=3)),
    )


class TestSetPartitionProperties:
    @given(st.integers(min_value=0, max_value=7))
    def test_count_is_bell_number(self, n):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell_number(n)

    @given(st.lists(st.integers(), min_size=0, max_size=6, unique=True))
    def test_every_partition_is_exact_cover(self, items):
        for partition in set_partitions(items):
            flat = [x for block in partition for x in block]
            assert sorted(flat) == sorted(items)
            assert all(block for block in partition)

    @given(st.integers(min_value=1, max_value=6))
    def test_first_is_single_block_last_is_singletons(self, n):
        partitions = list(set_partitions(list(range(n))))
        assert len(partitions[0]) == 1  # all items together
        assert len(partitions[-1]) == n  # all singletons


class TestTypePartitionProperties:
    @given(small_counts())
    @settings(max_examples=40)
    def test_blocks_sum_to_counts(self, counts):
        for partition in type_partitions(counts):
            for dim in range(3):
                assert sum(block[dim] for block in partition) == counts[dim]

    @given(small_counts())
    @settings(max_examples=40)
    def test_canonical_and_unique(self, counts):
        seen = set()
        for partition in type_partitions(counts):
            assert list(partition) == sorted(partition, reverse=True)
            assert partition not in seen
            seen.add(partition)

    @given(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_collapsed_set_partitions(self, counts):
        items = ["c"] * counts[0] + ["m"] * counts[1] + ["i"] * counts[2]

        def collapse(partition):
            keys = [
                (
                    sum(1 for x in block if x == "c"),
                    sum(1 for x in block if x == "m"),
                    sum(1 for x in block if x == "i"),
                )
                for block in partition
            ]
            return tuple(sorted(keys, reverse=True))

        expected = {collapse(p) for p in set_partitions(items)}
        got = set(type_partitions(counts))
        assert got == expected

    @given(small_counts(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_bounds_are_respected_and_complete(self, counts, bound):
        bounds = (bound, bound, bound)
        bounded = set(type_partitions(counts, bounds))
        unbounded = set(type_partitions(counts))
        filtered = {
            p
            for p in unbounded
            if all(b[0] <= bound and b[1] <= bound and b[2] <= bound for b in p)
        }
        assert bounded == filtered

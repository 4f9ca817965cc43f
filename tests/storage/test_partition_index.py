"""Tests for the shallow partition index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.partition_index import PartitionIndex


@pytest.fixture
def index():
    idx = PartitionIndex()
    idx.rebuild([10, 20, 30, 40, 50])
    return idx


class TestLocate:
    def test_exact_fence_value(self, index):
        assert index.locate(20) == 1

    def test_value_between_fences(self, index):
        assert index.locate(25) == 2

    def test_value_below_all(self, index):
        assert index.locate(-5) == 0

    def test_value_above_all_routes_to_last(self, index):
        assert index.locate(1000) == 4

    def test_empty_index_raises(self):
        with pytest.raises(IndexError):
            PartitionIndex().locate(1)


class TestLocateRange:
    def test_range_within_one_partition(self, index):
        assert index.locate_range(21, 25) == (2, 2)

    def test_range_spanning_partitions(self, index):
        assert index.locate_range(15, 45) == (1, 4)

    def test_range_beyond_domain(self, index):
        assert index.locate_range(100, 200) == (4, 4)

    def test_invalid_range(self, index):
        with pytest.raises(ValueError):
            index.locate_range(5, 1)


class TestDuplicateFences:
    """Equal neighbouring fences mark duplicate runs spanning partitions."""

    @pytest.fixture
    def dup_index(self):
        idx = PartitionIndex()
        idx.rebuild([5, 5, 5, 9, 12])
        return idx

    def test_locate_returns_first_candidate(self, dup_index):
        assert dup_index.locate(5) == 0

    def test_locate_all_spans_equal_fence_run_and_successor(self, dup_index):
        # Partitions 0-2 share the fence; partition 3 may start with the same
        # value when the run straddles the boundary.
        assert dup_index.locate_all(5) == (0, 3)

    def test_locate_all_single_partition_between_fences(self, dup_index):
        assert dup_index.locate_all(7) == (3, 3)

    def test_locate_all_on_last_fence(self, dup_index):
        assert dup_index.locate_all(12) == (4, 4)

    def test_locate_all_beyond_domain(self, dup_index):
        assert dup_index.locate_all(100) == (4, 4)

    def test_locate_range_high_on_equal_fences_spans_full_run(self, dup_index):
        # side="left" on the high fence used to stop at partition 0,
        # under-spanning the duplicate run.
        assert dup_index.locate_range(5, 5) == (0, 3)

    def test_locate_range_high_on_unique_fence_includes_successor(self):
        idx = PartitionIndex()
        idx.rebuild([10, 20, 30])
        assert idx.locate_range(15, 20) == (1, 2)

    def test_locate_range_strictly_between_fences_is_tight(self, dup_index):
        assert dup_index.locate_range(6, 8) == (3, 3)

    def test_locate_batch_matches_locate_all(self, dup_index):
        values = np.asarray([-1, 5, 6, 9, 10, 12, 50])
        first, last = dup_index.locate_batch(values)
        for i, value in enumerate(values):
            assert (int(first[i]), int(last[i])) == dup_index.locate_all(int(value))

    def test_locate_batch_empty_index_raises(self):
        with pytest.raises(IndexError):
            PartitionIndex().locate_batch(np.asarray([1]))


class TestStructure:
    def test_rebuild_requires_monotone_fences(self):
        index = PartitionIndex()
        with pytest.raises(ValueError):
            index.rebuild([3, 2, 5])

    def test_update_fence(self, index):
        index.update_fence(4, 99)
        assert index.locate(75) == 4

    def test_len(self, index):
        assert len(index) == 5

    def test_locate_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        fences = np.sort(rng.integers(0, 10_000, 50))
        index = PartitionIndex()
        index.rebuild(fences)
        for value in rng.integers(-10, 11_000, 200):
            expected = int(np.searchsorted(fences, value, side="left"))
            expected = min(expected, len(fences) - 1)
            assert index.locate(int(value)) == expected


class TestNegativeKeys:
    def test_negative_fence_before_the_int64_max_last_fence(self):
        index = PartitionIndex()
        index.rebuild([-5, -1, np.iinfo(np.int64).max])
        assert index.locate(-3) == 1
        with pytest.raises(ValueError):
            index.rebuild([-1, -5])

    def test_table_over_negative_keys_takes_bulk_inserts(self):
        from repro.storage.layouts import LayoutKind, LayoutSpec
        from repro.storage.table import Table, layout_chunk_builder

        spec = LayoutSpec(kind=LayoutKind.STATE_OF_ART, block_values=2)
        table = Table([0], chunk_size=2, chunk_builder=layout_chunk_builder(spec))
        table.bulk_insert([-1, -1])
        assert sorted(table.keys().tolist()) == [-1, -1, 0]
        table.check_invariants()

"""Tests for the partitioned column chunk (ripples, ghosts, invariants)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.column import (
    PartitionedColumn,
    equal_width_boundaries,
    snap_boundaries_to_duplicates,
)
from repro.storage.cost_accounting import AccessCounter
from repro.storage.errors import LayoutError, ValueNotFoundError
from repro.storage.ghost_values import spread_evenly


def build_column(values, partitions=8, block_values=64, ghosts=0, **kwargs):
    values = np.asarray(values, dtype=np.int64)
    boundaries = equal_width_boundaries(values.size, partitions)
    ghost_allocation = None
    if ghosts:
        ghost_allocation = spread_evenly(ghosts, boundaries.shape[0])
    return PartitionedColumn(
        values,
        boundaries,
        block_values=block_values,
        ghost_allocation=ghost_allocation,
        dense=ghost_allocation is None,
        **kwargs,
    )


class TestConstruction:
    def test_single_partition_by_default(self, small_values):
        column = PartitionedColumn(small_values)
        assert column.num_partitions == 1
        assert column.size == small_values.size

    def test_partition_counts_sum_to_size(self, small_values):
        column = build_column(small_values, partitions=8)
        assert column.partition_counts().sum() == small_values.size

    def test_rejects_unsorted_input(self):
        with pytest.raises(LayoutError):
            PartitionedColumn(np.array([3, 1, 2]))

    def test_rejects_bad_block_size(self, small_values):
        with pytest.raises(LayoutError):
            PartitionedColumn(small_values, block_values=0)

    def test_rejects_mismatched_ghost_allocation(self, small_values):
        boundaries = equal_width_boundaries(small_values.size, 4)
        with pytest.raises(LayoutError):
            PartitionedColumn(small_values, boundaries, ghost_allocation=[1, 2])

    def test_ghost_allocation_reflected_in_capacity(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=40)
        assert column.physical_size == small_values.size + 40
        assert column.ghost_counts().sum() == 40

    def test_memory_amplification(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=small_values.size // 10)
        assert column.memory_amplification == pytest.approx(1.1, abs=0.01)

    def test_empty_column(self):
        column = PartitionedColumn(np.empty(0, dtype=np.int64))
        assert column.size == 0
        rowid = column.insert(42)
        assert rowid == 0
        assert column.size == 1

    def test_values_materialization_preserves_multiset(self, medium_values):
        column = build_column(medium_values, partitions=16)
        assert np.array_equal(np.sort(column.values()), np.sort(medium_values))

    def test_duplicates_stay_in_one_partition(self):
        values = np.asarray([1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3], dtype=np.int64)
        boundaries = snap_boundaries_to_duplicates(values, [3, 6, 9, 12])
        column = PartitionedColumn(values, boundaries)
        for meta in column.partition_metadata():
            if meta.count == 0:
                continue
        # A point query for any duplicated value returns every occurrence.
        assert column.point_query(2).shape[0] == 6

    def test_partition_metadata_bounds(self, small_values):
        column = build_column(small_values, partitions=4)
        metadata = column.partition_metadata()
        assert len(metadata) == 4
        for first, second in zip(metadata, metadata[1:]):
            assert first.high <= second.low


class TestSnapBoundaries:
    def test_snapping_moves_boundary_past_duplicates(self):
        values = np.asarray([1, 2, 2, 2, 3, 4])
        snapped = snap_boundaries_to_duplicates(values, [2, 6])
        assert snapped.tolist() == [4, 6]

    def test_snapping_drops_collapsed_boundaries(self):
        values = np.asarray([5] * 10)
        snapped = snap_boundaries_to_duplicates(values, [2, 5, 10])
        assert snapped.tolist() == [10]

    def test_snapping_requires_valid_range(self):
        with pytest.raises(LayoutError):
            snap_boundaries_to_duplicates(np.asarray([1, 2]), [5])

    def test_final_boundary_always_present(self):
        values = np.arange(10)
        snapped = snap_boundaries_to_duplicates(values, [4])
        assert snapped[-1] == 10


class TestEqualWidthBoundaries:
    def test_number_of_partitions(self):
        boundaries = equal_width_boundaries(100, 4)
        assert boundaries.shape[0] == 4
        assert boundaries[-1] == 100

    def test_more_partitions_than_values(self):
        boundaries = equal_width_boundaries(3, 10)
        assert boundaries[-1] == 3
        assert np.all(np.diff(boundaries) > 0)

    def test_invalid_partition_count(self):
        with pytest.raises(LayoutError):
            equal_width_boundaries(100, 0)


class TestPointQuery:
    def test_finds_existing_value(self, small_values):
        column = build_column(small_values, partitions=8)
        positions = column.point_query(int(small_values[100]))
        assert positions.shape[0] == 1

    def test_missing_value_returns_empty(self, small_values):
        column = build_column(small_values, partitions=8)
        assert column.point_query(int(small_values[10]) + 1).shape[0] == 0

    def test_returns_rowids(self, small_values):
        column = build_column(small_values, partitions=8)
        rowids = column.point_query(int(small_values[5]), return_rowids=True)
        assert rowids.tolist() == [5]

    def test_returns_caller_supplied_rowids(self, small_values):
        rowids = np.arange(small_values.size, dtype=np.int64)[::-1] * 3
        column = build_column(small_values, partitions=8, rowids=rowids)
        found = column.point_query(int(small_values[5]), return_rowids=True)
        assert found.tolist() == [int(rowids[5])]

    def test_charges_one_index_probe_at_any_partition_count(self, small_values):
        # The partition index is charged one probe per lookup, however many
        # partitions it routes between.
        for partitions in (1, 4, 64):
            column = build_column(small_values, partitions=partitions)
            column.counter.reset()
            column.point_query(int(small_values[-1]))
            assert column.counter.index_probes == 1

    def test_charges_one_random_read_for_single_block_partition(self, small_values):
        column = build_column(small_values, partitions=32, block_values=64)
        column.counter.reset()
        column.point_query(int(small_values[0]))
        assert column.counter.random_reads == 1
        assert column.counter.seq_reads == 0

    def test_charges_sequential_reads_for_wide_partition(self, small_values):
        column = build_column(small_values, partitions=1, block_values=64)
        column.counter.reset()
        column.point_query(int(small_values[0]))
        assert column.counter.random_reads == 1
        assert column.counter.seq_reads == small_values.size // 64 - 1


class TestRangeQuery:
    def test_counts_inclusive_range(self, small_values):
        column = build_column(small_values, partitions=8)
        result = column.range_query(int(small_values[10]), int(small_values[20]))
        assert result.count == 11

    def test_matches_numpy_reference(self, medium_values, rng):
        column = build_column(medium_values, partitions=16)
        for _ in range(20):
            low, high = sorted(rng.integers(0, int(medium_values[-1]), 2).tolist())
            expected = int(((medium_values >= low) & (medium_values <= high)).sum())
            assert column.range_query(low, high).count == expected

    def test_invalid_range_raises(self, small_values):
        column = build_column(small_values)
        with pytest.raises(ValueError):
            column.range_query(10, 5)

    def test_materialized_values_are_in_range(self, medium_values):
        column = build_column(medium_values, partitions=16)
        low, high = int(medium_values[100]), int(medium_values[4_000])
        result = column.range_query(low, high, materialize=True)
        assert result.values is not None
        assert np.all((result.values >= low) & (result.values <= high))

    def test_count_only_mode_skips_materialization(self, medium_values):
        column = build_column(medium_values, partitions=16)
        result = column.range_query(0, int(medium_values[-1]), materialize=False)
        assert result.positions is None
        assert result.count == medium_values.size

    def test_middle_partitions_charged_sequentially(self, small_values):
        column = build_column(small_values, partitions=8, block_values=64)
        column.counter.reset()
        column.range_query(int(small_values[0]), int(small_values[-1]))
        assert column.counter.random_reads == 1
        assert column.counter.seq_reads >= 7

    def test_range_rowids(self, small_values):
        column = build_column(small_values, partitions=8)
        rowids = column.range_rowids(int(small_values[3]), int(small_values[7]))
        assert sorted(rowids.tolist()) == [3, 4, 5, 6, 7]


class TestInsert:
    def test_insert_into_dense_column_grows(self, small_values):
        column = build_column(small_values, partitions=4)
        size_before = column.size
        column.insert(int(small_values[50]) + 1)
        assert column.size == size_before + 1
        column.check_invariants()

    def test_insert_lands_in_correct_partition(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=100)
        value = int(small_values[small_values.size // 2]) + 1
        column.insert(value)
        assert column.point_query(value).shape[0] == 1
        column.check_invariants()

    def test_insert_with_local_ghost_slot_is_cheap(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=80)
        column.counter.reset()
        column.insert(int(small_values[10]) + 1)
        # One read/write pair: no rippling thanks to the local ghost slot.
        assert column.counter.random_reads == 1
        assert column.counter.random_writes == 1

    def test_insert_without_ghosts_ripples(self, small_values):
        column = build_column(small_values, partitions=8)
        column.counter.reset()
        column.insert(int(small_values[10]) + 1)
        # Rippling touches one block per trailing partition.
        assert column.counter.random_writes > 1
        column.check_invariants()

    def test_insert_beyond_max_goes_to_last_partition(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=40)
        value = int(small_values[-1]) + 100
        column.insert(value)
        metadata = column.partition_metadata()
        assert metadata[-1].high == value

    def test_insert_returns_sequential_rowids(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=16)
        first = column.insert(int(small_values[4]) + 1)
        second = column.insert(int(small_values[8]) + 1)
        assert second == first + 1

    def test_many_inserts_preserve_multiset(self, small_values, rng):
        column = build_column(small_values, partitions=8, ghosts=64)
        inserted = []
        for _ in range(200):
            value = int(rng.integers(0, int(small_values[-1]) + 10)) | 1
            column.insert(value)
            inserted.append(value)
        expected = np.sort(np.concatenate((small_values, np.asarray(inserted))))
        assert np.array_equal(np.sort(column.values()), expected)
        column.check_invariants()


class TestDelete:
    def test_delete_removes_value(self, small_values):
        column = build_column(small_values, partitions=8)
        column.delete(int(small_values[17]))
        assert column.point_query(int(small_values[17])).shape[0] == 0
        assert column.size == small_values.size - 1
        column.check_invariants()

    def test_remove_one_takes_the_oldest_duplicate_copy(self):
        column = PartitionedColumn(
            np.array([1, 7, 7, 7, 9]), rowids=np.array([0, 30, 10, 20, 4])
        )
        assert [column.remove_one(7) for _ in range(3)] == [10, 20, 30]
        assert column.values().tolist() == [1, 9]
        column.check_invariants()

    def test_delete_missing_value_raises(self, small_values):
        column = build_column(small_values, partitions=8)
        with pytest.raises(ValueNotFoundError):
            column.delete(int(small_values[17]) + 1)

    def test_delete_in_ghost_mode_creates_slack(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=8)
        slack_before = column.ghost_counts().sum()
        column.delete(int(small_values[100]))
        assert column.ghost_counts().sum() == slack_before + 1
        column.check_invariants()

    def test_delete_in_dense_mode_ripples_hole_to_end(self, small_values):
        column = build_column(small_values, partitions=8)
        column.delete(int(small_values[0]))
        ghosts = column.ghost_counts()
        assert ghosts[:-1].sum() == 0
        assert ghosts[-1] == 1
        column.check_invariants()

    def test_delete_then_insert_reuses_slack(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=8)
        column.delete(int(small_values[100]))
        column.counter.reset()
        column.insert(int(small_values[100]) | 1)
        assert column.counter.random_writes == 1
        column.check_invariants()


class TestUpdate:
    def test_update_moves_value(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=16)
        old = int(small_values[10])
        new = int(small_values[1_000]) + 1
        column.update(old, new)
        assert column.point_query(old).shape[0] == 0
        assert column.point_query(new).shape[0] == 1
        assert column.size == small_values.size
        column.check_invariants()

    def test_update_backward(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=16)
        old = int(small_values[1_000])
        new = int(small_values[10]) + 1
        column.update(old, new)
        assert column.point_query(new).shape[0] == 1
        column.check_invariants()

    def test_update_within_same_partition(self, small_values):
        column = build_column(small_values, partitions=4, ghosts=16)
        old = int(small_values[10])
        new = old + 1
        column.update(old, new)
        assert column.point_query(new).shape[0] == 1
        column.check_invariants()

    def test_update_missing_value_raises(self, small_values):
        column = build_column(small_values, partitions=4)
        with pytest.raises(ValueNotFoundError):
            column.update(int(small_values[0]) + 1, 10)

    def test_update_preserves_rowid(self, small_values):
        column = build_column(small_values, partitions=8, ghosts=16)
        old = int(small_values[42])
        new = int(small_values[-1]) + 1
        column.update(old, new)
        assert column.point_query(new, return_rowids=True).tolist() == [42]

    def test_dense_update_ripples(self, small_values):
        column = build_column(small_values, partitions=8)
        old = int(small_values[10])
        new = int(small_values[-1]) + 1
        column.counter.reset()
        column.update(old, new)
        assert column.counter.random_writes > 2
        column.check_invariants()


class TestFullScan:
    def test_full_scan_returns_all_values(self, small_values):
        column = build_column(small_values, partitions=8)
        assert np.array_equal(np.sort(column.full_scan()), small_values)

    def test_full_scan_charges_sequential_reads(self, small_values):
        column = build_column(small_values, partitions=8, block_values=64)
        column.counter.reset()
        column.full_scan()
        assert column.counter.seq_reads == small_values.size // 64


class TestSharedCounter:
    def test_external_counter_is_used(self, small_values):
        counter = AccessCounter()
        column = build_column(small_values, partitions=8, counter=counter)
        column.point_query(int(small_values[0]))
        assert counter.total_blocks > 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    partitions=st.integers(1, 12),
    ghosts=st.integers(0, 64),
    operations=st.integers(5, 60),
)
def test_random_operation_sequences_preserve_integrity(seed, partitions, ghosts, operations):
    """Property test: any operation sequence preserves the column's invariants
    and its live multiset matches a plain Python reference implementation."""
    rng = np.random.default_rng(seed)
    base = np.sort(rng.integers(0, 5_000, 300)) * 2
    column = build_column(base, partitions=partitions, ghosts=ghosts, block_values=32)
    reference = sorted(base.tolist())
    for _ in range(operations):
        action = rng.integers(0, 4)
        if action == 0:  # insert
            value = int(rng.integers(0, 10_000)) | 1
            column.insert(value)
            reference.append(value)
        elif action == 1 and reference:  # delete existing
            victim = reference[int(rng.integers(0, len(reference)))]
            deleted = column.delete(int(victim))
            assert deleted == 1
            reference.remove(victim)
        elif action == 2 and reference:  # update existing
            victim = reference[int(rng.integers(0, len(reference)))]
            new_value = int(rng.integers(0, 10_000)) | 1
            column.update(int(victim), new_value)
            reference.remove(victim)
            reference.append(new_value)
        else:  # point query of an arbitrary value
            probe = int(rng.integers(0, 10_000))
            expected = reference.count(probe)
            assert column.point_query(probe).shape[0] == expected
    column.check_invariants()
    assert sorted(column.values().tolist()) == sorted(reference)

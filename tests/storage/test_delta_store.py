"""Tests for the delta-store (state-of-the-art comparator) column."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.delta_store import DeltaStoreColumn
from repro.storage.errors import ValueNotFoundError


@pytest.fixture
def column(small_values):
    return DeltaStoreColumn(small_values, block_values=64, merge_threshold=0.05)


class TestReads:
    def test_point_query_hits_main(self, column, small_values):
        assert column.point_query(int(small_values[7])).shape[0] == 1

    def test_point_query_hits_delta(self, column, small_values):
        value = int(small_values[-1]) + 3
        column.insert(value)
        assert column.point_query(value).shape[0] == 1

    def test_range_query_combines_main_and_delta(self, column, small_values):
        low, high = int(small_values[10]), int(small_values[20])
        baseline = column.range_query(low, high).count
        column.insert(low + 1)
        assert column.range_query(low, high).count == baseline + 1

    def test_range_query_respects_tombstones(self, column, small_values):
        low, high = int(small_values[10]), int(small_values[20])
        baseline = column.range_query(low, high).count
        column.delete(int(small_values[15]))
        assert column.range_query(low, high).count == baseline - 1

    def test_range_rowids(self, small_values):
        column = DeltaStoreColumn(small_values, block_values=64)
        rowids = column.range_rowids(int(small_values[3]), int(small_values[5]))
        assert sorted(rowids.tolist()) == [3, 4, 5]


class TestWrites:
    def test_insert_goes_to_delta(self, column):
        column.insert(99999)
        assert column.delta_size == 1

    def test_insert_charges_single_write(self, column):
        column.counter.reset()
        column.insert(99999)
        assert column.counter.random_writes == 1

    def test_delete_from_delta(self, column):
        column.insert(99999)
        column.delete(99999)
        assert column.point_query(99999).shape[0] == 0

    def test_delete_from_main_uses_tombstone(self, column, small_values):
        size_before = column.size
        column.delete(int(small_values[3]))
        assert column.size == size_before - 1
        assert column.point_query(int(small_values[3])).shape[0] == 0

    def test_delete_missing_raises(self, column, small_values):
        with pytest.raises(ValueNotFoundError):
            column.delete(int(small_values[3]) + 1)

    def test_update_moves_value(self, column, small_values):
        old = int(small_values[9])
        column.update(old, 77777)
        assert column.point_query(old).shape[0] == 0
        assert column.point_query(77777).shape[0] == 1

    def test_size_accounts_for_delta_and_tombstones(self, column, small_values):
        base = column.size
        column.insert(11111)
        column.delete(int(small_values[0]))
        assert column.size == base


class TestMerge:
    def test_merge_triggered_by_threshold(self, small_values):
        column = DeltaStoreColumn(small_values, block_values=64, merge_threshold=0.01)
        threshold = max(1, int(0.01 * small_values.size))
        for i in range(threshold + 1):
            column.insert(200_001 + 2 * i)
        assert column.merges >= 1
        assert column.delta_size < threshold

    def test_merge_preserves_values(self, small_values):
        column = DeltaStoreColumn(small_values, block_values=64, merge_threshold=0.5)
        inserted = [300_001, 300_003, 300_005]
        for value in inserted:
            column.insert(value)
        column.delete(int(small_values[0]))
        column.merge()
        expected = sorted(small_values.tolist()[1:] + inserted)
        assert sorted(column.values().tolist()) == expected
        column.check_invariants()

    def test_merge_charges_full_rewrite(self, small_values):
        column = DeltaStoreColumn(small_values, block_values=64, merge_threshold=0.5)
        column.insert(1)
        column.counter.reset()
        column.merge()
        assert column.counter.seq_reads > 0
        assert column.counter.seq_writes > 0

    def test_merge_preserves_rowids(self, small_values):
        column = DeltaStoreColumn(
            small_values, block_values=64, merge_threshold=0.5
        )
        column.insert(400_001)
        column.merge()
        rowids = column.point_query(400_001, return_rowids=True)
        assert rowids.tolist() == [small_values.size]

    def test_memory_amplification_accounts_for_tombstones(self, column, small_values):
        # Tombstoned main-resident rows keep their physical slot but are no
        # longer live, so memory amplification rises above 1.
        for i in range(10):
            column.delete(int(small_values[i]))
        assert column.memory_amplification > 1.0

"""Tests for the multi-column table and the storage-engine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.engine import StorageEngine
from repro.storage.errors import LayoutError, ValueNotFoundError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder, require_key
from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    PointQuery,
    RangeQuery,
    Update,
)


def make_table(num_rows=2_048, payload_columns=3, chunk_size=None, layout=LayoutKind.EQUI):
    keys = np.arange(num_rows, dtype=np.int64) * 2
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 1_000, size=(num_rows, payload_columns))
    spec = LayoutSpec(kind=layout, partitions=8, block_values=64)
    return Table(
        keys,
        payload,
        chunk_size=chunk_size or num_rows,
        chunk_builder=layout_chunk_builder(spec),
        block_values=64,
    )


class TestTableConstruction:
    def test_row_and_chunk_counts(self):
        table = make_table(num_rows=2_048, chunk_size=512)
        assert table.num_rows == 2_048
        assert table.num_chunks == 4

    def test_payload_names_default(self):
        table = make_table(payload_columns=3)
        assert table.payload_names == ["a1", "a2", "a3"]

    def test_payload_shape_validation(self):
        keys = np.arange(10)
        with pytest.raises(LayoutError):
            Table(keys, np.zeros((5, 2)))

    def test_invalid_chunk_size(self):
        with pytest.raises(LayoutError):
            Table(np.arange(10), chunk_size=0)

    def test_keys_materialization(self):
        table = make_table(num_rows=512)
        assert np.array_equal(np.sort(table.keys()), np.arange(512) * 2)


class TestTableOperations:
    def test_point_query_returns_payload(self):
        table = make_table()
        rows = table.point_query(20, columns=["a1", "a2"])
        row = require_key(rows, 20)
        assert set(row.payload) == {"a1", "a2"}
        assert row.rowid == 10

    def test_point_query_unknown_column(self):
        table = make_table()
        with pytest.raises(LayoutError):
            table.point_query(20, columns=["nope"])

    def test_range_count_matches_reference(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        assert table.range_count(100, 300) == 101

    def test_range_sum_matches_reference(self):
        table = make_table(num_rows=1_024)
        keys = np.arange(1_024) * 2
        rng = np.random.default_rng(1)
        payload = rng.integers(0, 1_000, size=(1_024, 3))
        mask = (keys >= 100) & (keys <= 500)
        expected = int(payload[mask][:, 0].sum())
        assert table.range_sum(100, 500, columns=["a1"]) == expected

    def test_insert_then_query(self):
        table = make_table()
        rowid = table.insert(333, payload=[7, 8, 9])
        rows = table.point_query(333)
        assert rows[0].rowid == rowid
        assert rows[0].payload["a3"] == 9

    def test_delete_removes_row(self):
        table = make_table()
        assert table.delete(40) == 1
        assert table.point_query(40) == []
        assert table.num_rows == 2_047

    def test_delete_missing_raises(self):
        table = make_table()
        with pytest.raises(ValueNotFoundError):
            table.delete(41)

    def test_update_key_same_chunk(self):
        table = make_table()
        table.update_key(40, 41)
        assert table.point_query(40) == []
        assert len(table.point_query(41)) == 1

    def test_update_key_across_chunks(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        old_key, new_key = 10, 2_001
        payload_before = table.point_query(old_key)[0].payload
        table.update_key(old_key, new_key)
        rows = table.point_query(new_key)
        assert len(rows) == 1
        assert rows[0].payload == payload_before

    def test_scan_returns_all_keys(self):
        table = make_table(num_rows=512, chunk_size=128)
        assert np.array_equal(np.sort(table.scan()), np.arange(512) * 2)

    def test_require_key_raises_for_missing(self):
        with pytest.raises(ValueNotFoundError):
            require_key([], 5)

    def test_chunk_routing_of_inserts(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        table.insert(3)  # belongs to the first chunk's range
        table.insert(10_001)  # beyond every chunk -> last chunk
        assert len(table.point_query(3)) == 1
        assert len(table.point_query(10_001)) == 1
        table.check_invariants()

    @pytest.mark.parametrize(
        "layout",
        [LayoutKind.NO_ORDER, LayoutKind.SORTED, LayoutKind.STATE_OF_ART, LayoutKind.EQUI_GV],
    )
    def test_operations_across_layouts(self, layout):
        table = make_table(num_rows=512, layout=layout)
        assert len(table.point_query(100)) == 1
        assert table.range_count(0, 200) == 101
        table.insert(7, payload=[1, 2, 3])
        table.delete(100)
        table.update_key(200, 201)
        assert table.point_query(100) == []
        assert len(table.point_query(201)) == 1


def make_straddle_table(chunk_size=4):
    """A table whose chunk boundary falls inside the duplicate run of 100s."""
    keys = np.asarray([1, 2, 3, 100, 100, 100, 100, 200, 300], dtype=np.int64)
    payload = np.arange(keys.shape[0], dtype=np.int64).reshape(-1, 1)
    return Table(keys, payload, chunk_size=chunk_size, block_values=4)


class TestCrossChunkDuplicates:
    """Regression: duplicate runs split across a chunk boundary (seed bug)."""

    def test_boundary_falls_inside_duplicate_run(self):
        table = make_straddle_table()
        assert table.num_chunks == 3
        # The first chunk ends inside the run: its bound equals the key.
        assert int(table.chunk_bounds[0]) == 100

    def test_point_query_returns_full_duplicate_run(self):
        table = make_straddle_table()
        rows = table.point_query(100)
        assert len(rows) == 4
        assert sorted(row.payload["a1"] for row in rows) == [3, 4, 5, 6]

    def test_repeated_delete_removes_full_duplicate_run(self):
        table = make_straddle_table()
        deleted = 0
        for _ in range(4):
            deleted += table.delete(100)
        assert deleted == 4
        assert table.point_query(100) == []
        with pytest.raises(ValueNotFoundError):
            table.delete(100)
        table.check_invariants()

    def test_update_key_finds_duplicate_beyond_first_candidate_chunk(self):
        table = make_straddle_table()
        # Exhaust the copies in the first candidate chunk, then update: the
        # remaining copies live only in the second candidate chunk.
        table.delete(100)
        table.update_key(100, 150)
        assert len(table.point_query(150)) == 1
        assert len(table.point_query(100)) == 2
        table.check_invariants()

    def test_routing_uses_partition_index(self):
        from repro.storage.partition_index import PartitionIndex

        table = make_straddle_table()
        assert isinstance(table.router, PartitionIndex)
        assert np.array_equal(table.router.fences, table.chunk_bounds)
        # The seed's O(num_chunks) linear scan is gone.
        assert not hasattr(Table, "_route")

    def test_point_routing_charges_index_probes(self):
        table = make_straddle_table()
        before = table.counter.snapshot()
        table.point_query(100)
        assert table.counter.diff(before).index_probes > 0


class TestUpdateKeyFenceConsistency:
    def test_update_key_to_same_value_same_chunk(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        table.update_key(40, 40)
        assert len(table.point_query(40)) == 1
        assert table.num_rows == 1_024
        table.check_invariants()

    def test_update_key_to_same_value_on_chunk_bound(self):
        table = make_straddle_table()
        table.update_key(100, 100)
        assert len(table.point_query(100)) == 4
        table.check_invariants()

    def test_cross_chunk_move_of_key_equal_to_chunk_bound(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        bound = int(table.chunk_bounds[0])
        table.update_key(bound, bound + 1_001)
        assert table.point_query(bound) == []
        assert len(table.point_query(bound + 1_001)) == 1
        table.check_invariants()

    def test_move_onto_chunk_bound_routes_to_owning_chunk(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        bound = int(table.chunk_bounds[0])
        # Odd keys are absent from the loaded table; the new key equals no
        # chunk bound's own key but routes onto the first chunk's fence.
        table.update_key(bound - 2, bound)
        assert len(table.point_query(bound)) == 2
        table.check_invariants()

    def test_update_key_preserves_rowid_on_delta_store_chunks(self):
        # Regression: DeltaStoreColumn.update used to fabricate a fresh
        # column-local row id, colliding with live rows in other chunks and
        # returning another row's payload.
        keys = np.asarray([10, 20, 30, 40, 100, 110, 120, 130])
        payload = np.arange(8, dtype=np.int64).reshape(-1, 1)
        spec = LayoutSpec(kind=LayoutKind.STATE_OF_ART, block_values=64)
        table = Table(
            keys,
            payload,
            chunk_size=4,
            chunk_builder=layout_chunk_builder(spec),
            block_values=64,
        )
        table.update_key(10, 15)
        rows = table.point_query(15)
        assert [row.payload["a1"] for row in rows] == [0]
        assert [row.payload["a1"] for row in table.point_query(100)] == [4]
        table.check_invariants()

    def test_cross_chunk_update_moves_the_rowid_the_delete_picked(self):
        # Regression: with a delta-store chunk holding a key both in main and
        # in its delta buffer, the cross-chunk move must migrate the row id
        # of the copy the delete actually removes (the buffered one), not
        # the first point-query hit (the main one).
        keys = np.asarray([10, 20, 30, 40, 100, 110, 120, 130])
        payload = np.arange(8, dtype=np.int64).reshape(-1, 1)
        # A high merge trigger keeps the inserted copy in the delta buffer.
        spec = LayoutSpec(
            kind=LayoutKind.STATE_OF_ART, block_values=64, merge_entries=100
        )
        table = Table(
            keys,
            payload,
            chunk_size=4,
            chunk_builder=layout_chunk_builder(spec),
            block_values=64,
        )
        duplicate_rowid = table.insert(10, payload=[8])  # buffered copy
        table.update_key(10, 105)  # moves to the second chunk
        moved = table.point_query(105)
        assert [row.rowid for row in moved] == [duplicate_rowid]
        assert [row.payload["a1"] for row in moved] == [8]
        assert [row.payload["a1"] for row in table.point_query(10)] == [0]
        table.check_invariants()

    def test_republished_chunk_tightens_stale_bound(self):
        table = make_table(num_rows=1_024, chunk_size=256)
        bound = int(table.chunk_bounds[0])
        table.delete(bound)
        assert int(table.chunk_bounds[0]) == bound  # stale-high, still routable
        snapshot = table.snapshot_chunk(0)
        assert table.publish_chunk(snapshot, table.build_chunk_replacement(snapshot))
        assert int(table.chunk_bounds[0]) < bound
        table.check_invariants()


class TestStorageEngine:
    def test_measured_operation_results(self):
        engine = StorageEngine(make_table())
        outcome = engine.execute(PointQuery(20))
        assert outcome.kind == "point_query"
        assert outcome.simulated_ns() > 0
        assert outcome.wall_ns > 0

    def test_statistics_accumulate(self):
        engine = StorageEngine(make_table())
        engine.execute(PointQuery(20))
        engine.execute(PointQuery(40))
        engine.execute(Insert(7))
        assert engine.statistics.operations == {"point_query": 2, "insert": 1}

    def test_execute_dispatch(self):
        engine = StorageEngine(make_table())
        assert engine.execute(PointQuery(key=20)).kind == "point_query"
        assert engine.execute(RangeQuery(low=0, high=50)).kind == "range_count"
        assert (
            engine.execute(RangeQuery(low=0, high=50, aggregate=Aggregate.SUM)).kind
            == "range_sum"
        )
        assert engine.execute(Insert(key=7)).kind == "insert"
        assert engine.execute(Delete(key=20)).kind == "delete"
        assert engine.execute(Update(old_key=40, new_key=41)).kind == "update"

    def test_execute_rejects_unknown_type(self):
        engine = StorageEngine(make_table())
        with pytest.raises(TypeError):
            engine.execute("not an operation")

    def test_full_scan(self):
        engine = StorageEngine(make_table(num_rows=256))
        outcome = engine.full_scan()
        assert outcome.result.shape[0] == 256

    def test_transactional_commit_applies_writes(self):
        engine = StorageEngine(make_table())
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 555, payload=[1, 2, 3])
        assert engine.table.point_query(555) == []
        engine.commit(txn)
        assert len(engine.table.point_query(555)) == 1

    def test_transactional_conflict_aborts_second_writer(self):
        from repro.storage.errors import TransactionConflictError

        engine = StorageEngine(make_table())
        first = engine.begin_transaction()
        second = engine.begin_transaction()
        engine.transactional_delete(first, 40)
        engine.transactional_update(second, 40, 41)
        engine.commit(first)
        with pytest.raises(TransactionConflictError):
            engine.commit(second)

"""Batch fast path: vectorized probes vs. per-operation execution.

The contract of the batch API is *exact* equivalence with per-operation
dispatch: identical results (including row order) and identical simulated
block-access counts, just without the per-op Python overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.column import PartitionedColumn
from repro.storage.engine import StorageEngine
from repro.storage.errors import ValueNotFoundError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.hap import HAPConfig, build_table, make_workload
from repro.workload.operations import (
    Aggregate,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
)


@pytest.fixture
def column(rng):
    values = np.sort(rng.integers(0, 5_000, 4_096)) * 2
    boundaries = np.arange(256, 4_097, 256)
    return PartitionedColumn(
        values, boundaries, block_values=64, track_rowids=True
    )


class TestColumnBatchProbes:
    def test_multi_point_query_matches_per_value(self, column, rng):
        probes = np.concatenate(
            (rng.integers(0, 10_001, 256), column.values()[:32])
        )
        expected = [column.point_query(int(value)) for value in probes]
        before = column.counter.snapshot()
        for value in probes:
            column.point_query(int(value))
        sequential = column.counter.diff(before)

        before = column.counter.snapshot()
        hits, counts = column.multi_point_query(probes)
        batched = column.counter.diff(before)
        assert batched == sequential
        offset = 0
        for i, value in enumerate(probes):
            got = hits[offset : offset + int(counts[i])]
            offset += int(counts[i])
            assert np.array_equal(got, expected[i]), f"mismatch for {value}"
        assert offset == hits.shape[0]

    def test_multi_point_query_rowids(self, column):
        value = int(column.values()[100])
        hits, counts = column.multi_point_query([value], return_rowids=True)
        assert np.array_equal(
            hits, column.point_query(value, return_rowids=True)
        )
        assert int(counts[0]) == hits.shape[0]

    def test_multi_range_count_matches_per_range(self, column, rng):
        lows = rng.integers(0, 9_000, 128)
        highs = lows + rng.integers(0, 2_000, 128)
        expected = [
            column.range_query(int(low), int(high), materialize=False).count
            for low, high in zip(lows, highs)
        ]
        before = column.counter.snapshot()
        for low, high in zip(lows, highs):
            column.range_query(int(low), int(high), materialize=False)
        sequential = column.counter.diff(before)

        before = column.counter.snapshot()
        counts = column.multi_range_count(lows, highs)
        batched = column.counter.diff(before)
        assert batched == sequential
        assert list(counts) == expected

    def test_batch_probes_after_mutation(self, column, rng):
        # Inserts/deletes leave partitions unsorted internally; the batch
        # probes must fall back to sorted views and stay exact.
        for value in rng.integers(0, 10_000, 64):
            column.insert(int(value) * 2 + 1)
        for value in column.values()[:16]:
            column.delete(int(value))
        probes = np.concatenate((column.values()[:64], [1, 3, 9_999]))
        expected = [column.point_query(int(value)) for value in probes]
        hits, counts = column.multi_point_query(probes)
        offset = 0
        for i in range(probes.shape[0]):
            got = hits[offset : offset + int(counts[i])]
            offset += int(counts[i])
            assert set(got.tolist()) == set(expected[i].tolist())

    def test_multi_range_count_validates_bounds(self, column):
        with pytest.raises(ValueError):
            column.multi_range_count([10], [5])

    def test_empty_batches(self, column):
        hits, counts = column.multi_point_query([])
        assert hits.size == 0 and counts.size == 0
        assert column.multi_range_count([], []).size == 0


def make_multi_chunk_table(num_rows=2_048, chunk_size=512):
    keys = np.arange(num_rows, dtype=np.int64) * 2
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 1_000, size=(num_rows, 2))
    spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=8, block_values=64)
    return Table(
        keys,
        payload,
        chunk_size=chunk_size,
        chunk_builder=layout_chunk_builder(spec),
        block_values=64,
    )


class TestTableBatchQueries:
    def test_multi_point_query_matches_per_key(self, rng):
        table = make_multi_chunk_table()
        probes = rng.integers(0, 4_100, 200)
        expected = [table.point_query(int(key)) for key in probes]
        before = table.counter.snapshot()
        for key in probes:
            table.point_query(int(key))
        sequential = table.counter.diff(before)
        before = table.counter.snapshot()
        batched_rows = table.multi_point_query(probes)
        batched = table.counter.diff(before)
        assert batched == sequential
        assert batched_rows == expected

    def test_multi_point_query_straddling_duplicates(self):
        keys = np.asarray([1, 2, 3, 100, 100, 100, 100, 200, 300])
        table = Table(keys, chunk_size=4, block_values=4)
        rows = table.multi_point_query([100, 1, 999])
        assert [len(found) for found in rows] == [4, 1, 0]
        assert rows[0] == table.point_query(100)

    def test_multi_range_count_matches_per_range(self, rng):
        table = make_multi_chunk_table()
        lows = rng.integers(0, 4_000, 100)
        highs = lows + rng.integers(0, 600, 100)
        expected = [
            table.range_count(int(low), int(high))
            for low, high in zip(lows, highs)
        ]
        before = table.counter.snapshot()
        for low, high in zip(lows, highs):
            table.range_count(int(low), int(high))
        sequential = table.counter.diff(before)
        before = table.counter.snapshot()
        counts = table.multi_range_count(list(zip(lows, highs)))
        batched = table.counter.diff(before)
        assert batched == sequential
        assert list(counts) == expected

    def test_multi_point_query_selects_columns(self):
        table = make_multi_chunk_table()
        rows = table.multi_point_query([20], columns=["a2"])
        assert set(rows[0][0].payload) == {"a2"}


class TestExecuteBatch:
    def make_engines(self):
        config = HAPConfig(
            num_rows=4_096, chunk_size=1_024, block_values=256, payload_columns=3
        )
        spec = LayoutSpec(kind=LayoutKind.EQUI_GV, partitions=8, block_values=256)
        builder = layout_chunk_builder(spec)
        return (
            StorageEngine(build_table(config, builder)),
            StorageEngine(build_table(config, builder)),
            config,
        )

    def test_mixed_hap_workload_identical_results_and_accesses(self):
        sequential_engine, batch_engine, config = self.make_engines()
        workload = make_workload(
            "hybrid_skewed", config, num_operations=600, seed=21
        )
        sequential_results = []
        sequential_errors = 0
        for operation in workload:
            try:
                sequential_results.append(
                    sequential_engine.execute(operation).result
                )
            except ValueNotFoundError:
                sequential_results.append(None)
                sequential_errors += 1
        batch = batch_engine.execute_batch(list(workload))

        assert batch.operations == len(workload)
        assert batch.errors == sequential_errors
        assert batch.results == sequential_results
        # Grouped reads charge identically; grouped insert runs coalesce
        # ripple/placement charges, so each tally is bounded by the
        # sequential one and the probe count matches exactly.  (Both the
        # result and <= comparisons rely on hybrid_skewed's structure: no
        # deletes, and the generator's inserted keys are fresh and unique,
        # so the bulk path's ascending in-run replay cannot pick different
        # duplicate victims or charge larger miss scans than submission
        # order -- see StorageEngine.execute_batch's duplicate-key caveat.)
        batch_counts = batch_engine.counter.snapshot()
        sequential_counts = sequential_engine.counter.snapshot()
        assert batch_counts.index_probes == sequential_counts.index_probes
        for field in ("random_reads", "random_writes", "seq_reads", "seq_writes"):
            assert getattr(batch_counts, field) <= getattr(sequential_counts, field)
        assert np.array_equal(
            np.sort(batch_engine.table.keys()),
            np.sort(sequential_engine.table.keys()),
        )
        batch_engine.table.check_invariants()

    def test_batch_dispatch_of_multi_operations(self):
        engine, _, _ = self.make_engines()
        outcome = engine.execute(MultiPointQuery(keys=(20, 40, 99_999)))
        assert outcome.kind == "multi_point_query"
        assert [len(rows) for rows in outcome.result] == [1, 1, 0]
        outcome = engine.execute(MultiRangeCount(bounds=((0, 100), (50, 60))))
        assert outcome.kind == "multi_range_count"
        assert list(outcome.result) == [
            engine.table.range_count(0, 100),
            engine.table.range_count(50, 60),
        ]

    def test_execute_batch_groups_only_compatible_point_queries(self):
        engine, reference, _ = self.make_engines()
        operations = [
            PointQuery(key=20, columns=("a1",)),
            PointQuery(key=40, columns=("a2",)),
            RangeQuery(low=0, high=50),
            RangeQuery(low=10, high=90, aggregate=Aggregate.SUM),
            RangeQuery(low=0, high=10),
        ]
        batch = engine.execute_batch(operations)
        expected = [reference.execute(operation).result for operation in operations]
        assert batch.results == expected
        assert engine.counter.snapshot() == reference.counter.snapshot()

    def test_execute_batch_empty(self):
        engine, _, _ = self.make_engines()
        batch = engine.execute_batch([])
        assert batch.results == [] and batch.operations == 0


class TestMultiUpdate:
    """Grouped key updates are *exactly* per-op equivalent (no coalescing)."""

    def test_update_run_matches_per_op_dispatch_exactly(self):
        # Straddling duplicates, a cross-chunk move, an in-place rewrite and
        # a miss, all in one run.
        def build():
            keys = np.asarray([1, 2, 3, 100, 100, 100, 100, 200, 300])
            return StorageEngine(Table(keys, chunk_size=4, block_values=4))

        sequential, batched = build(), build()
        updates = [
            Update(old_key=100, new_key=5),
            Update(old_key=2, new_key=250),
            Update(old_key=999, new_key=1),  # miss
            Update(old_key=100, new_key=100),
            Update(old_key=300, new_key=301),
        ]
        sequential_results = []
        sequential_errors = 0
        for operation in updates:
            try:
                sequential_results.append(
                    sequential.execute(operation).result
                )
            except ValueNotFoundError:
                sequential_results.append(None)
                sequential_errors += 1
        batch = batched.execute_batch(updates)
        assert batch.results == sequential_results
        assert batch.errors == sequential_errors
        assert batched.counter.snapshot() == sequential.counter.snapshot()
        assert np.array_equal(
            np.sort(batched.table.keys()), np.sort(sequential.table.keys())
        )
        batched.table.check_invariants()

    def test_multi_update_dispatch_and_statistics(self):
        keys = np.arange(64, dtype=np.int64) * 2
        engine = StorageEngine(Table(keys, chunk_size=32, block_values=8))
        outcome = engine.execute(MultiUpdate(pairs=((10, 11), (9_999, 1))))
        assert outcome.kind == "multi_update"
        assert list(outcome.result) == [1, 0]
        assert engine.statistics.operations == {"multi_update": 1}

    def test_bulk_update_validates_shape(self):
        keys = np.arange(16, dtype=np.int64) * 2
        table = Table(keys, chunk_size=16, block_values=8)
        with pytest.raises(Exception):
            table.bulk_update([(1, 2, 3)])
        assert table.bulk_update([]).size == 0

    def test_multi_update_pairs_validated(self):
        with pytest.raises(ValueError):
            MultiUpdate(pairs=((1, 2, 3),))

"""Bulk-write fast path: sorted batch inserts/deletes with coalesced ripples.

The contract of the bulk-write API mirrors the batch read API's, adapted for
writes: ``bulk_insert``/``bulk_delete`` are *equivalent to the sequential
path applied in ascending (stable) value order* -- identical live layout,
row ids and invariant-clean state -- while the simulated block accesses are
bounded by the sequential path's (coalesced ripple sweeps charge each
touched block once per batch instead of once per write) and exactly equal
where no coalescing applies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage.column import (
    PartitionedColumn,
    snap_boundaries_to_duplicates,
)
from repro.storage.cost_accounting import blocks_spanned
from repro.storage.delta_store import DeltaStoreColumn
from repro.storage.engine import StorageEngine
from repro.storage.errors import LayoutError, ValueNotFoundError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.operations import (
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    PointQuery,
)

COUNTER_FIELDS = (
    "random_reads",
    "random_writes",
    "seq_reads",
    "seq_writes",
    "index_probes",
)


def assert_charges_bounded(bulk_counter, sequential_counter):
    """Bulk accesses never exceed sequential; probes are never coalesced."""
    assert bulk_counter.index_probes == sequential_counter.index_probes
    for field in COUNTER_FIELDS[:-1]:
        assert getattr(bulk_counter, field) <= getattr(sequential_counter, field)


def assert_same_live_layout(reference: PartitionedColumn, bulk: PartitionedColumn):
    """Live layout equality: everything any read can observe."""
    for name in ("_starts", "_counts", "_fences", "_mins", "_maxs"):
        assert np.array_equal(getattr(reference, name), getattr(bulk, name)), name
    assert reference.physical_size == bulk.physical_size
    for start, count in zip(reference._starts, reference._counts):
        start, count = int(start), int(count)
        assert np.array_equal(
            reference._data[start : start + count],
            bulk._data[start : start + count],
        )
        if reference._rowids is not None:
            assert np.array_equal(
                reference._rowids[start : start + count],
                bulk._rowids[start : start + count],
            )


def make_column_pair(rng, *, ghost_mode: bool, size=400, domain=2_000):
    base = np.sort(rng.integers(0, domain, size)) * 2
    raw = np.append(np.unique(rng.integers(1, size, 9)), size).astype(np.int64)
    boundaries = snap_boundaries_to_duplicates(base, raw)
    ghosts = rng.integers(0, 5, boundaries.size) if ghost_mode else None
    build = lambda: PartitionedColumn(
        base,
        boundaries,
        ghost_allocation=ghosts,
        block_values=32,
        track_rowids=True,
    )
    return base, build(), build()


class TestSnapBoundariesVectorized:
    def test_matches_reference_walk(self, rng):
        """The searchsorted form reproduces the per-boundary while-walk."""
        for _ in range(50):
            values = np.sort(rng.integers(0, 40, 200))
            boundaries = np.append(np.unique(rng.integers(1, 200, 8)), 200)
            reference: list[int] = []
            for end in boundaries:
                end = int(end)
                while end < 200 and values[end] == values[end - 1]:
                    end += 1
                if not reference or end > reference[-1]:
                    reference.append(end)
            if reference[-1] != 200:
                reference.append(200)
            assert snap_boundaries_to_duplicates(values, boundaries).tolist() == (
                reference
            )

    def test_rejects_out_of_range(self):
        values = np.arange(10)
        with pytest.raises(LayoutError):
            snap_boundaries_to_duplicates(values, [0, 10])
        with pytest.raises(LayoutError):
            snap_boundaries_to_duplicates(values, [11])

    def test_appends_final_boundary(self):
        values = np.arange(10)
        assert snap_boundaries_to_duplicates(values, [4]).tolist() == [4, 10]


class TestColumnBulkInsert:
    @pytest.mark.parametrize("ghost_mode", [False, True])
    def test_equivalent_to_sorted_sequential_inserts(self, rng, ghost_mode):
        for _ in range(20):
            _, sequential, bulk = make_column_pair(rng, ghost_mode=ghost_mode)
            batch = rng.integers(0, 4_200, int(rng.integers(1, 120)))
            order = np.argsort(batch, kind="stable")
            expected = [sequential.insert(int(v)) for v in batch[order]]
            rowids = bulk.bulk_insert(batch)
            assert np.array_equal(rowids[order], np.asarray(expected))
            assert_same_live_layout(sequential, bulk)
            # Inserts never abandon written slots, so even dead bytes match.
            assert np.array_equal(sequential._data, bulk._data)
            assert_charges_bounded(bulk.counter, sequential.counter)
            bulk.check_invariants()

    def test_explicit_rowids_round_trip(self, rng):
        _, sequential, bulk = make_column_pair(rng, ghost_mode=True)
        batch = rng.integers(0, 4_200, 40)
        rowids = rng.permutation(40) + 10_000
        order = np.argsort(batch, kind="stable")
        for value, rowid in zip(batch[order], rowids[order]):
            sequential.insert(int(value), rowid=int(rowid))
        assert np.array_equal(bulk.bulk_insert(batch, rowids), rowids)
        assert_same_live_layout(sequential, bulk)
        assert bulk._next_rowid == sequential._next_rowid

    def test_single_insert_charges_exactly_sequential(self, rng):
        """Where no coalescing applies the charges are equal, not just <=."""
        _, sequential, bulk = make_column_pair(rng, ghost_mode=False)
        sequential.insert(1_001)
        bulk.bulk_insert([1_001])
        assert bulk.counter.snapshot() == sequential.counter.snapshot()

    def test_growth_matches_sequential(self, rng):
        base = np.arange(64, dtype=np.int64) * 2
        build = lambda: PartitionedColumn(
            base, [16, 32, 64], block_values=16, track_rowids=True
        )
        sequential, bulk = build(), build()
        batch = rng.integers(0, 200, 300)
        for value in np.sort(batch, kind="stable"):
            sequential.insert(int(value))
        bulk.bulk_insert(batch)
        assert_same_live_layout(sequential, bulk)
        assert bulk.counter.seq_writes == sequential.counter.seq_writes
        bulk.check_invariants()

    def test_empty_batch_is_free(self, rng):
        _, _, bulk = make_column_pair(rng, ghost_mode=False)
        before = bulk.counter.snapshot()
        assert bulk.bulk_insert([]).size == 0
        assert bulk.counter.snapshot() == before


def reference_bulk_insert(column, values, rowids=None):
    """``bulk_insert`` as one Python step per insert, partition and target.

    The donor choice is the sequential path's (first partition at or after
    the target with slack, else grow the tail), replayed on metadata; the
    sweep and the placements are the per-partition loops ``bulk_insert``
    ran before they became a gather/scatter, and pin its layout (dead
    slots included) and its charges exactly.
    """
    values = np.asarray(values, dtype=np.int64)
    m = int(values.size)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if rowids is None:
        sorted_rowids = np.arange(column._next_rowid, column._next_rowid + m)
    else:
        sorted_rowids = np.asarray(rowids, dtype=np.int64)[order]
    column._next_rowid = max(column._next_rowid, int(sorted_rowids.max()) + 1)
    counter, block_values = column.counter, column.block_values
    counter.index_probe(m)
    k = column.num_partitions
    targets = [column._index.locate(int(value)) for value in sorted_values]

    slack = (column._capacities() - column._counts).tolist()
    through = np.zeros(k, dtype=np.int64)
    growths = donor_pairs = 0
    for target in targets:
        donor = next((p for p in range(target, k) if slack[p] > 0), None)
        if donor is None:
            growths += 1
            slack[k - 1] += column.GROWTH_BLOCKS * block_values
            donor = k - 1
        if donor != target:
            donor_pairs += 1
            through[target + 1 : donor + 1] += 1
        slack[donor] -= 1
    for _ in range(growths):
        column._grow()
    counter.random_read(donor_pairs)
    counter.random_write(donor_pairs)

    for partition in np.nonzero(through > 0)[0][::-1]:
        shift = int(through[partition])
        start = int(column._starts[partition])
        count = int(column._counts[partition])
        counter.random_read(blocks_spanned(start, shift, block_values))
        counter.random_write(blocks_spanned(start + count, shift, block_values))
        for array in (column._data, column._rowids):
            if count == 0:
                continue
            if shift < count:
                array[start + count : start + count + shift] = array[
                    start : start + shift
                ]
            else:
                array[start + shift : start + shift + count] = np.roll(
                    array[start : start + count], -(shift % count)
                )
        column._invalidate_sorted(int(partition))
    column._starts += through

    for partition in sorted(set(targets)):
        lo, arrivals = targets.index(partition), targets.count(partition)
        previous = int(column._counts[partition])
        tail = int(column._starts[partition]) + previous
        blocks = blocks_spanned(tail, arrivals, block_values)
        counter.random_read(blocks)
        counter.random_write(blocks)
        column._data[tail : tail + arrivals] = sorted_values[lo : lo + arrivals]
        column._rowids[tail : tail + arrivals] = sorted_rowids[lo : lo + arrivals]
        column._invalidate_sorted(partition)
        column._counts[partition] = previous + arrivals
        low, high = int(sorted_values[lo]), int(sorted_values[lo + arrivals - 1])
        if previous == 0:
            column._mins[partition] = low
            column._maxs[partition] = high
        else:
            column._mins[partition] = min(low, int(column._mins[partition]))
            column._maxs[partition] = max(high, int(column._maxs[partition]))
        if partition < k - 1 and high > column._fences[partition]:
            column._fences[partition] = high
            column._index.update_fence(partition, high)
    out = np.empty(m, dtype=np.int64)
    out[order] = sorted_rowids
    return out


@st.composite
def ripple_cases(draw):
    """(partition sizes, ghosts per partition or None, partitions emptied
    before the batch, batch keys, explicit row ids?).  Partition ``i`` holds
    ``100 * i + 10 * j``; ``block_values=4`` makes one growth 16 slots."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=10))
    k = len(sizes)
    ghosts = draw(
        st.none() | st.lists(st.integers(0, 3), min_size=k, max_size=k)
    )
    emptied = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    batch = draw(st.lists(st.integers(0, 100 * k + 50), min_size=1, max_size=40))
    return sizes, ghosts, sorted(emptied), batch, draw(st.booleans())


class TestBulkInsertSweepReference:
    @settings(max_examples=25, deadline=None)
    @given(case=ripple_cases())
    # Tail-only slack (closed form), an empty partition inside the window,
    # count < shift (full rotation) and count == shift, duplicate keys.
    @example(case=([2, 3, 1, 4], None, [1], [0, 5, 5, 120, 250, 250], False))
    # Ghost slack in the middle (donor replay), used up mid-batch.
    @example(case=([3, 3, 3, 3], [0, 0, 2, 0], [], [1, 2, 3, 4, 105, 301], True))
    # An emptied middle partition keeps its slots: donor and empty at once.
    @example(case=([2, 2, 2, 2], [0, 1, 0, 1], [1, 2], [7] * 9 + [110, 210], False))
    # Three growths; every partition rotates several times over.
    @example(case=([1, 2, 3], None, [], list(range(40)), True))
    def test_equals_the_per_partition_loops(self, case):
        sizes, ghosts, emptied, batch, explicit = case
        base = np.asarray(
            [100 * i + 10 * j for i, size in enumerate(sizes) for j in range(size)]
        )
        columns = [
            PartitionedColumn(
                base,
                np.cumsum(sizes),
                ghost_allocation=ghosts,
                block_values=4,
                track_rowids=True,
            )
            for _ in range(2)
        ]
        for column in columns:
            for partition in emptied:
                for j in range(sizes[partition]):
                    column.delete(100 * partition + 10 * j)
        reference, bulk = columns
        rowids = (
            np.arange(len(batch))[::-1] * 3 + 1_000 if explicit else None
        )
        expected = reference_bulk_insert(reference, batch, rowids)
        assert np.array_equal(bulk.bulk_insert(batch, rowids), expected)
        for name in ("_data", "_rowids", "_starts", "_counts", "_fences",
                     "_mins", "_maxs"):
            assert np.array_equal(getattr(reference, name), getattr(bulk, name)), name
        assert bulk._next_rowid == reference._next_rowid
        for field in COUNTER_FIELDS:
            assert type(getattr(bulk.counter, field)) is int, field
            assert getattr(bulk.counter, field) == getattr(reference.counter, field)
        bulk.check_invariants()

    def test_rippled_partitions_drop_their_cached_views(self):
        """A cached view of a sorted segment is a slice of ``_data``: the
        sweep must drop it for every partition it shifts."""
        base = np.arange(64, dtype=np.int64) * 10
        ghosts = [0] * 7 + [8]
        column = PartitionedColumn(
            base,
            np.arange(8, 65, 8),
            ghost_allocation=ghosts,
            dense=False,
            block_values=4,
            track_rowids=True,
        )
        probes = base[::4]
        column.multi_point_query(probes)
        assert sorted(column._sorted_views) == list(range(8))
        column.bulk_insert([1, 2, 3, 3, 85])  # no growth: views are not cleared
        assert column.physical_size == 72
        for partition, (view, _) in column._sorted_views.items():
            start = int(column._starts[partition])
            live = column._data[start : start + int(column._counts[partition])]
            assert np.array_equal(view, np.sort(live))
        probes = np.concatenate((probes, [1, 3, 85, 7]))
        hits, counts = column.multi_point_query(probes, return_rowids=True)
        per_key = [column.point_query(int(v), return_rowids=True) for v in probes]
        assert counts.tolist() == [hit.size for hit in per_key]
        assert np.array_equal(hits, np.concatenate(per_key))


def exact_zonemap(column):
    """``(_mins, _maxs)`` of the non-empty partitions, recomputed from scratch."""
    segments = [
        column._data[start : start + count]
        for start, count in zip(column._starts, column._counts)
        if count
    ]
    return [int(s.min()) for s in segments], [int(s.max()) for s in segments]


class TestZonemapAfterRemovals:
    """A removal refreshes ``_mins`` / ``_maxs`` only when the victim was an
    extreme; whichever it was, they equal a from-scratch recompute."""

    VALUES = np.asarray([0, 10, 20, 30, 40, 100, 110, 120, 130, 130, 200])
    VICTIMS = {
        "unique min": 100,
        "unique max": 40,
        "one of two equal maxima": 130,
        "interior": 110,
        "min of the first partition": 0,
    }

    def build(self):
        return PartitionedColumn(
            self.VALUES, [5, 10, 11], block_values=4, track_rowids=True
        )

    def assert_exact(self, column):
        live = column._counts > 0
        mins, maxs = exact_zonemap(column)
        assert column._mins[live].tolist() == mins
        assert column._maxs[live].tolist() == maxs
        column.check_invariants()

    @pytest.mark.parametrize(
        "remove",
        [
            lambda column, value: column.delete(value),
            lambda column, value: column.remove_one(value),
            lambda column, value: column.update(value, 55),
            lambda column, value: column.bulk_delete([value]),
        ],
        ids=["delete", "remove_one", "update", "bulk_delete"],
    )
    def test_every_scalar_and_bulk_removal(self, remove):
        for victim in self.VICTIMS.values():
            column = self.build()
            remove(column, victim)
            self.assert_exact(column)
            # The last value of a partition: it keeps its stale extremes
            # (nothing reads them) and the others stay exact.
            remove(column, 200)
            self.assert_exact(column)

    def test_bulk_delete_groups_mixing_extremes_and_interior(self):
        for batch in ([110, 120], [100, 110], [110, 130], [130, 130], [0, 40, 200],
                      [100, 110, 120, 130, 130], [10, 20, 999]):
            column = self.build()
            column.bulk_delete(batch)
            self.assert_exact(column)
        # Few victims in a large partition take the per-value scan branch.
        for victim in (0, 17, 39):
            column = PartitionedColumn(np.arange(40), [40], block_values=4)
            column.bulk_delete([victim])
            self.assert_exact(column)


class TestColumnBulkDelete:
    @pytest.mark.parametrize("ghost_mode", [False, True])
    def test_equivalent_to_sorted_sequential_deletes(self, rng, ghost_mode):
        for _ in range(20):
            base, sequential, bulk = make_column_pair(rng, ghost_mode=ghost_mode)
            batch = np.concatenate(
                (
                    rng.choice(base, int(rng.integers(1, 100))),
                    rng.integers(0, 4_200, 8),
                )
            )
            rng.shuffle(batch)
            order = np.argsort(batch, kind="stable")
            expected = []
            for value in batch[order]:
                try:
                    expected.append(sequential.delete(int(value)))
                except ValueNotFoundError:
                    expected.append(0)
            deleted = bulk.bulk_delete(batch)
            assert np.array_equal(deleted[order], np.asarray(expected))
            assert_same_live_layout(sequential, bulk)
            assert_charges_bounded(bulk.counter, sequential.counter)
            bulk.check_invariants()

    def test_single_delete_charges_exactly_sequential(self, rng):
        base, sequential, bulk = make_column_pair(rng, ghost_mode=False)
        victim = int(base[37])
        sequential.delete(victim)
        assert bulk.bulk_delete([victim]).tolist() == [1]
        assert bulk.counter.snapshot() == sequential.counter.snapshot()

    def test_missing_values_report_zero_without_raising(self, rng):
        base, _, bulk = make_column_pair(rng, ghost_mode=False)
        assert bulk.bulk_delete([1, 3, int(base[0])]).tolist() == [0, 0, 1]

    def test_duplicate_requests_drain_duplicates(self):
        values = np.asarray([2, 2, 2, 4, 6, 8, 10, 12], dtype=np.int64)
        column = PartitionedColumn(values, [4, 8], track_rowids=True)
        deleted = column.bulk_delete([2, 2, 2, 2])
        assert deleted.tolist() == [1, 1, 1, 0]
        assert column.point_query(2).size == 0
        column.check_invariants()


class TestDeltaStoreBulk:
    def make_pair(self, rng, **kwargs):
        base = np.sort(rng.integers(0, 500, 256)) * 2
        build = lambda: DeltaStoreColumn(
            base, block_values=32, track_rowids=True, **kwargs
        )
        return base, build(), build()

    def test_bulk_insert_matches_sequential_below_threshold(self, rng):
        _, sequential, bulk = self.make_pair(rng, merge_threshold=10.0)
        batch = rng.integers(0, 1_100, 40)
        order = np.argsort(batch, kind="stable")
        expected = [sequential.insert(int(v)) for v in batch[order]]
        rowids = bulk.bulk_insert(batch)
        assert np.array_equal(rowids[order], np.asarray(expected))
        assert sequential._delta_values == bulk._delta_values
        assert sequential._delta_rowids == bulk._delta_rowids
        assert bulk.counter.snapshot() == sequential.counter.snapshot()
        bulk.check_invariants()

    def test_bulk_insert_coalesces_merges(self, rng):
        _, sequential, bulk = self.make_pair(rng, merge_entries=16)
        batch = rng.integers(0, 1_100, 100) | 1
        for value in np.sort(batch):
            sequential.insert(int(value))
        bulk.bulk_insert(batch)
        assert sequential.merges > 1
        assert bulk.merges == 1
        assert np.array_equal(np.sort(sequential.values()), np.sort(bulk.values()))
        assert_charges_bounded(bulk.counter, sequential.counter)
        bulk.check_invariants()

    def test_bulk_delete_matches_sequential(self, rng):
        base, sequential, bulk = self.make_pair(rng, merge_threshold=10.0)
        for column in (sequential, bulk):
            column.bulk_insert(np.arange(901, 961, 2))
        batch = np.concatenate(
            (rng.choice(base, 20), np.arange(901, 921, 2), [9_999])
        )
        rng.shuffle(batch)
        order = np.argsort(batch, kind="stable")
        expected = []
        for value in batch[order]:
            try:
                expected.append(sequential.delete(int(value)))
            except ValueNotFoundError:
                expected.append(0)
        deleted = bulk.bulk_delete(batch)
        assert np.array_equal(deleted[order], np.asarray(expected))
        assert sequential._delta_values == bulk._delta_values
        assert sequential._tombstones == bulk._tombstones
        assert bulk.counter.snapshot() == sequential.counter.snapshot()
        bulk.check_invariants()

    def test_multi_point_query_matches_per_value(self, rng):
        base, _, column = self.make_pair(rng, merge_threshold=10.0)
        column.bulk_insert(rng.integers(0, 1_100, 30) | 1)
        column.bulk_delete(rng.choice(base, 10))
        probes = np.concatenate((rng.choice(base, 20), rng.integers(0, 1_200, 10)))
        expected = [column.point_query(int(v), return_rowids=True) for v in probes]
        before = column.counter.snapshot()
        for value in probes:
            column.point_query(int(value), return_rowids=True)
        sequential = column.counter.diff(before)
        before = column.counter.snapshot()
        hits, counts = column.multi_point_query(probes, return_rowids=True)
        assert column.counter.diff(before) == sequential
        offset = 0
        for i in range(probes.size):
            got = hits[offset : offset + int(counts[i])]
            offset += int(counts[i])
            assert np.array_equal(got, expected[i])

    def test_multi_range_count_matches_per_range(self, rng):
        base, _, column = self.make_pair(rng, merge_threshold=10.0)
        column.bulk_insert(rng.integers(0, 1_100, 30) | 1)
        column.bulk_delete(rng.choice(base, 10))
        lows = rng.integers(0, 1_000, 16)
        highs = lows + rng.integers(0, 300, 16)
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
        assert column.counter.diff(before) == sequential
        assert list(counts) == expected


def make_table(keys, payload=None, *, kind=LayoutKind.EQUI_GV, chunk_size=512):
    spec = LayoutSpec(kind=kind, partitions=8, block_values=64)
    return Table(
        keys,
        payload,
        chunk_size=chunk_size,
        chunk_builder=layout_chunk_builder(spec),
        block_values=64,
    )


class TestTableBulkWrites:
    @pytest.mark.parametrize(
        "kind", [LayoutKind.EQUI_GV, LayoutKind.EQUI, LayoutKind.STATE_OF_ART]
    )
    def test_sorted_batch_byte_identical_to_sequential(self, rng, kind):
        keys = np.arange(2_048, dtype=np.int64) * 2
        payload = rng.integers(0, 1_000, size=(2_048, 2))
        sequential = make_table(keys, payload, kind=kind)
        bulk = make_table(keys, payload, kind=kind)
        batch = np.sort(rng.integers(0, 4_200, 64) | 1)
        rows = rng.integers(0, 100, size=(64, 2))
        expected = [
            sequential.insert(int(key), row.tolist())
            for key, row in zip(batch, rows)
        ]
        rowids = bulk.bulk_insert(batch, rows)
        assert list(rowids) == expected
        for left, right in zip(sequential.chunks, bulk.chunks):
            assert np.array_equal(left.values(), right.values())
            assert np.array_equal(left.rowids(), right.rowids())
        assert np.array_equal(
            sequential._payload[: sequential._next_rowid],
            bulk._payload[: bulk._next_rowid],
        )
        assert_charges_bounded(bulk.counter, sequential.counter)
        bulk.check_invariants()

        victims = np.sort(
            np.concatenate((batch[:20], rng.choice(keys, 30, replace=False)))
        )
        expected_deleted = []
        for key in victims:
            try:
                expected_deleted.append(sequential.delete(int(key)))
            except ValueNotFoundError:
                expected_deleted.append(0)
        deleted = bulk.bulk_delete(victims)
        assert list(deleted) == expected_deleted
        for left, right in zip(sequential.chunks, bulk.chunks):
            assert np.array_equal(left.values(), right.values())
            assert np.array_equal(left.rowids(), right.rowids())
        assert_charges_bounded(bulk.counter, sequential.counter)
        bulk.check_invariants()

    def test_unsorted_batch_assigns_rowids_in_input_order(self, rng):
        keys = np.arange(512, dtype=np.int64) * 2
        table = make_table(keys)
        batch = np.asarray([901, 3, 445, 901, 17], dtype=np.int64)
        rowids = table.bulk_insert(batch)
        assert rowids.tolist() == [512, 513, 514, 515, 516]
        for key, rowid in zip(batch, rowids):
            assert any(
                row.rowid == rowid for row in table.point_query(int(key))
            )
        table.check_invariants()

    def test_bulk_delete_reaches_duplicates_straddling_chunks(self):
        keys = np.asarray([1, 2, 3, 100, 100, 100, 100, 200, 300])
        table = Table(keys, chunk_size=4, block_values=4)
        deleted = table.bulk_delete(np.asarray([100, 100, 100, 100, 100, 7]))
        assert deleted.tolist() == [1, 1, 1, 1, 0, 0]
        assert int((table.keys() == 100).sum()) == 0
        table.check_invariants()

    def test_bulk_paths_never_rebuild_router(self, rng, monkeypatch):
        keys = np.arange(1_024, dtype=np.int64) * 2
        table = make_table(keys)

        def forbidden():
            raise AssertionError("bulk path must not rebuild the router")

        monkeypatch.setattr(table, "_rebuild_router", forbidden)
        fences_before = table.router.fences.copy()
        table.bulk_insert(rng.integers(0, 2_100, 64) | 1)
        table.bulk_delete(rng.choice(keys, 32, replace=False))
        assert np.array_equal(table.router.fences, fences_before)
        table.check_invariants()

    def test_empty_batches(self, rng):
        table = make_table(np.arange(256, dtype=np.int64) * 2)
        assert table.bulk_insert([]).size == 0
        assert table.bulk_delete([]).size == 0

    def test_payload_width_mismatch_raises(self):
        keys = np.arange(64, dtype=np.int64) * 2
        payload = np.zeros((64, 2), dtype=np.int64)
        table = make_table(keys, payload)
        with pytest.raises(LayoutError):
            table.bulk_insert([3, 5], [[1], [2, 3]])


class TestEngineBatchWrites:
    def make_engines(self):
        keys = np.arange(2_048, dtype=np.int64) * 2
        rng = np.random.default_rng(5)
        payload = rng.integers(0, 1_000, size=(2_048, 2))
        return (
            StorageEngine(make_table(keys, payload)),
            StorageEngine(make_table(keys, payload)),
        )

    def test_execute_dispatches_multi_write_operations(self):
        engine, _ = self.make_engines()
        outcome = engine.execute(MultiInsert(keys=(11, 3, 7)))
        assert outcome.kind == "multi_insert"
        assert [int(r) for r in outcome.result] == [2048, 2049, 2050]
        outcome = engine.execute(MultiDelete(keys=(11, 3, 99_999)))
        assert outcome.kind == "multi_delete"
        assert [int(c) for c in outcome.result] == [1, 1, 0]

    def test_execute_batch_groups_write_runs(self):
        batch_engine, sequential_engine = self.make_engines()
        operations = [
            Insert(key=901),
            Insert(key=3, payload=(7, 8)),
            Insert(key=445),
            PointQuery(key=901),
            Delete(key=901),
            Delete(key=77_777),
            Delete(key=4),
            PointQuery(key=901),
        ]
        expected = []
        errors = 0
        for operation in operations:
            try:
                expected.append(sequential_engine.execute(operation).result)
            except ValueNotFoundError:
                expected.append(None)
                errors += 1
        batch = batch_engine.execute_batch(operations)
        assert batch.results == expected
        assert batch.errors == errors == 1
        assert_charges_bounded(
            batch_engine.counter.snapshot(), sequential_engine.counter.snapshot()
        )
        assert np.array_equal(
            np.sort(batch_engine.table.keys()),
            np.sort(sequential_engine.table.keys()),
        )
        batch_engine.table.check_invariants()

    def test_multi_insert_payloads_validation(self):
        with pytest.raises(ValueError):
            MultiInsert(keys=(1, 2), payloads=((1, 2),))

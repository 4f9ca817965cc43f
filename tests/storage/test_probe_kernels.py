"""Batched read kernels against literal per-probe loops, and the load-order flag.

``multi_point_query`` and ``multi_range_count`` route and charge a whole
batch with array arithmetic and then scan once per probe; the reference is
written out here as the per-key ``point_query`` and per-range
``range_query`` loops they replace.  Hits (in order), counts and all five
``AccessCounter`` fields must be equal, over columns whose partitions are
still in load order, written, emptied, duplicated, ghost-padded or grown.

A partition flagged as still in load order may be binary-searched, so every
write primitive must clear the flag of each partition it moves values in;
``check_invariants`` asserts that every flagged partition is sorted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage.column import PartitionedColumn
from repro.storage.cost_accounting import AccessCounter, blocks_spanned
from repro.storage.errors import ValueNotFoundError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder

COUNTER_FIELDS = (
    "random_reads",
    "random_writes",
    "seq_reads",
    "seq_writes",
    "index_probes",
)


def charged(counter: AccessCounter, run):
    """``(run(), accesses charged by it)``."""
    before = counter.snapshot()
    result = run()
    return result, counter.diff(before)


def assert_same_charges(batched: AccessCounter, reference: AccessCounter) -> None:
    for field in COUNTER_FIELDS:
        assert type(getattr(batched, field)) is int, field
        assert getattr(batched, field) == getattr(reference, field), field


def reference_point_queries(column, values, return_rowids):
    """One ``point_query`` per value: ``(hits, counts)``."""
    found = [
        column.point_query(int(value), return_rowids=return_rowids)
        for value in values
    ]
    hits = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    return hits, [int(hit.size) for hit in found]


def reference_range_counts(column, lows, highs):
    """One ``range_query(materialize=False)`` per range."""
    return [
        column.range_query(int(low), int(high), materialize=False).count
        for low, high in zip(lows, highs, strict=True)
    ]


def reference_range_charges(column, low, high):
    """A range scan's charges as the per-partition loop of Fig. 3c."""
    counter = AccessCounter()
    counter.index_probe()
    first, last = column._index.locate_range(low, high, spanning=False)
    for partition in range(first, last + 1):
        count = int(column._counts[partition])
        blocks = blocks_spanned(0, count, column.block_values) if count else 0
        if blocks and partition == first:
            counter.random_read(1)
            if blocks > 1:
                counter.seq_read(blocks - 1)
        elif blocks:
            counter.seq_read(blocks)
    return counter


@st.composite
def column_cases(draw):
    """``(sizes, duplicates, ghosts, dense, writes)``.

    Partition ``i`` loads ``sizes[i]`` values from ``[100 * i, 100 * i +
    duplicates)`` (duplicate runs when ``duplicates`` is small).  Writes are
    ``(kind, value, other)`` tuples applied before the probes; absent
    victims are skipped.  ``block_values=4``, so one growth adds 16 slots.
    """
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    k = len(sizes)
    duplicates = draw(st.integers(1, 40))
    ghosts = draw(st.none() | st.lists(st.integers(0, 3), min_size=k, max_size=k))
    dense = ghosts is None or draw(st.booleans())
    key = st.integers(-10, 100 * k + 10)
    writes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "remove", "update", "bulk_insert", "bulk_delete",
                     "empty"]
                ),
                key,
                key,
            ),
            max_size=12,
        )
    )
    return sizes, duplicates, ghosts, dense, writes


def build(case):
    sizes, duplicates, ghosts, dense, writes = case
    rng = np.random.default_rng(len(writes))
    values = np.sort(
        np.concatenate(
            [
                100 * i + rng.integers(0, duplicates, size)
                for i, size in enumerate(sizes)
            ]
        ).astype(np.int64)
    )
    column = PartitionedColumn(
        values,
        np.cumsum(sizes),
        ghost_allocation=ghosts,
        dense=dense,
        block_values=4,
    )
    for kind, value, other in writes:
        try:
            if kind == "insert":
                column.insert(value)
            elif kind == "remove":
                column.remove_one(value)
            elif kind == "update":
                column.update(value, other)
            elif kind == "bulk_insert":
                column.bulk_insert([value, other, value + 1])
            elif kind == "bulk_delete":
                column.bulk_delete([value, other, value])
            else:
                # Empty the partition that holds ``value``.
                partition = column._index.locate(value)
                start = int(column._starts[partition])
                live = column._data[start : start + int(column._counts[partition])]
                column.bulk_delete(live.copy())
        except ValueNotFoundError:
            pass
    column.check_invariants()
    return column


def probe_values(column, keys):
    """Some live values (duplicates included) followed by the drawn keys."""
    live = column.values()
    return np.concatenate((live[: len(keys)], np.asarray(keys, dtype=np.int64)))


class TestBatchedKernelsEqualPerProbeLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=column_cases(), keys=st.lists(st.integers(-20, 820), max_size=30),
           rowids=st.booleans())
    # Fresh column: every partition still in load order, with duplicate runs.
    @example(case=([5, 9, 3], 2, None, True, []), keys=[0, 1, 100, 201, 999],
             rowids=True)
    # Ghost slack, written partitions, one emptied partition.
    @example(case=([4, 4, 4, 4], 10, [1, 0, 2, 1], False,
                   [("insert", 5, 0), ("update", 105, 7), ("empty", 200, 0)]),
             keys=[5, 7, 200, 105, 300], rowids=False)
    # Dense column grown past its slack.
    @example(case=([3, 3], 5, None, True, [("bulk_insert", 1, 2)] * 8),
             keys=[1, 2, 3, 101], rowids=True)
    def test_multi_point_query(self, case, keys, rowids):
        column = build(case)
        values = probe_values(column, keys)
        (hits, counts), batched = charged(
            column.counter,
            lambda: column.multi_point_query(values, return_rowids=rowids),
        )
        (ref_hits, ref_counts), reference = charged(
            column.counter,
            lambda: reference_point_queries(column, values, rowids),
        )
        assert counts.tolist() == ref_counts
        assert np.array_equal(hits, ref_hits)
        assert_same_charges(batched, reference)

    @settings(max_examples=60, deadline=None)
    @given(case=column_cases(),
           bounds=st.lists(st.tuples(st.integers(-20, 820), st.integers(0, 400)),
                           max_size=30))
    @example(case=([5, 9, 3], 2, None, True, []), bounds=[(0, 0), (1, 250), (-5, 900)])
    @example(case=([4, 1, 4, 4], 10, [1, 0, 2, 1], False,
                   [("insert", 5, 0), ("update", 105, 7), ("empty", 200, 0)]),
             bounds=[(5, 5), (0, 300), (150, 210)])
    @example(case=([3, 3], 5, None, True, [("bulk_insert", 1, 2)] * 8),
             bounds=[(0, 3), (2, 100)])
    def test_multi_range_count(self, case, bounds):
        column = build(case)
        lows = np.asarray([low for low, _ in bounds], dtype=np.int64)
        highs = lows + np.asarray([width for _, width in bounds], dtype=np.int64)
        totals, batched = charged(
            column.counter, lambda: column.multi_range_count(lows, highs)
        )
        expected, reference = charged(
            column.counter, lambda: reference_range_counts(column, lows, highs)
        )
        assert totals.tolist() == expected
        assert_same_charges(batched, reference)

    @settings(max_examples=60, deadline=None)
    @given(case=column_cases(), low=st.integers(-20, 820), width=st.integers(0, 400))
    @example(case=([5, 9, 3], 2, None, True, []), low=1, width=250)
    @example(case=([4, 1, 4, 4], 10, [1, 0, 2, 1], False,
                   [("insert", 5, 0), ("update", 105, 7), ("empty", 200, 0)]),
             low=0, width=400)
    def test_range_query_and_rowids(self, case, low, width):
        """``range_query`` counts, materializes and charges like the
        per-partition loop; ``range_rowids`` returns its row ids."""
        column = build(case)
        high = low + width
        live, ids = column.values(), column.rowids()
        inside = (live >= low) & (live <= high)
        for materialize in (False, True):
            result, charges = charged(
                column.counter,
                lambda: column.range_query(low, high, materialize=materialize),
            )
            assert result.count == int(inside.sum())
            assert_same_charges(charges, reference_range_charges(column, low, high))
        assert np.array_equal(np.sort(result.values), np.sort(live[inside]))
        assert np.array_equal(column._data[result.positions], result.values)
        rowids, charges = charged(
            column.counter, lambda: column.range_rowids(low, high)
        )
        assert np.array_equal(rowids, column._rowids[result.positions])
        assert np.array_equal(np.sort(rowids), np.sort(ids[inside]))
        assert_same_charges(charges, reference_range_charges(column, low, high))


class TestTableFanOut:
    """One kernel call per touched chunk: rows and charges equal the per-key
    and per-range table loops, duplicate runs straddling chunks included."""

    def table(self):
        keys = np.repeat(np.arange(40, dtype=np.int64), [1, 3] * 20) * 5
        spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=3, block_values=4)
        table = Table(
            keys,
            (keys * 2)[:, None],
            chunk_size=7,
            chunk_builder=layout_chunk_builder(spec),
            payload_names=["v"],
            block_values=4,
        )
        table.insert(101, [0])
        table.delete(40)
        return table

    def test_multi_point_query(self):
        table = self.table()
        # 15 and 35 are duplicate runs that straddle a chunk boundary.
        keys = [5, 15, 100, 101, 0, 7, 35, 195, 40, 5, 300, -1]
        rows, batched = charged(table.counter, lambda: table.multi_point_query(keys))
        expected, reference = charged(
            table.counter, lambda: [table.point_query(key) for key in keys]
        )
        assert rows == expected
        assert_same_charges(batched, reference)

    def test_multi_range_count(self):
        table = self.table()
        bounds = [(0, 0), (15, 15), (5, 100), (101, 101), (-10, 400), (35, 39),
                  (190, 195)]
        totals, batched = charged(
            table.counter, lambda: table.multi_range_count(bounds)
        )
        expected, reference = charged(
            table.counter,
            lambda: [table.range_count(low, high) for low, high in bounds],
        )
        assert totals.tolist() == expected
        assert_same_charges(batched, reference)


def flag_column(ghosts, *, dense=None):
    """Four partitions of eight values ``0, 10, ..., 310``, all in load order."""
    column = PartitionedColumn(
        np.arange(32, dtype=np.int64) * 10,
        [8, 16, 24, 32],
        ghost_allocation=ghosts,
        dense=dense,
        block_values=4,
    )
    assert column._load_order.all()
    return column


class TestLoadOrderFlag:
    """Each write primitive clears the flag of exactly the partitions it
    moves values in; a primitive that forgot would leave an unsorted
    partition flagged and fail ``check_invariants``."""

    @pytest.mark.parametrize(
        ("ghosts", "dense", "write", "cleared"),
        [
            pytest.param([1, 1, 1, 1], None, lambda c: c.insert(15), [0],
                         id="insert-local-slack"),
            pytest.param([0, 0, 0, 2], None, lambda c: c.insert(15), [0, 1, 2, 3],
                         id="insert-rippled"),
            pytest.param([1, 1, 1, 1], None, lambda c: c.remove_one(0), [0],
                         id="remove_one-ghost"),
            pytest.param(None, None, lambda c: c.remove_one(0), [0, 1, 2, 3],
                         id="remove_one-dense"),
            pytest.param([1, 1, 1, 1], None, lambda c: c.update(0, 145), [0, 1],
                         id="update"),
            pytest.param([0, 0, 0, 2], None, lambda c: c.bulk_insert([15, 95]),
                         [0, 1, 2, 3], id="bulk_insert-rippled"),
            pytest.param(None, None, lambda c: c.bulk_delete([0, 80]), [0, 1, 2, 3],
                         id="bulk_delete-dense"),
            pytest.param([1, 1, 1, 1], False, lambda c: c.bulk_delete([0, 80]),
                         [0, 1], id="bulk_delete-ghost"),
            # Growth appends slack after the last partition and moves no
            # live value: every flag survives.
            pytest.param(None, None, lambda c: c._grow(), [], id="grow"),
        ],
    )
    def test_write_clears_the_written_partitions(self, ghosts, dense, write, cleared):
        column = flag_column(ghosts, dense=dense)
        write(column)
        assert np.flatnonzero(~column._load_order).tolist() == cleared
        column.check_invariants()
        values = np.arange(-5, 330, 5)
        hits, counts = column.multi_point_query(values, return_rowids=True)
        ref_hits, ref_counts = reference_point_queries(column, values, True)
        assert counts.tolist() == ref_counts
        assert np.array_equal(hits, ref_hits)

    def test_a_stale_flag_fails_the_invariant_check(self):
        column = flag_column([1, 1, 1, 1])
        column.insert(15)  # partition 0 is now 0, 10, ..., 70, 15
        column._load_order[0] = True
        with pytest.raises(AssertionError, match="load order"):
            column.check_invariants()

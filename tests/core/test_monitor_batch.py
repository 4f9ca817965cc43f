"""Property tests: batched observation is equivalent to per-op observation.

The monitor's ``observe_batch`` is the hot-path ingest (one vectorized
attribution pass per access record); ``observe`` and ``observe_workload``
are thin wrappers over it.  These tests pin the contract the engine relies
on:

* per-chunk **counts** are byte-identical between per-operation dispatch
  (``engine.execute`` one op at a time) and batched dispatch
  (``engine.execute_batch``), including the per-element expansion of the
  ``Multi*`` forms and duplicate runs straddling chunk boundaries;
* the bounded **samples** retain identical sliding windows -- runs keep
  submission order within a record, and paired update records interleave
  source_i/target_i exactly as per-pair dispatch does, so the windows
  agree element-for-element even when a run overflows the sample limit;
* single-record logs ingested via ``observe_batch`` match element-wise
  ``observe`` calls exactly, truncation included;
* any log -- every kind, singleton and multi-element records, with and
  without shuffled positions -- attributes exactly what a per-entry
  reference written here does (``TestAttributionReference``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import WorkloadMonitor
from repro.storage.access_log import (
    ATTRIBUTION_KINDS,
    FIRST_CANDIDATE_KINDS,
    KIND_CODES,
    RANGE_KINDS,
    CallLog,
)
from repro.storage.engine import StorageEngine
from repro.storage.errors import ValueNotFoundError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
)

KEY_DOMAIN = 64


def keys_strategy():
    """Key multisets with duplicate runs likely to straddle chunk bounds."""
    return st.lists(
        st.integers(min_value=0, max_value=KEY_DOMAIN),
        min_size=8,
        max_size=48,
    )


def operations_strategy():
    key = st.integers(min_value=0, max_value=KEY_DOMAIN)
    bounds = st.tuples(key, key).map(lambda p: (min(p), max(p)))
    point = st.builds(PointQuery, key=key)
    range_query = bounds.map(lambda p: RangeQuery(low=p[0], high=p[1]))
    insert = st.builds(Insert, key=key)
    delete = st.builds(Delete, key=key)
    update = st.builds(Update, old_key=key, new_key=key)
    multi_point = st.lists(key, min_size=0, max_size=6).map(
        lambda ks: MultiPointQuery(keys=tuple(ks))
    )
    multi_range = st.lists(bounds, min_size=0, max_size=4).map(
        lambda bs: MultiRangeCount(bounds=tuple(bs))
    )
    multi_insert = st.lists(key, min_size=0, max_size=6).map(
        lambda ks: MultiInsert(keys=tuple(ks))
    )
    multi_delete = st.lists(key, min_size=0, max_size=6).map(
        lambda ks: MultiDelete(keys=tuple(ks))
    )
    multi_update = st.lists(
        st.tuples(key, key), min_size=0, max_size=4
    ).map(lambda ps: MultiUpdate(pairs=tuple(ps)))
    return st.lists(
        st.one_of(
            point,
            range_query,
            insert,
            delete,
            update,
            multi_point,
            multi_range,
            multi_insert,
            multi_delete,
            multi_update,
        ),
        min_size=1,
        max_size=24,
    )


def make_table(table_keys) -> Table:
    spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=4, block_values=8)
    # A small chunk size forces several chunks and lets duplicate runs in
    # the drawn key multiset straddle the chunk boundaries.
    return Table(
        np.asarray(table_keys, dtype=np.int64),
        chunk_size=8,
        chunk_builder=layout_chunk_builder(spec),
        block_values=8,
    )


def run_per_op(table_keys, operations, sample_limit):
    monitor = WorkloadMonitor(sample_limit=sample_limit)
    engine = StorageEngine(make_table(table_keys), monitor=monitor)
    for operation in operations:
        try:
            engine.execute(operation)
        except ValueNotFoundError:
            pass
    return monitor


def run_batched(table_keys, operations, sample_limit):
    monitor = WorkloadMonitor(sample_limit=sample_limit)
    engine = StorageEngine(make_table(table_keys), monitor=monitor)
    engine.execute_batch(operations)
    return monitor


def counts_by_chunk(monitor):
    return {
        chunk: monitor.operation_counts(chunk)
        for chunk in monitor.observed_chunks()
    }


def window(monitor, chunk):
    """One chunk's retained window as ``(code, low, high)`` rows, oldest first."""
    columns = monitor.recorded_sample(chunk)
    return list(zip(*(column.tolist() for column in columns), strict=True))


def sample_sequences(monitor):
    return {chunk: window(monitor, chunk) for chunk in monitor.observed_chunks()}


class TestEngineDispatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(table_keys=keys_strategy(), operations=operations_strategy())
    def test_counts_identical_per_op_vs_batched(self, table_keys, operations):
        per_op = run_per_op(table_keys, operations, sample_limit=4_096)
        batched = run_batched(table_keys, operations, sample_limit=4_096)
        assert counts_by_chunk(per_op) == counts_by_chunk(batched)

    @settings(max_examples=60, deadline=None)
    @given(table_keys=keys_strategy(), operations=operations_strategy())
    def test_samples_identical_per_op_vs_batched(self, table_keys, operations):
        # Records preserve submission order and paired update records
        # interleave source/target per pair, so the retained windows agree
        # element-for-element between the two dispatch paths.
        per_op = run_per_op(table_keys, operations, sample_limit=4_096)
        batched = run_batched(table_keys, operations, sample_limit=4_096)
        assert sample_sequences(per_op) == sample_sequences(batched)

    @pytest.mark.parametrize("limit", [4_096, 3])
    def test_interleaved_reads_keep_submission_order_in_samples(self, limit):
        # Reads group by commutation, so the batch dispatches both point
        # queries before the range count, the SUM and the bulk forms at
        # their own places; the sample windows must still read as
        # submitted -- source_i/target_i interleave of a ``MultiUpdate``
        # dispatched whole included.
        table_keys = [0] * 8 + list(range(1, 17))
        operations = [
            PointQuery(key=0),
            RangeQuery(low=0, high=3),
            PointQuery(key=2),
            RangeQuery(low=0, high=9, aggregate=Aggregate.SUM),
            MultiPointQuery(keys=(5, 0)),
            PointQuery(key=0),
            RangeQuery(low=1, high=1),
            MultiUpdate(pairs=((0, 30), (1, 0))),
            PointQuery(key=0),
            RangeQuery(low=0, high=0),
            PointQuery(key=30),
        ]
        per_op = run_per_op(table_keys, operations, sample_limit=limit)
        batched = run_batched(table_keys, operations, sample_limit=limit)
        assert counts_by_chunk(per_op) == counts_by_chunk(batched)
        assert sample_sequences(per_op) == sample_sequences(batched)

    @settings(max_examples=40, deadline=None)
    @given(
        table_keys=keys_strategy(),
        operations=operations_strategy(),
        limit=st.integers(min_value=0, max_value=7),
    )
    def test_truncated_samples_match(self, table_keys, operations, limit):
        # Sliding-window truncation keeps the same most-recent entries on
        # both paths, so even tiny limits yield identical windows.
        per_op = run_per_op(table_keys, operations, sample_limit=limit)
        batched = run_batched(table_keys, operations, sample_limit=limit)
        assert counts_by_chunk(per_op) == counts_by_chunk(batched)
        assert sample_sequences(per_op) == sample_sequences(batched)
        for chunk in per_op.observed_chunks():
            assert len(window(per_op, chunk)) <= limit

    @settings(max_examples=60, deadline=None)
    @given(table_keys=keys_strategy(), operations=operations_strategy())
    def test_observe_workload_matches_batched_dispatch(
        self, table_keys, operations
    ):
        # Offline seeding must attribute exactly what executing the same
        # workload through the batch executor would (write ops mutate the
        # table but never its routing fences, so attribution agrees).
        batched = run_batched(table_keys, operations, sample_limit=512)
        seeded = WorkloadMonitor(sample_limit=512)
        seeded.observe_workload(make_table(table_keys), operations)
        assert counts_by_chunk(seeded) == counts_by_chunk(batched)


class TestSingleRecordEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        table_keys=keys_strategy(),
        record_keys=st.lists(
            st.integers(min_value=0, max_value=KEY_DOMAIN),
            min_size=1,
            max_size=20,
        ),
        kind=st.sampled_from(
            ["point_query", "insert", "delete", "update_source", "update_target"]
        ),
        limit=st.integers(min_value=0, max_value=8),
    )
    def test_point_record_matches_elementwise_observe(
        self, table_keys, record_keys, kind, limit
    ):
        table = make_table(table_keys)
        per_op = WorkloadMonitor(sample_limit=limit)
        for key in record_keys:
            per_op.observe(table, kind, key)
        batched = WorkloadMonitor(sample_limit=limit)
        log = CallLog()
        log.record(kind, record_keys)
        batched.observe_batch(table, log)
        assert counts_by_chunk(per_op) == counts_by_chunk(batched)
        for chunk in per_op.observed_chunks():
            # Single-kind records preserve submission order, so the
            # retained windows are identical sequences, truncation and all.
            assert window(per_op, chunk) == window(batched, chunk)

    @settings(max_examples=40, deadline=None)
    @given(
        table_keys=keys_strategy(),
        record_bounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=KEY_DOMAIN),
                st.integers(min_value=0, max_value=KEY_DOMAIN),
            ).map(lambda p: (min(p), max(p))),
            min_size=1,
            max_size=12,
        ),
        kind=st.sampled_from(["range_count", "range_sum"]),
        limit=st.integers(min_value=0, max_value=8),
    )
    def test_range_record_matches_elementwise_observe(
        self, table_keys, record_bounds, kind, limit
    ):
        table = make_table(table_keys)
        per_op = WorkloadMonitor(sample_limit=limit)
        for low, high in record_bounds:
            per_op.observe(table, kind, low, high)
        batched = WorkloadMonitor(sample_limit=limit)
        log = CallLog()
        log.record(
            kind,
            [low for low, _ in record_bounds],
            [high for _, high in record_bounds],
        )
        batched.observe_batch(table, log)
        assert counts_by_chunk(per_op) == counts_by_chunk(batched)
        for chunk in per_op.observed_chunks():
            assert window(per_op, chunk) == window(batched, chunk)


class TestAttributionReference:
    """``observe_batch`` against a per-entry reference: every entry of the
    log routed by bisecting the chunk fences, then fed to one
    ``deque(maxlen)`` per chunk in sequence order."""

    @staticmethod
    def _record_specs(data, fences):
        """Drawn records as ``(kind, elements, shared)``: ``elements`` are
        ``(low, high)`` bounds (``(source, target)`` keys of the paired
        ``"update"``, ``high == low`` for the point kinds); ``shared`` gives
        the whole record one position, as a ``Multi*`` dispatched whole."""
        # Keys anywhere in the domain, and on and next to the chunk fences.
        fence_keys = sorted({fence for fence in fences if fence <= KEY_DOMAIN})
        key = st.integers(min_value=0, max_value=KEY_DOMAIN)
        if fence_keys:
            key |= st.builds(
                lambda fence, step: max(fence + step, 0),
                st.sampled_from(fence_keys),
                st.sampled_from([-1, 0, 1]),
            )
        pair = st.tuples(key, key)
        elements = {
            kind: pair.map(sorted).map(tuple) if kind in RANGE_KINDS
            else key.map(lambda k: (k, k))
            for kind in ATTRIBUTION_KINDS
        }
        elements["update"] = pair
        record = st.sampled_from(sorted(elements)).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.lists(elements[kind], min_size=0, max_size=5),
                st.booleans(),
            )
        )
        return data.draw(st.lists(record, min_size=1, max_size=12))

    @staticmethod
    def _entries(kind, elements):
        """A record's sample entries, in order: ``(within, kind, low, high)``."""
        if kind != "update":
            return [(i, kind, low, high) for i, (low, high) in enumerate(elements)]
        entries = []
        for i, (source, target) in enumerate(elements):
            entries.append((2 * i, "update_source", source, source))
            entries.append((2 * i + 1, "update_target", target, target))
        return entries

    @staticmethod
    def _chunks_of(fences, kind, low, high):
        """The chunks one entry attributes to, by the routing rules."""
        last_chunk = len(fences) - 1
        first = min(bisect_left(fences, low), last_chunk)
        if kind in FIRST_CANDIDATE_KINDS:
            return [first]
        last = min(bisect_right(fences, high), last_chunk)
        return range(first, max(first, last) + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        table_keys=keys_strategy(),
        limit=st.sampled_from([0, 3, 4_096]),
        positioned=st.booleans(),
        data=st.data(),
    )
    def test_any_log_matches_per_entry_reference(
        self, table_keys, limit, positioned, data
    ):
        table = make_table(table_keys)
        fences = table.router.fences.tolist()
        specs = self._record_specs(data, fences)
        # One slot per operation, one for a record sharing its position; a
        # positioned log hands the slots out shuffled, as a batch that
        # dispatched its groups out of submission order does.
        widths = [1 if shared else len(elements) for _, elements, shared in specs]
        slots = list(range(sum(widths)))
        if positioned:
            slots = data.draw(st.permutations(slots))

        log = CallLog()
        reference = []
        for (kind, elements, shared), width in zip(specs, widths, strict=True):
            taken, slots = slots[:width], slots[width:]
            if positioned:
                log.positions = taken
            log.record(
                kind,
                [low for low, _ in elements],
                None
                if kind in KIND_CODES and kind not in RANGE_KINDS
                else [high for _, high in elements],
            )
            per_operation = 2 if kind == "update" else 1
            for within, entry_kind, low, high in self._entries(kind, elements):
                slot = taken[0] if shared else taken[within // per_operation]
                reference.append(((slot, within), entry_kind, low, high))
        monitor = WorkloadMonitor(sample_limit=limit)
        monitor.observe_batch(table, log)

        counts: dict[int, Counter] = {}
        windows: dict[int, deque] = {}
        for _, kind, low, high in sorted(reference, key=lambda entry: entry[0]):
            for chunk in self._chunks_of(fences, kind, low, high):
                counts.setdefault(chunk, Counter())[kind] += 1
                windows.setdefault(chunk, deque(maxlen=limit)).append(
                    (KIND_CODES[kind], low, high)
                )
        assert counts_by_chunk(monitor) == {
            chunk: dict(counts[chunk]) for chunk in sorted(counts)
        }
        for chunk in range(table.num_chunks):
            assert window(monitor, chunk) == list(windows.get(chunk, ()))


@pytest.mark.concurrency
class TestConcurrentFlush:
    """Two writer threads flushing one monitor.

    The monitor's ingest lock serializes whole-record ingestion, so (a) no
    count update is lost to a racing increment, (b) each record's entries
    stay contiguous and in submission order inside the shared ring buffer,
    and (c) the paired-update source_i/target_i interleave survives even
    when truncation replaces the window mid-stress -- the regression the
    concurrent-flush fix targets.
    """

    @staticmethod
    def _single_chunk_table() -> Table:
        # One chunk: every key attributes to chunk 0, so both threads
        # contend on one chunk (the worst case for the window).
        spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=4, block_values=8)
        return Table(
            np.arange(0, 64, 2, dtype=np.int64),
            chunk_size=1_024,
            chunk_builder=layout_chunk_builder(spec),
            block_values=8,
        )

    @staticmethod
    def _flush_point_records(monitor, table, keys_per_record, records, barrier):
        barrier.wait(timeout=30.0)
        for record_keys in keys_per_record[:records]:
            log = CallLog()
            log.record("point_query", record_keys)
            monitor.observe_batch(table, log)

    def test_counts_exact_with_two_writer_threads(self, tight_switch_interval):
        table = self._single_chunk_table()
        monitor = WorkloadMonitor(sample_limit=64)
        records, width = 40, 8
        streams = [
            [[100 * t + i for i in range(width)] for _ in range(records)]
            for t in (1, 2)
        ]
        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(
                target=self._flush_point_records,
                args=(monitor, table, stream, records, barrier),
            )
            for stream in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        counts = monitor.operation_counts(0)
        assert counts == {"point_query": 2 * records * width}

    def test_sequence_equality_per_thread_with_two_writers(
        self, tight_switch_interval
    ):
        # Disjoint key ranges per thread: filtering the shared window by
        # origin must reproduce each thread's exact submission sequence --
        # the same sequence-equality contract the single-threaded property
        # tests pin, now under concurrent flushes (no truncation here, so
        # nothing may be lost either).
        table = self._single_chunk_table()
        monitor = WorkloadMonitor(sample_limit=4_096)
        records, width = 30, 8
        streams = [
            [
                [1_000 * t + r * width + i for i in range(width)]
                for r in range(records)
            ]
            for t in (1, 2)
        ]
        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(
                target=self._flush_point_records,
                args=(monitor, table, stream, records, barrier),
            )
            for stream in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        rows = window(monitor, 0)
        assert len(rows) == 2 * records * width
        for t, stream in zip((1, 2), streams):
            submitted = [
                (KIND_CODES["point_query"], key, key)
                for record in stream
                for key in record
            ]
            observed = [row for row in rows if row[1] // 1_000 == t]
            assert observed == submitted

    def test_paired_update_interleave_survives_truncation(
        self, tight_switch_interval
    ):
        # Each thread flushes one paired update record whose interleaved
        # source/target entries exceed the window; after both land, the
        # retained window must be a clean suffix of one thread's interleave
        # -- never a torn mix of half-written entries.
        table = self._single_chunk_table()
        limit = 7
        pairs = 8

        def interleave(base: int) -> list[tuple[int, int, int]]:
            ops = []
            for i in range(pairs):
                source, target = base + i, base + 500 + i
                ops.append((KIND_CODES["update_source"], source, source))
                ops.append((KIND_CODES["update_target"], target, target))
            return ops

        expectations = []
        for base in (1_000, 3_000):
            expectations.append(interleave(base)[-limit:])

        monitor = WorkloadMonitor(sample_limit=limit)
        barrier = threading.Barrier(2)

        def flush(base: int) -> None:
            barrier.wait(timeout=30.0)
            log = CallLog()
            log.record(
                "update",
                [base + i for i in range(pairs)],
                [base + 500 + i for i in range(pairs)],
            )
            monitor.observe_batch(table, log)

        threads = [
            threading.Thread(target=flush, args=(base,))
            for base in (1_000, 3_000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert window(monitor, 0) in expectations, (
            "truncated window must be one record's clean interleave suffix"
        )
        counts = monitor.operation_counts(0)
        assert counts == {
            "update_source": 2 * pairs,
            "update_target": 2 * pairs,
        }

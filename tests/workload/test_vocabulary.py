"""Vocabulary completeness: every operation kind states every fact.

``repro.workload.operations`` is the one module that knows what a kind is;
the engine, monitor, planner, codec and shard router read its facts.  A new
kind that forgets one fails here, not in production.
"""

from __future__ import annotations

from typing import get_args

import numpy as np
import pytest

from repro.api import Database
from repro.durability.wal import decode_delta_log, scan_segment, segment_first_lsn
from repro.ipc.shm import ShmArena
from repro.sharding.codec import ArenaReader, ArenaWriter, decode_operations, encode_ops
from repro.sharding.database import resolve
from repro.storage.access_log import ATTRIBUTION_KINDS, PAIRED_UPDATE_KIND, CallLog
from repro.storage.engine import StorageEngine
from repro.storage.errors import ValueNotFoundError
from repro.storage.layouts import LayoutKind
from repro.workload.operations import (
    WRITE_KINDS,
    Aggregate,
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    Operation,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
    is_write,
    split,
)

#: At least one example per member of the union; keys 0, 2, .. 398 are
#: loaded, so every example mixes hits with (odd-key) misses.
EXAMPLES = [
    PointQuery(key=10),
    PointQuery(key=11, columns=("b",)),
    RangeQuery(low=5, high=40),
    RangeQuery(low=0, high=90, aggregate=Aggregate.SUM, columns=("a",)),
    Insert(key=21, payload=(7, 8)),
    Insert(key=23),
    Delete(key=30),
    Delete(key=31),
    Update(old_key=40, new_key=41),
    Update(old_key=43, new_key=45),
    MultiPointQuery(keys=(10, 11, 12, 10), columns=("a",)),
    MultiPointQuery(keys=()),
    MultiRangeCount(bounds=((0, 10), (7, 7), (50, 390))),
    MultiInsert(keys=(21, 23, 21), payloads=((1, 2), (3, 4), (5, 6))),
    MultiInsert(keys=(25, 27)),
    MultiDelete(keys=(30, 31, 32, 30)),
    MultiUpdate(pairs=((40, 41), (43, 45), (41, 47))),
]


def test_examples_cover_the_union():
    assert {type(op) for op in EXAMPLES} == set(get_args(Operation))


def fresh_database(**kwargs) -> Database:
    keys = np.arange(200, dtype=np.int64) * 2
    payload = np.stack([keys + 1, keys * 3], axis=1)
    return Database.from_rows(
        keys,
        payload,
        layout=LayoutKind.EQUI,
        chunk_size=64,
        block_values=8,
        partitions=4,
        payload_names=["a", "b"],
        **kwargs,
    )


def fresh_engine() -> StorageEngine:
    return fresh_database().engine


def count_level(result):
    """A result with row identity dropped: rows become their count, row
    ids (allocation-order artifacts) are left to the caller."""
    if isinstance(result, list):
        return len(result)
    return result


@pytest.mark.parametrize("op", EXAMPLES, ids=repr)
class TestEveryKind:
    def test_request_record_round_trip(self, op):
        # One record per operation: the worker runs the batched kind its
        # attribution replays as, with the same keys, bounds, payload rows
        # and (resolved) columns.
        for arena in (None, ShmArena.create(1 << 12)):
            encoded = encode_ops([resolve(op, ("a", "b"))], ArenaWriter(arena))
            [decoded] = decode_operations(encoded, ArenaReader(arena), ("a", "b"))
            if arena is not None:
                arena.close()
            log = CallLog()
            log.record(*decoded.attribution())
            [record] = log.records
            assert_is_attribution(record, op)
            if record.kind == "insert":
                assert decoded.payloads.tolist() == inserted_rows(op)
            if record.kind in ("point_query", "range_sum"):
                assert decoded.columns == (op.columns or ("a", "b"))

    def test_write_flag_agrees_with_write_kinds(self, op):
        assert is_write(op) == (op.kind in WRITE_KINDS)
        # A read must leave the table alone.
        engine = fresh_engine()
        before = np.sort(engine.table.keys()).tolist()
        try:
            engine.execute(op)
        except ValueNotFoundError:
            pass
        changed = np.sort(engine.table.keys()).tolist() != before
        assert not changed or is_write(op)

    def test_attribution_is_a_known_kind(self, op):
        kind, lows, highs = op.attribution()
        assert kind in ATTRIBUTION_KINDS or kind == PAIRED_UPDATE_KIND
        assert highs is None or len(highs) == len(lows)
        assert len(lows) == len(op.scalars())

    def test_scalar_expansion_executes_the_same(self, op):
        scalars = op.scalars()
        assert all(scalar.scalars() == (scalar,) for scalar in scalars)

        batched_engine, serial_engine = fresh_engine(), fresh_engine()
        serial, serial_errors = [], 0
        for scalar in scalars:
            try:
                serial.append(serial_engine.execute(scalar))
            except ValueNotFoundError:
                serial.append(None)
                serial_errors += 1
        if scalars == (op,):
            try:
                results, errors = [batched_engine.execute(op)], 0
            except ValueNotFoundError:
                results, errors = [None], 1
        else:
            results, errors = op.scalar_results(batched_engine.execute(op))
        assert errors == serial_errors
        if op.kind.value.endswith("insert"):
            # Row ids are allocation order: compare by success.
            assert [r is not None for r in results] == [
                r is not None for r in serial
            ]
        else:
            assert [count_level(r) for r in results] == [
                count_level(r) for r in serial
            ]
        # Contents as a multiset: physical order inside a partition is
        # an artifact of the write order.
        assert (
            np.sort(batched_engine.table.keys()).tolist()
            == np.sort(serial_engine.table.keys()).tolist()
        )
        batched_engine.table.check_invariants()

    def test_runs_fold_back_into_the_batched_kind(self, op):
        scalars = op.scalars()
        keys = {scalar.group_key for scalar in scalars}
        if scalars == (op,) or not scalars or None in keys:
            return
        # One group key per batched kind, and the batched constructor is
        # the inverse of the expansion (payload-less inserts aside, whose
        # payloads the constructor leaves to the table).
        assert len(keys) == 1 and op.group_key is None
        assert type(scalars[0]).batched(scalars) == op


#: The ``EngineStatistics`` key each kind's dispatch counts under.
RESULT_KINDS = {
    PointQuery: "point_query",
    Insert: "insert",
    Delete: "delete",
    Update: "update",
    MultiPointQuery: "multi_point_query",
    MultiRangeCount: "multi_range_count",
    MultiInsert: "multi_insert",
    MultiDelete: "multi_delete",
    MultiUpdate: "multi_update",
}


def result_kind(op) -> str:
    if isinstance(op, RangeQuery):
        return "range_count" if op.aggregate is Aggregate.COUNT else "range_sum"
    return RESULT_KINDS[type(op)]


def execute_kind(engine, op) -> str | None:
    """Run ``op``; the one ``engine.statistics.operations`` key its
    dispatch counted under, or ``None`` for a miss (which counts nothing)."""
    before = dict(engine.statistics.operations)
    try:
        engine.execute(op)
    except ValueNotFoundError:
        assert engine.statistics.operations == before
        return None
    after = engine.statistics.operations
    (kind,) = [name for name, count in after.items() if count != before.get(name, 0)]
    assert after[kind] == before.get(kind, 0) + 1
    return kind


def wal_logs(root) -> list:
    segments = sorted(
        (root / "wal").glob("wal-*.log"), key=lambda p: segment_first_lsn(p.name)
    )
    return [
        decode_delta_log(body)
        for segment in segments
        for _, body in scan_segment(segment).records
    ]


def assert_is_attribution(record, op) -> None:
    kind, keys, highs = op.attribution()
    assert record.kind == kind
    assert record.keys.tolist() == np.asarray(keys, dtype=np.int64).tolist()
    if highs is None:
        assert record.highs is None
    else:
        assert record.highs.tolist() == np.asarray(highs, dtype=np.int64).tolist()


def inserted_rows(op) -> list:
    """The payload rows an insert stores: zeros where none was given."""
    if isinstance(op, Insert):
        return [list(op.payload or (0, 0))]
    if op.payloads is None:
        return [[0, 0]] * len(op.keys)
    return [list(row) for row in op.payloads]


@pytest.mark.parametrize("op", [*EXAMPLES, MultiInsert(keys=())], ids=repr)
class TestTheRecordIsTheAttribution:
    """``engine.execute(op)`` logs one record: ``op.attribution()``, plus the
    insert payload rows when a durability manager will encode them."""

    def test_monitored_memory_engine(self, op, monkeypatch):
        db = fresh_database(monitor=True)
        logs = []
        observe = db.monitor.observe_batch

        def capture(table, log):
            logs.append(list(log.records))
            return observe(table, log)

        monkeypatch.setattr(db.monitor, "observe_batch", capture)
        kind = execute_kind(db.engine, op)
        assert kind in (None, result_kind(op))
        assert len(logs) == 1 and len(logs[0]) == 1
        (record,) = logs[0]
        assert_is_attribution(record, op)
        # Nothing will encode them, so no payload rows are carried.
        assert record.payloads is None

    def test_durable_engine(self, op, tmp_path):
        db = fresh_database(durability=tmp_path)
        before = len(wal_logs(tmp_path))
        kind = execute_kind(db.engine, op)
        logs = wal_logs(tmp_path)[before:]
        db.close()
        assert kind in (None, result_kind(op))
        if not is_write(op):
            assert logs == []
            return
        assert len(logs) == 1 and len(logs[0].records) == 1
        (record,) = logs[0].records
        assert_is_attribution(record, op)
        if record.kind == "insert":
            assert record.payloads.tolist() == inserted_rows(op)
            assert record.payloads.shape == (len(record.keys), 2)
        else:
            assert record.payloads is None


def test_scalar_writes_state_their_written_keys():
    # What ``plan_batch`` checks before it regroups a write: exactly the
    # key fields of the attribution, sources then targets.
    scalar_writes = [
        op for op in EXAMPLES if is_write(op) and op.scalars() == (op,)
    ]
    assert {type(op) for op in scalar_writes} == {Insert, Delete, Update}
    for op in scalar_writes:
        _, lows, highs = op.attribution()
        assert op.written_keys == (*lows, *(highs or ()))
        assert op.group_key is not None


def test_split_slices_every_row_aligned_field():
    op = MultiInsert(keys=(1, 2, 3), payloads=((1, 1), (2, 2), (3, 3)))
    pieces = split(op, np.asarray([1, 0, 1]))
    assert [(label, positions.tolist()) for label, positions, _ in pieces] == [
        (0, [1]),
        (1, [0, 2]),
    ]
    (_, _, low), (_, _, high) = pieces
    assert isinstance(high, MultiInsert)
    assert high.keys.dtype == np.int64 and high.keys.tolist() == [1, 3]
    assert high.payloads.tolist() == [[1, 1], [3, 3]]
    assert low.keys.tolist() == [2] and low.payloads.tolist() == [[2, 2]]
    ((_, _, sub),) = split(MultiInsert(keys=(1, 2)), np.asarray([4, 4]))
    assert sub.keys.tolist() == [1, 2] and sub.payloads is None
    (_, (_, _, sub)) = split(
        MultiPointQuery(keys=(5, 6, 7), columns=("a",)), np.asarray([0, 1, 0])
    )
    assert sub.keys.tolist() == [6] and sub.columns == ("a",)
    (_, (_, _, sub)) = split(
        MultiUpdate(pairs=((1, 2), (3, 4))), np.asarray([0, 1])
    )
    assert sub.pairs.tolist() == [[3, 4]]
    assert sub.attribution()[1].tolist() == [3]


class TestMultiUpdatePairs:
    """``pairs`` is a tuple of pairs (checked pair by pair) or an ``(n, 2)``
    array, as a replayed update record carries (checked by shape)."""

    PAIRS = ((40, 41), (43, 45), (41, 47), (398, 1))

    def test_array_and_tuple_pairs_run_alike(self):
        by_tuple = fresh_database().table
        by_array = fresh_database().table
        expected = MultiUpdate(self.PAIRS).run(by_tuple)
        result = MultiUpdate(np.array(self.PAIRS, dtype=np.int64)).run(by_array)
        assert result.tolist() == expected.tolist()
        assert np.array_equal(by_array.scan(), by_tuple.scan())
        assert MultiUpdate(np.empty((0, 2), dtype=np.int64)).run(by_array).size == 0

    @pytest.mark.parametrize(
        "pairs",
        [np.arange(4), np.zeros((2, 3)), np.zeros((2, 2, 1)), np.zeros((2, 1))],
        ids=lambda pairs: str(pairs.shape),
    )
    def test_array_of_a_bad_shape_raises(self, pairs):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            MultiUpdate(pairs)

    def test_tuple_pair_of_a_bad_length_raises(self):
        with pytest.raises(ValueError, match="tuples"):
            MultiUpdate(((1, 2), (3, 4, 5)))


class TestMultiRangeCountBounds:
    """``bounds`` is a tuple of pairs (checked pair by pair) or an ``(n, 2)``
    array, as a decoded range-count record carries (checked by shape and
    one vectorised comparison)."""

    BOUNDS = ((0, 10), (7, 7), (50, 390), (391, 500))

    def test_array_and_tuple_bounds_run_alike(self):
        table = fresh_database().table
        expected = MultiRangeCount(self.BOUNDS).run(table)
        result = MultiRangeCount(np.array(self.BOUNDS, dtype=np.int64)).run(table)
        assert result.tolist() == expected.tolist()
        empty = MultiRangeCount(np.empty((0, 2), dtype=np.int64))
        assert empty.run(table).size == 0

    @pytest.mark.parametrize(
        "bounds",
        [np.arange(4), np.zeros((2, 3)), np.zeros((2, 2, 1)), np.zeros((2, 1))],
        ids=lambda bounds: str(bounds.shape),
    )
    def test_array_of_a_bad_shape_raises(self, bounds):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            MultiRangeCount(bounds)

    @pytest.mark.parametrize(
        "bounds", [((5, 4),), np.array([[0, 1], [5, 4]])], ids=["tuple", "array"]
    )
    def test_inverted_range_raises(self, bounds):
        with pytest.raises(ValueError, match="low must be <= high"):
            MultiRangeCount(bounds)


def test_mixed_payload_insert_run_pads_with_zero_rows():
    run = [Insert(key=1, payload=(4, 5)), Insert(key=2)]
    assert Insert.batched(run) == MultiInsert(
        keys=(1, 2), payloads=((4, 5), (0, 0))
    )
    assert Insert.batched(run[1:]) == MultiInsert(keys=(2,))


class TestBulkFormTrainingSample:
    """A training sample in bulk form trains exactly as its scalars do."""

    def sample(self):
        rng = np.random.default_rng(5)
        hot = rng.integers(0, 500, size=400).tolist()
        points = [PointQuery(key=key) for key in hot]
        inserts = [Insert(key=int(k)) for k in rng.integers(2_000, 2_400, 60)]
        deletes = [Delete(key=int(k)) for k in rng.integers(3_000, 3_300, 60)]
        updates = [
            Update(old_key=int(a), new_key=int(b))
            for a, b in rng.integers(1_000, 1_900, (40, 2))
        ]
        ranges = [
            RangeQuery(low=int(lo), high=int(lo) + 300)
            for lo in rng.integers(2_500, 3_500, 30)
        ]
        scalar = points + inserts + deletes + updates + ranges
        folded = [
            PointQuery.batched(points),
            Insert.batched(inserts),
            Delete.batched(deletes),
            Update.batched(updates),
            RangeQuery.batched(ranges),
        ]
        return scalar, folded

    def boundaries(self, operations):
        keys = np.arange(4_096, dtype=np.int64)
        db = Database.plan_for(
            Workload(operations=operations),
            keys,
            chunk_size=2_048,
            block_values=16,
        )
        return [plan.boundaries.tolist() for plan in db.planner.plans]

    def test_plan_for_ignores_the_form_of_the_sample(self):
        scalar, folded = self.sample()
        as_scalars = self.boundaries(scalar)
        assert as_scalars == self.boundaries(folded)
        # The sample does shape the layout: hot chunk 0 is cut finer.
        assert len(as_scalars[0]) > 1

    def test_single_multi_point_query_trains_like_its_lookups(self):
        # The case from the issue: 400 lookups on 500 hot keys.
        scalar, _ = self.sample()
        points = scalar[:400]
        assert self.boundaries(points) == self.boundaries(
            [PointQuery.batched(points)]
        )

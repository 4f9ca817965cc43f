"""Execution-policy equivalence: serial vs. vectorized dispatch.

The policy contract (see :mod:`repro.api.policies`) is property-tested on
randomized mixed workloads over a multi-chunk table whose key column holds a
duplicate run straddling a chunk boundary:

* results are identical across the policies, in submission order;
* simulated access counts are identical for read/update workloads and never
  larger than serial dispatch for insert/delete runs (coalesced sweeps);
* the final table state is identical and structurally valid.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.database import Database
from repro.api.policies import ExecutionPolicy, SerialPolicy, VectorizedPolicy
from repro.storage.engine import StorageEngine, plan_batch
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiInsert,
    PointQuery,
    RangeQuery,
    Update,
)

#: The duplicated key whose run straddles the first chunk boundary.
STRADDLE_KEY = 500

#: Number of copies of :data:`STRADDLE_KEY` loaded into the table.
STRADDLE_COPIES = 13

CHUNK_SIZE = 256


def base_keys() -> np.ndarray:
    """512 keys: unique evens plus a duplicate run straddling chunk 0/1.

    The first 250 positions hold ``0, 2, ..., 498``; positions 250..262 all
    hold :data:`STRADDLE_KEY`; the rest continue ``502, 504, ...``.  With
    ``chunk_size=256`` the duplicate run crosses the chunk boundary, which
    is exactly the case the batched probes must keep exact.
    """
    return np.concatenate(
        (
            np.arange(0, STRADDLE_KEY, 2, dtype=np.int64),
            np.full(STRADDLE_COPIES, STRADDLE_KEY, dtype=np.int64),
            np.arange(STRADDLE_KEY + 2, 998, 2, dtype=np.int64),
        )
    )


def build_engine() -> StorageEngine:
    keys = base_keys()
    payload = np.arange(keys.shape[0] * 2, dtype=np.int64).reshape(-1, 2)
    spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=8, block_values=32)
    table = Table(
        keys,
        payload,
        chunk_size=CHUNK_SIZE,
        chunk_builder=layout_chunk_builder(spec),
        block_values=32,
    )
    assert table.num_chunks == 2
    return StorageEngine(table)


def read_workload(rng: np.random.Generator, size: int) -> list:
    """Point/range reads, including straddling duplicates and misses."""
    operations = []
    for _ in range(size):
        kind = rng.integers(0, 4)
        if kind == 0:
            # Mix hits, the straddling duplicate, and odd-key misses.
            key = int(
                rng.choice(
                    [int(rng.integers(0, 1_000)), STRADDLE_KEY, 501, 999]
                )
            )
            operations.append(PointQuery(key=key))
        elif kind == 1:
            key = int(rng.integers(0, 1_000))
            operations.append(PointQuery(key=key, columns=("a1",)))
        elif kind == 2:
            low = int(rng.integers(0, 900))
            operations.append(
                RangeQuery(low=low, high=low + int(rng.integers(0, 200)))
            )
        else:
            low = int(rng.integers(0, 900))
            operations.append(
                RangeQuery(
                    low=low,
                    high=low + int(rng.integers(0, 200)),
                    aggregate=Aggregate.SUM,
                )
            )
    return operations


def mixed_workload(rng: np.random.Generator, size: int) -> list:
    """Reads plus writes, keeping the write targets unambiguous.

    Deletes and update sources draw (without replacement) from disjoint
    pools of keys that are *unique* in the table, and inserted/update-target
    keys are fresh odd values -- the regime in which the bulk write paths
    are exactly result-equivalent to serial dispatch (see the duplicate-key
    caveat on ``StorageEngine.execute_batch``).  Reads still cover the
    straddling duplicate run.
    """
    evens = rng.permutation(np.arange(0, STRADDLE_KEY, 2))
    delete_pool = [int(k) for k in evens[:40]]
    update_pool = [int(k) for k in evens[40:80]]
    fresh = iter(
        (2 * rng.permutation(np.arange(2_000, 4_000)) + 1).tolist()
    )
    operations = []
    for _ in range(size):
        kind = rng.integers(0, 5)
        if kind == 0:
            operations.extend(read_workload(rng, 1))
        elif kind == 1:
            operations.append(Insert(key=int(next(fresh))))
        elif kind == 2 and delete_pool:
            operations.append(Delete(key=delete_pool.pop()))
        elif kind == 3 and update_pool:
            operations.append(
                Update(old_key=update_pool.pop(), new_key=int(next(fresh)))
            )
        else:
            key = int(rng.choice([STRADDLE_KEY, int(rng.integers(0, 1_000))]))
            operations.append(PointQuery(key=key))
    return operations


def policies(rng: np.random.Generator) -> list[ExecutionPolicy]:
    return [
        SerialPolicy(),
        VectorizedPolicy(batch_size=int(rng.integers(1, 96))),
        # Large slices and their tails.
        VectorizedPolicy(batch_size=int(rng.integers(96, 256))),
    ]


def run_policy(policy: ExecutionPolicy, operations: list):
    """A fresh engine and ``policy``'s ``(results, errors, batch_sizes)``."""
    engine = build_engine()
    return engine, *policy.execute(engine, operations)


def normalized(results: list) -> list:
    """Sort multi-row point-query hits by (key, rowid).

    Bulk deletes replay in ascending key order, which can leave surviving
    *duplicate* copies at different physical positions than submission-order
    deletes would (the documented ``execute_batch`` caveat), so a later
    point query may return the same hit set in a different order.  Row
    *sets* must still match exactly.
    """
    out = []
    for result in results:
        if isinstance(result, list):
            out.append(
                sorted(result, key=lambda row: (row.key, row.rowid))
            )
        else:
            out.append(result)
    return out


class TestPolicyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 120))
    def test_read_workloads_fully_identical(self, seed, size):
        rng = np.random.default_rng(seed)
        operations = read_workload(rng, size)
        serial_engine, serial, serial_errors, _ = run_policy(
            SerialPolicy(), operations
        )
        assert len(serial) == len(operations)
        for policy in policies(rng)[1:]:
            engine, results, errors, _ = run_policy(policy, operations)
            assert results == serial
            assert errors == serial_errors
            # Reads are exact on the batched paths: every counter field
            # matches per-operation dispatch.
            assert engine.counter.snapshot() == serial_engine.counter.snapshot()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 120))
    def test_mixed_workloads_identical_results_bounded_charges(
        self, seed, size
    ):
        rng = np.random.default_rng(seed)
        operations = mixed_workload(rng, size)
        serial_engine, serial, serial_errors, _ = run_policy(
            SerialPolicy(), operations
        )
        serial_counts = serial_engine.counter.snapshot()
        for policy in policies(rng)[1:]:
            engine, results, errors, _ = run_policy(policy, operations)
            assert normalized(results) == normalized(serial)
            assert errors == serial_errors
            counts = engine.counter.snapshot()
            assert counts.index_probes == serial_counts.index_probes
            for field in (
                "random_reads",
                "random_writes",
                "seq_reads",
                "seq_writes",
            ):
                assert getattr(counts, field) <= getattr(serial_counts, field)
            assert np.array_equal(
                np.sort(engine.table.keys()),
                np.sort(serial_engine.table.keys()),
            )
            engine.table.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60))
    def test_update_runs_exactly_identical(self, seed, size):
        # Key updates are applied in submission order on the bulk path, so
        # even *duplicate* sources and consecutive update runs must match
        # per-operation dispatch exactly -- results and every counter field.
        rng = np.random.default_rng(seed)
        fresh = iter((2 * rng.permutation(np.arange(5_000, 8_000)) + 1).tolist())
        operations = []
        for _ in range(size):
            old = int(
                rng.choice([STRADDLE_KEY, int(rng.integers(0, 1_000))])
            )
            operations.append(Update(old_key=old, new_key=int(next(fresh))))
        serial_engine, serial, serial_errors, _ = run_policy(
            SerialPolicy(), operations
        )
        for policy in policies(rng)[1:]:
            engine, results, errors, _ = run_policy(policy, operations)
            assert results == serial
            assert errors == serial_errors
            assert engine.counter.snapshot() == serial_engine.counter.snapshot()
            assert np.array_equal(
                np.sort(engine.table.keys()),
                np.sort(serial_engine.table.keys()),
            )


@pytest.mark.parametrize(
    "policy", [SerialPolicy(), VectorizedPolicy(batch_size=8)], ids=repr
)
def test_a_non_operation_is_refused_before_dispatch(policy, tmp_path):
    # Dispatch strategy never changes semantics: a call holding a
    # non-operation applies none of its operations under either policy.
    db = Database.from_rows(np.arange(0, 1000, 2), durability=tmp_path)
    try:
        lsn = db.durability.last_lsn
        with db.session(execution=policy) as session:
            with pytest.raises(TypeError, match="str"):
                session.execute([Insert(3), "oops"])
        assert db.num_rows == 500
        assert db.durability.last_lsn == lsn
    finally:
        db.close()


class TestVectorizedPolicy:
    def test_returns_its_slice_sizes(self):
        operations = read_workload(np.random.default_rng(1), 50)
        serial_engine, serial, _, serial_sizes = run_policy(
            SerialPolicy(), operations
        )
        engine, results, _, sizes = run_policy(
            VectorizedPolicy(batch_size=16), operations
        )
        # Fixed slices, then the tail; serial dispatch has no slices.
        assert sizes == [16, 16, 16, 2]
        assert serial_sizes == []
        assert results == serial
        assert engine.counter.snapshot() == serial_engine.counter.snapshot()

    def test_empty_call_dispatches_nothing(self):
        engine, results, errors, sizes = run_policy(
            VectorizedPolicy(batch_size=8), []
        )
        assert (results, errors, sizes) == ([], 0, [])
        assert engine.counter.snapshot() == build_engine().counter.snapshot()

    def test_one_engine_batch_per_slice(self, monkeypatch):
        engine = build_engine()
        slices = []
        execute_batch = engine.execute_batch

        def recording(operations):
            slices.append(len(operations))
            return execute_batch(operations)

        monkeypatch.setattr(engine, "execute_batch", recording)
        operations = read_workload(np.random.default_rng(3), 40)
        # Any iterable is accepted, not only a sequence.
        results, _, sizes = VectorizedPolicy(batch_size=16).execute(
            engine, (op for op in operations)
        )
        assert slices == sizes == [16, 16, 8]
        assert len(results) == 40

    def test_not_found_operations_count_as_errors(self):
        operations = [
            PointQuery(key=2),
            PointQuery(key=501),
            Delete(key=999),
            PointQuery(key=STRADDLE_KEY),
            Update(old_key=997, new_key=1_001),
        ]
        _, serial, serial_errors, _ = run_policy(SerialPolicy(), operations)
        _, vectorized, vectorized_errors, _ = run_policy(
            VectorizedPolicy(batch_size=2), operations
        )
        for results, errors in (
            (serial, serial_errors),
            (vectorized, vectorized_errors),
        ):
            # A point-query miss is an empty result; a write miss is None.
            assert errors == 2
            assert results[1] == []
            assert [r is None for r in results] == [
                False, False, True, False, True
            ]
        assert vectorized == serial

    def test_policies_are_stateless_values(self):
        # Frozen: nothing a call could leave behind for the next one.
        policy = VectorizedPolicy(batch_size=8)
        engine = build_engine()
        rng = np.random.default_rng(2)
        assert policy.execute(engine, read_workload(rng, 20))[2] == [8, 8, 4]
        assert policy.execute(engine, read_workload(rng, 5))[2] == [5]
        assert policy == VectorizedPolicy(8)
        with pytest.raises(AttributeError):
            policy.batch_size = 16
        assert isinstance(SerialPolicy(), ExecutionPolicy)
        assert isinstance(policy, ExecutionPolicy)

    def test_policies_take_only_their_options(self):
        assert VectorizedPolicy(256).batch_size == 256
        assert VectorizedPolicy().batch_size == 256
        with pytest.raises(TypeError):
            VectorizedPolicy(chosen_batch_sizes=[1])
        with pytest.raises(TypeError):
            SerialPolicy(1)


#: Keys the interleaving tests draw from: the straddling duplicate run, its
#: unique neighbours, and odd keys that only exist once a test inserts them
#: -- few enough that inserts, deletes and updates keep colliding.
INTERLEAVED_KEY_VALUES = [STRADDLE_KEY, 498, 502, 0, 996, 501, 503, 999]
INTERLEAVED_KEYS = st.sampled_from(INTERLEAVED_KEY_VALUES)

INTERLEAVED_READS = st.one_of(
    st.builds(PointQuery, key=INTERLEAVED_KEYS),
    st.builds(PointQuery, key=INTERLEAVED_KEYS, columns=st.just(("a1",))),
    st.builds(
        lambda low, width, aggregate: RangeQuery(low, low + width, aggregate),
        INTERLEAVED_KEYS,
        st.integers(0, 40),
        st.sampled_from(Aggregate),
    ),
)

INTERLEAVED_WRITES = st.one_of(
    st.builds(
        Insert,
        key=INTERLEAVED_KEYS,
        payload=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    ),
    st.builds(Delete, key=INTERLEAVED_KEYS),
    st.builds(Update, old_key=INTERLEAVED_KEYS, new_key=INTERLEAVED_KEYS),
)


class TestCommutingReads:
    """Reads group across a write-free stretch; writes are barriers."""

    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(INTERLEAVED_READS, INTERLEAVED_WRITES), max_size=60
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interleavings_equal_serial_dispatch(self, operations, seed):
        # Row *sets* are compared (``normalized``): a grouped delete run may
        # leave the surviving copies of a duplicated key in another physical
        # order than submission-order deletes do, as it did before reads
        # grouped by commutation.
        _, serial, serial_errors, _ = run_policy(SerialPolicy(), operations)
        for policy in policies(np.random.default_rng(seed))[1:]:
            engine, results, errors, _ = run_policy(policy, operations)
            assert normalized(results) == normalized(serial)
            assert errors == serial_errors
            engine.table.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(INTERLEAVED_READS, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_read_only_interleavings_charge_what_serial_does(
        self, operations, seed
    ):
        serial_engine, serial, _, _ = run_policy(SerialPolicy(), operations)
        for policy in policies(np.random.default_rng(seed))[1:]:
            engine, results, _, _ = run_policy(policy, operations)
            assert results == serial
            assert engine.counter.snapshot() == serial_engine.counter.snapshot()

    def test_writes_are_barriers(self):
        key = 501  # absent until inserted
        operations = [
            PointQuery(key),
            Insert(key, (7, 8)),
            PointQuery(key),
            Delete(key),
            PointQuery(key),
        ]
        _, results, _, _ = run_policy(VectorizedPolicy(batch_size=256), operations)
        miss, rowid, hit, _, miss_again = results
        assert miss == [] and miss_again == []
        assert [(row.key, row.rowid) for row in hit] == [(key, rowid)]
        assert hit[0].payload == {"a1": 7, "a2": 8}

    def test_one_dispatch_per_read_group_per_write_free_stretch(self):
        rng = np.random.default_rng(5)
        reads = (
            [PointQuery(int(key)) for key in rng.integers(0, 1_000, 100)]
            + [
                PointQuery(int(key), columns=("a1",))
                for key in rng.integers(0, 1_000, 56)
            ]
            + [
                RangeQuery(int(low), int(low) + 50)
                for low in rng.integers(0, 900, 100)
            ]
        )
        reads = [reads[i] for i in rng.permutation(len(reads))]
        assert len(reads) == 256

        def dispatched(operations) -> dict[str, int]:
            engine, *_ = run_policy(VectorizedPolicy(batch_size=512), operations)
            return dict(engine.statistics.operations)

        assert dispatched(reads) == {
            "multi_point_query": 2,  # one per columns tuple
            "multi_range_count": 1,
        }
        # A write in the middle is a barrier: each side groups on its own.
        split = [*reads[:128], Insert(key=2_001), *reads[128:]]
        assert dispatched(split) == {
            "multi_point_query": 4,
            "multi_range_count": 2,
            "multi_insert": 1,
        }


def chunk_rows(engine: StorageEngine) -> list[list[tuple[int, int]]]:
    """Sorted ``(key, rowid)`` content of every chunk (slot order inside a
    partition is an artifact of the write order)."""
    return [
        sorted(zip(chunk.values().tolist(), chunk.rowids().tolist()))
        for chunk in engine.table.chunks
    ]


class TestCommutingWrites:
    """Writes on distinct keys group across a read-free stretch; a
    cross-kind reuse of a written key ends it."""

    @settings(max_examples=60, deadline=None)
    @given(
        writes=st.lists(INTERLEAVED_WRITES, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_stretches_equal_serial_dispatch(self, writes, seed):
        # Eight colliding keys: duplicates, the cross-chunk straddle and
        # absent keys, so stretches keep ending on key reuses.  The point
        # queries read every key back, payloads and row ids included.
        operations = [*writes, *map(PointQuery, INTERLEAVED_KEY_VALUES)]
        serial_engine, serial, serial_errors, _ = run_policy(
            SerialPolicy(), operations
        )
        batched = [
            VectorizedPolicy(batch_size=256),
            *policies(np.random.default_rng(seed))[1:],
        ]
        for policy in batched:
            engine, results, errors, _ = run_policy(policy, operations)
            # Insert results are row ids: compared as they are.
            assert normalized(results) == normalized(serial)
            assert errors == serial_errors
            assert chunk_rows(engine) == chunk_rows(serial_engine)
            assert (
                engine.counter.snapshot().index_probes
                == serial_engine.counter.snapshot().index_probes
            )
            engine.table.check_invariants()

    @pytest.mark.parametrize(
        "operations, plan",
        [
            pytest.param(
                [Insert(1), Delete(2), Insert(3), Delete(4)],
                [(("insert",), [0, 2]), (("delete",), [1, 3])],
                id="distinct-keys-regroup",
            ),
            pytest.param(
                [Insert(7), Delete(7), Insert(7)],
                [(("insert",), [0]), (("delete",), [1]), (("insert",), [2])],
                id="same-key-keeps-submission-order",
            ),
            pytest.param(
                # Joining the first delete would carry Delete(2) ahead of
                # the insert of the row it removes.
                [Delete(1), Insert(2), Delete(2)],
                [(("delete",), [0]), (("insert",), [1]), (("delete",), [2])],
                id="delete-may-not-pass-its-insert",
            ),
            pytest.param(
                [Update(1, 2), Delete(3), Update(2, 3)],
                [(("update",), [0]), (("delete",), [1]), (("update",), [2])],
                id="conflict-via-the-update-target",
            ),
            pytest.param(
                # Naming a key of an *earlier*-opened group is no conflict:
                # the delete still dispatches after the insert.
                [Insert(1), Delete(2), Delete(1), Insert(3)],
                [(("insert",), [0, 3]), (("delete",), [1, 2])],
                id="reuse-in-dispatch-order-is-free",
            ),
            pytest.param(
                # A conflict ends the stretch for every kind, not only for
                # the kind that tripped it.
                [Insert(1), Delete(2), Insert(2), Delete(4)],
                [
                    (("insert",), [0]),
                    (("delete",), [1]),
                    (("insert",), [2]),
                    (("delete",), [3]),
                ],
                id="conflict-closes-every-group",
            ),
            pytest.param(
                [Insert(1), Delete(2), MultiInsert((5, 6)), Insert(3), Delete(4)],
                [
                    (("insert",), [0]),
                    (("delete",), [1]),
                    (None, [2]),
                    (("insert",), [3]),
                    (("delete",), [4]),
                ],
                id="multi-write-closes-every-group",
            ),
        ],
    )
    def test_conflict_plans(self, operations, plan):
        assert plan_batch(operations) == plan

    @settings(max_examples=60, deadline=None)
    @given(
        writes=st.lists(INTERLEAVED_WRITES, max_size=60),
        kind_order=st.permutations(["insert", "delete", "update"]),
    )
    def test_kind_sorted_stretch_plans_as_its_adjacent_runs(
        self, writes, kind_order
    ):
        # The bypass guarantee: per-op lists that arrive sorted by kind
        # (``olap_mem``) never trip the key check, whatever keys they reuse.
        writes.sort(key=lambda op: kind_order.index(op.kind.value))
        adjacent = groupby(enumerate(writes), key=lambda pair: pair[1].group_key)
        assert plan_batch(writes) == [
            (key, [position for position, _ in run]) for key, run in adjacent
        ]

    def test_one_dispatch_per_write_kind_per_conflict_free_stretch(self):
        rng = np.random.default_rng(7)
        present = rng.permutation(np.arange(0, STRADDLE_KEY, 2))
        fresh = 2 * rng.permutation(np.arange(2_000, 4_000)) + 1
        head, *rest = (
            [Insert(int(key)) for key in fresh[:128]]
            + [Delete(int(key)) for key in present[:96]]
            + [
                Update(int(old), int(new))
                for old, new in zip(present[96:128], fresh[128:160])
            ]
        )
        # An insert leads, so the insert group is the first one opened.
        writes = [head, *(rest[i] for i in rng.permutation(len(rest)))]
        assert len(writes) == 256

        def dispatched(operations) -> dict[str, int]:
            engine, _, errors, _ = run_policy(VectorizedPolicy(512), operations)
            assert errors == 0
            return dict(engine.statistics.operations)

        once = {"multi_insert": 1, "multi_delete": 1, "multi_update": 1}
        assert dispatched(writes) == once
        # One cross-kind reuse of a written key ends the stretch.  As the
        # last write it adds exactly one dispatch ...
        place = next(
            i for i in range(128, 256) if type(writes[i]) is Delete
        )
        assert {type(op) for op in writes[:place]} == {Insert, Delete, Update}
        reuse = Insert(writes[place].key)
        assert dispatched([*writes, reuse]) == {**once, "multi_insert": 2}
        # ... and in the middle every kind that follows it reopens once.
        split = [*writes[: place + 1], reuse, *writes[place + 1 :]]
        assert dispatched(split) == {kind: 2 for kind in once}


class TestRunGrouping:
    OPS = [
        PointQuery(key=1),
        RangeQuery(low=0, high=5),
        PointQuery(key=3, columns=("a1",)),
        RangeQuery(low=1, high=2, aggregate=Aggregate.SUM),
        PointQuery(key=2),
        RangeQuery(low=1, high=2),
        RangeQuery(low=3, high=4, aggregate=Aggregate.SUM),
        PointQuery(key=4),
        Insert(key=7),
        Insert(key=9),
        PointQuery(key=7),
        Insert(key=11),
        Delete(key=7),
        Update(old_key=1, new_key=3),
        Update(old_key=5, new_key=9),
        PointQuery(key=9),
        PointQuery(key=5),
        # A shuffled write tail: distinct keys until ``Insert(4)``.
        Insert(key=13),
        Delete(key=2),
        Insert(key=15),
        Update(old_key=21, new_key=23),
        Delete(key=4),
        Insert(key=4),
        Delete(key=6),
        Update(old_key=25, new_key=27),
    ]

    def test_plan_groups_reads_and_writes_by_commutation(self):
        assert plan_batch(self.OPS) == [
            # First write-free stretch: one group per key, in order of
            # first appearance; SUMs stay singletons at their own place.
            (("point_query", None), [0, 4, 7]),
            (("range_count",), [1, 5]),
            (("point_query", ("a1",)), [2]),
            (None, [3]),
            (None, [6]),
            # No write moves across a read: a read splits the insert run.
            # Writes already sorted by kind plan as their adjacent runs.
            (("insert",), [8, 9]),
            (("point_query", None), [10]),
            (("insert",), [11]),
            (("delete",), [12]),
            (("update",), [13, 14]),
            (("point_query", None), [15, 16]),
            # The shuffled tail: one group per write kind, in order of
            # first appearance, until ``Insert(4)`` would be carried ahead
            # of the delete of key 4 -- there the stretch ends for all.
            (("insert",), [17, 19]),
            (("delete",), [18, 21]),
            (("update",), [20]),
            (("insert",), [22]),
            (("delete",), [23]),
            (("update",), [24]),
        ]
        assert plan_batch([]) == []

    def test_vectorized_policy_validates_batch_size(self):
        with pytest.raises(ValueError):
            VectorizedPolicy(batch_size=0)


class TestMonitorWindowAcrossSlices:
    """One session call keeps every chunk's replan window in submission
    order, however many slices its policy dispatches."""

    @staticmethod
    def windows(policy: ExecutionPolicy, operations: list) -> dict:
        db = Database.from_rows(
            np.arange(0, 4_000, 2), chunk_size=1_000, monitor=True
        )
        with db.session(execution=policy) as session:
            session.execute(operations)
        return {
            chunk: db.monitor.recorded_sample(chunk)
            for chunk in range(db.table.num_chunks)
        }

    def test_slices_keep_the_serial_window(self):
        rng = np.random.default_rng(35)
        points = [PointQuery(int(key)) for key in rng.integers(0, 4_000, 20)]
        counts = [
            RangeQuery(int(low), int(low) + int(span))
            for low, span in zip(
                rng.integers(0, 3_800, 20), rng.integers(0, 600, 20)
            )
        ]
        operations = [
            (points + counts)[index] for index in rng.permutation(40)
        ]
        serial = self.windows(SerialPolicy(), operations)
        assert len(serial) == 2
        assert all(window.codes.size for window in serial.values())
        for policy in (VectorizedPolicy(8), VectorizedPolicy(256)):
            sliced = self.windows(policy, operations)
            assert sliced.keys() == serial.keys()
            for chunk, window in serial.items():
                for expected, actual in zip(window, sliced[chunk], strict=True):
                    np.testing.assert_array_equal(actual, expected)

"""Codec round-trips: operations and results survive the wire intact.

Both transports are exercised: descriptors through a real shared-memory
arena, and the inline-JSON fallback (no arena attached, or arrays that
overflow a deliberately tiny one) -- the fallback must change nothing but
speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ipc.shm import ShmArena
from repro.sharding import ShardError
from repro.sharding.codec import (
    ArenaReader,
    ArenaWriter,
    decode_ops,
    decode_results,
    encode_ops,
    encode_results,
    materialize_rows,
)
from repro.storage.table import Row
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

ALL_OPS = [
    PointQuery(key=7),
    PointQuery(key=-3, columns=("a",)),
    RangeQuery(low=-5, high=40),
    RangeQuery(low=0, high=9, aggregate=Aggregate.SUM, columns=("b",)),
    Insert(key=11, payload=(1, 2)),
    Insert(key=12),
    Delete(key=13),
    Update(old_key=1, new_key=99),
    MultiPointQuery(keys=(3, 1, 4, 1, 5)),
    MultiRangeCount(bounds=((0, 10), (-7, 3), (5, 5))),
    MultiInsert(keys=(8, 6), payloads=((10, 20), (30, 40))),
    MultiInsert(keys=(2, 2, 2)),
    MultiDelete(keys=(9, 9)),
    MultiUpdate(pairs=((1, 2), (3, 4))),
]


def roundtrip_ops(arena):
    encoded = encode_ops(ALL_OPS, ArenaWriter(arena))
    return decode_ops(encoded, ArenaReader(arena))


def assert_ops_equal(decoded):
    assert len(decoded) == len(ALL_OPS)
    for original, copy in zip(decoded, ALL_OPS):
        assert original == copy, (original, copy)


class TestOperationRoundTrip:
    def test_through_arena(self):
        with ShmArena.create(1 << 16) as arena:
            assert_ops_equal(roundtrip_ops(arena))

    def test_inline_without_arena(self):
        assert_ops_equal(roundtrip_ops(None))

    def test_tiny_arena_overflows_to_inline(self):
        # 24 bytes: the first small array lands in the arena, the rest
        # fall back to inline lists -- decode cannot tell the difference.
        with ShmArena.create(24) as arena:
            encoded = encode_ops(ALL_OPS, ArenaWriter(arena))
            inline = [
                e
                for e in encoded
                for v in e.values()
                if isinstance(v, dict) and "v" in v
            ]
            assert inline, "expected at least one inline fallback"
            assert_ops_equal(decode_ops(encoded, ArenaReader(arena)))

    def test_unknown_operation_rejected(self):
        with pytest.raises(ShardError):
            encode_ops([object()], ArenaWriter(None))
        with pytest.raises(ShardError):
            decode_ops([{"k": "??"}], ArenaReader(None))

    def test_arena_descriptor_without_arena_rejected(self):
        with pytest.raises(ShardError):
            ArenaReader(None).get({"o": 0, "n": 4})

    def test_decoded_arrays_do_not_alias_the_arena(self):
        with ShmArena.create(1 << 12) as arena:
            writer = ArenaWriter(arena)
            descriptor = writer.put(np.asarray([1, 2, 3], dtype=np.int64))
            out = ArenaReader(arena).get(descriptor)
            arena.buf[:8] = b"\xff" * 8  # reply overwrites the arena
            assert out.tolist() == [1, 2, 3]


def rows(*specs):
    return [
        Row(key=key, rowid=rowid, payload={"a": a, "b": b})
        for key, rowid, a, b in specs
    ]


class TestResultRoundTrip:
    def test_scalar_and_array_results(self):
        oplist = [
            Delete(key=1),
            RangeQuery(low=0, high=9),
            MultiRangeCount(bounds=((0, 1),)),
        ]
        results = [1, 17, np.asarray([4, 0, 9], dtype=np.int64)]
        encoded = encode_results(
            oplist, results, ArenaWriter(None), ("a", "b")
        )
        decoded = decode_results(encoded, ArenaReader(None))
        assert decoded[0] == 1
        assert decoded[1] == 17
        assert np.array_equal(decoded[2], results[2])

    @pytest.mark.parametrize("arena_bytes", [None, 1 << 14])
    def test_row_results_rebuild_with_base_offset(self, arena_bytes):
        arena = ShmArena.create(arena_bytes) if arena_bytes else None
        try:
            op = MultiPointQuery(keys=(5, 6, 5))
            result = [
                rows((5, 0, 36, 5), (5, 3, 36, 5)),
                [],
                rows((5, 0, 36, 5), (5, 3, 36, 5)),
            ]
            encoded = encode_results(
                [op], [result], ArenaWriter(arena), ("a", "b")
            )
            [block] = decode_results(encoded, ArenaReader(arena))
            rebuilt = materialize_rows(block, op.keys, ["a", "b"], base=100)
            assert [len(r) for r in rebuilt] == [2, 0, 2]
            assert [r.rowid for r in rebuilt[0]] == [100, 103]
            assert all(r.key == 5 for r in rebuilt[0])
            assert rebuilt[0][0].payload == {"a": 36, "b": 5}
        finally:
            if arena is not None:
                arena.close()

    def test_unknown_result_rejected(self):
        with pytest.raises(ShardError):
            encode_results(
                [Delete(key=1)], [{"nope": 1}], ArenaWriter(None), ()
            )
        with pytest.raises(ShardError):
            decode_results([{"t": "??"}], ArenaReader(None))

"""Codec round-trips: operations and results survive the wire intact.

Operations travel as one request body in the WAL's body format; results
as JSON descriptors.  Both transports are exercised: arrays through a
real shared-memory arena, and the inline-JSON fallback (no arena
attached, or a body that overflows a deliberately tiny one) -- the
fallback must change nothing but speed.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.frequency_model import sample_columns
from repro.durability.errors import WalCorruptionError
from repro.durability.wal import decode_delta_log
from repro.ipc.shm import ShmArena
from repro.sharding import ShardError
from repro.sharding.codec import (
    ArenaReader,
    ArenaWriter,
    decode_operations,
    decode_results,
    encode_ops,
    encode_results,
    materialize_rows,
)
from repro.sharding.database import resolve
from repro.storage.table import Row, RowBlock
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
    PointRowsQuery,
    RangeQuery,
    Update,
)

NAMES = ("a", "b")
SUM = Aggregate.SUM

#: Every kind the router sends, and what the worker decodes it to: reads
#: name their columns, ``None`` as every column; inserts carry rows; a
#: point read runs as ``PointRowsQuery``, which answers with a row block.
ROUTED = [
    (
        MultiPointQuery(keys=(3, 1, 4, 1, 5)),
        PointRowsQuery(keys=(3, 1, 4, 1, 5), columns=NAMES),
    ),
    (
        MultiPointQuery(keys=(7,), columns=("b",)),
        PointRowsQuery(keys=(7,), columns=("b",)),
    ),
    (
        MultiPointQuery(keys=(7, 8), columns=("b", "a")),
        PointRowsQuery(keys=(7, 8), columns=("b", "a")),
    ),
    (
        MultiPointQuery(keys=(7, 8), columns=()),
        PointRowsQuery(keys=(7, 8), columns=()),
    ),
    (MultiPointQuery(keys=()), PointRowsQuery(keys=(), columns=NAMES)),
    (
        MultiRangeCount(bounds=((0, 10), (-7, 3), (5, 5))),
        MultiRangeCount(bounds=((0, 10), (-7, 3), (5, 5))),
    ),
    (MultiRangeCount(bounds=()), MultiRangeCount(bounds=())),
    (
        RangeQuery(low=0, high=9, aggregate=SUM, columns=("b",)),
        RangeQuery(low=0, high=9, aggregate=SUM, columns=("b",)),
    ),
    (
        RangeQuery(low=-4, high=4, aggregate=SUM),
        RangeQuery(low=-4, high=4, aggregate=SUM, columns=NAMES),
    ),
    (
        RangeQuery(low=-4, high=4, aggregate=SUM, columns=()),
        RangeQuery(low=-4, high=4, aggregate=SUM, columns=()),
    ),
    (
        MultiInsert(keys=(8, 6), payloads=((10, 20), (30, 40))),
        MultiInsert(keys=(8, 6), payloads=((10, 20), (30, 40))),
    ),
    (
        MultiInsert(keys=(2, 2, 2)),
        MultiInsert(keys=(2, 2, 2), payloads=((0, 0),) * 3),
    ),
    (MultiInsert(keys=()), MultiInsert(keys=(), payloads=())),
    (MultiDelete(keys=(9, 9)), MultiDelete(keys=(9, 9))),
    (MultiDelete(keys=()), MultiDelete(keys=())),
    (
        MultiUpdate(pairs=((1, 2), (3, 4))),
        MultiUpdate(pairs=((1, 2), (3, 4))),
    ),
]


def normal(op) -> tuple:
    """``op`` with its row-aligned fields as lists, whether tuples or
    arrays (arrays make dataclass equality ambiguous)."""
    values = {}
    for item in fields(op):
        value = getattr(op, item.name)
        if isinstance(value, (tuple, np.ndarray)) and item.name != "columns":
            value = np.asarray(value, dtype=np.int64).tolist()
        values[item.name] = value
    return type(op), values


def roundtrip(oplist, arena, names=NAMES) -> list:
    encoded = encode_ops([resolve(op, names) for op in oplist], ArenaWriter(arena))
    return decode_operations(encoded, ArenaReader(arena), names)


def assert_decodes_to(decoded, expected) -> None:
    assert [normal(op) for op in decoded] == [normal(op) for op in expected]


class TestOperationRoundTrip:
    def test_through_arena(self):
        with ShmArena.create(1 << 16) as arena:
            decoded = roundtrip([op for op, _ in ROUTED], arena)
        assert_decodes_to(decoded, [want for _, want in ROUTED])

    def test_inline_without_arena(self):
        decoded = roundtrip([op for op, _ in ROUTED], None)
        assert_decodes_to(decoded, [want for _, want in ROUTED])

    @pytest.mark.parametrize("op, want", ROUTED, ids=repr)
    def test_each_kind_alone(self, op, want):
        assert_decodes_to(roundtrip([op], None), [want])

    def test_empty_list(self):
        assert roundtrip([], None) == []

    def test_zero_width_payloads(self):
        oplist = [
            MultiInsert(keys=(1, 2)),
            MultiInsert(keys=(3,), payloads=((),)),
            MultiPointQuery(keys=(1,)),
            RangeQuery(low=0, high=5, aggregate=SUM),
        ]
        decoded = roundtrip(oplist, None, names=())
        assert decoded[0].payloads.shape == (2, 0)
        assert decoded[1].payloads.shape == (1, 0)
        assert decoded[2].columns == ()
        assert decoded[3].columns == ()

    def test_tiny_arena_overflows_to_inline(self):
        # 24 bytes cannot hold the body: it travels as an inline list
        # instead, and decoding cannot tell the difference.
        oplist = [op for op, _ in ROUTED]
        with ShmArena.create(24) as arena:
            resolved = [resolve(op, NAMES) for op in oplist]
            encoded = encode_ops(resolved, ArenaWriter(arena))
            assert "v" in encoded and "o" not in encoded
            decoded = decode_operations(encoded, ArenaReader(arena), NAMES)
        assert_decodes_to(decoded, [want for _, want in ROUTED])

    def test_decoded_arrays_do_not_alias_the_arena(self):
        op = MultiInsert(keys=(8, 6), payloads=((10, 20), (30, 40)))
        with ShmArena.create(1 << 12) as arena:
            encoded = encode_ops([resolve(op, NAMES)], ArenaWriter(arena))
            [decoded] = decode_operations(encoded, ArenaReader(arena), NAMES)
            arena.buf[: arena.size] = b"\xff" * arena.size  # reply overwrites
            assert decoded.keys.tolist() == [8, 6]
            assert decoded.payloads.tolist() == [[10, 20], [30, 40]]

    def test_scalar_plan_sample_keeps_its_sample_columns(self):
        # A ``plan=`` sample may hold scalars: each decodes as its batched
        # kind of one, which trains the frequency model alike.
        sample = [
            PointQuery(key=7),
            PointQuery(key=-3, columns=("a",)),
            RangeQuery(low=-5, high=40),
            RangeQuery(low=0, high=9, aggregate=SUM, columns=("b",)),
            Insert(key=11, payload=(1, 2)),
            Insert(key=12),
            Delete(key=13),
            Update(old_key=1, new_key=99),
            *(op for op, _ in ROUTED),
        ]
        decoded = roundtrip(sample, None)
        want, got = sample_columns(sample), sample_columns(decoded)
        for column in ("codes", "lows", "highs"):
            assert getattr(got, column).tolist() == getattr(want, column).tolist()

    def test_unknown_operation_rejected(self):
        with pytest.raises(ShardError):
            encode_ops([object()], ArenaWriter(None))

    def test_unknown_column_rejected(self):
        with pytest.raises(ShardError, match="unknown payload column"):
            resolve(MultiPointQuery(keys=(1,), columns=("zz",)), NAMES)

    def test_a_wal_body_holding_a_read_is_corrupt(self):
        encoded = encode_ops(
            [resolve(MultiPointQuery(keys=(1, 2)), NAMES)], ArenaWriter(None)
        )
        body = ArenaReader(None).get(encoded).tobytes()[: encoded["b"]]
        with pytest.raises(WalCorruptionError, match="kind code"):
            decode_delta_log(body)

    def test_arena_descriptor_without_arena_rejected(self):
        with pytest.raises(ShardError):
            ArenaReader(None).get({"o": 0, "n": 4})


def block(*specs) -> RowBlock:
    """A row block of ``(hits, [(rowid, a, b), ...])`` per key."""
    hits = [row for _count, rows in specs for row in rows]
    return RowBlock(
        counts=np.asarray([len(rows) for _count, rows in specs], dtype=np.int64),
        rowids=np.asarray([rowid for rowid, _a, _b in hits], dtype=np.int64),
        cells=np.asarray(
            [value for _rowid, a, b in hits for value in (a, b)], dtype=np.int64
        ),
    )


class TestResultRoundTrip:
    def test_scalar_and_array_results(self):
        results = [1, 17, np.asarray([4, 0, 9], dtype=np.int64)]
        encoded = encode_results(results, ArenaWriter(None))
        decoded = decode_results(encoded, ArenaReader(None))
        assert decoded[0] == 1
        assert decoded[1] == 17
        assert np.array_equal(decoded[2], results[2])

    @pytest.mark.parametrize("arena_bytes", [None, 1 << 14])
    def test_row_results_rebuild_with_base_offset(self, arena_bytes):
        arena = ShmArena.create(arena_bytes) if arena_bytes else None
        try:
            op = MultiPointQuery(keys=(5, 6, 5))
            result = block(
                (2, [(0, 36, 5), (3, 36, 5)]),
                (0, []),
                (2, [(0, 36, 5), (3, 36, 5)]),
            )
            encoded = encode_results([result], ArenaWriter(arena))
            [decoded] = decode_results(encoded, ArenaReader(arena))
            rebuilt = materialize_rows(decoded, op.keys, ["a", "b"], base=100)
            assert [len(r) for r in rebuilt] == [2, 0, 2]
            assert [r.rowid for r in rebuilt[0]] == [100, 103]
            assert all(r.key == 5 for r in rebuilt[0])
            assert rebuilt[0][0].payload == {"a": 36, "b": 5}
            assert rebuilt[2] == [
                Row(key=5, rowid=100, payload={"a": 36, "b": 5}),
                Row(key=5, rowid=103, payload={"a": 36, "b": 5}),
            ]
        finally:
            if arena is not None:
                arena.close()

    def test_unknown_result_rejected(self):
        with pytest.raises(ShardError):
            encode_results([{"nope": 1}], ArenaWriter(None))
        with pytest.raises(ShardError):
            decode_results([{"t": "??"}], ArenaReader(None))

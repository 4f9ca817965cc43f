"""Row results cross the shard wire as the table's arrays, unchanged.

A worker answers a point read with the :class:`RowBlock` that
``Table.point_rows`` returns and ships its three arrays; no ``Row`` is
built until the dispatcher merges.  The references below are the
Row-based forms this path replaced, written out: the materializer that
built one ``Row`` per hit from the gathered payload cells, and the encoder
that walked those ``Row`` lists back into ``(counts, rowids, payload)``
arrays.  The block path must ship exactly those arrays, byte for byte,
and the table's own ``Row`` answers must equal the reference's rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.database import Database
from repro.ipc.shm import ShmArena
from repro.sharding.codec import (
    ArenaReader,
    ArenaWriter,
    decode_operations,
    encode_ops,
    encode_results,
)
from repro.sharding.database import resolve
from repro.storage.layouts import LayoutKind
from repro.storage.table import Row, RowBlock
from repro.workload.operations import MultiInsert, MultiPointQuery, PointRowsQuery

NAMES = ("a", "b", "c")
#: Every column, a reordered subset, and none.
COLUMN_CHOICES = [None, ("c", "a"), ()]


def reference_rows(keys, rowids, columns, cells) -> list[Row]:
    """One ``Row`` per ``(key, rowid)`` pair from the gathered cells (the
    per-hit materializer the table used before row blocks)."""
    return [
        Row(key=key, rowid=rowid, payload=dict(zip(columns, values, strict=True)))
        for key, rowid, values in zip(
            keys, rowids.tolist(), cells.tolist(), strict=True
        )
    ]


def reference_row_lists(table, keys, columns) -> list[list[Row]]:
    """Per-key ``Row`` lists: hits from each candidate chunk's scalar
    kernel, in chunk order, then the reference materializer."""
    columns = list(NAMES) if columns is None else list(columns)
    indices = [table.payload_names.index(name) for name in columns]
    first, last = table.chunk_span_batch(keys)
    out = []
    for key, lo, hi in zip(keys, first.tolist(), last.tolist(), strict=True):
        hits = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [
                np.asarray(
                    table._chunks[chunk].point_query(int(key), return_rowids=True),
                    dtype=np.int64,
                )
                for chunk in range(lo, hi + 1)
            ]
        )
        cells = table.payload_rows(hits)[:, indices]
        out.append(reference_rows([int(key)] * hits.size, hits, columns, cells))
    return out


def reference_encode_rows(row_lists, columns, writer: ArenaWriter) -> dict:
    """The Row-iterating result encoder the worker used before row blocks."""
    counts = np.fromiter(
        (len(rows) for rows in row_lists), dtype=np.int64, count=len(row_lists)
    )
    rowids = np.fromiter(
        (row.rowid for rows in row_lists for row in rows),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    payload = np.fromiter(
        (row.payload[name] for rows in row_lists for row in rows for name in columns),
        dtype=np.int64,
        count=int(counts.sum()) * len(columns),
    )
    return {
        "t": "rr",
        "c": writer.put(counts),
        "r": writer.put(rowids),
        "p": writer.put(payload),
    }


def shipped(entry: dict, arena) -> list[bytes]:
    """The bytes of the three arrays one ``"rr"`` entry ships."""
    reader = ArenaReader(arena)
    return [reader.get(entry[part]).tobytes() for part in ("c", "r", "p")]


def exact(row_lists) -> list:
    """Row lists with value types and payload key order made visible."""
    return [
        [
            (type(row.key), row.key, type(row.rowid), row.rowid,
             [(name, type(value), value) for name, value in row.payload.items()])
            for row in rows
        ]
        for rows in row_lists
    ]


@pytest.fixture(scope="module")
def table():
    """Heavy duplicates over small chunks, so runs straddle chunk
    boundaries, plus rows inserted after load; odd keys are absent."""
    rng = np.random.default_rng(20)
    keys = rng.integers(0, 24, 400) * 2
    payload = rng.integers(-1_000, 1_000, (keys.size, len(NAMES)))
    database = Database.from_rows(
        keys,
        payload,
        layout=LayoutKind("equi"),
        chunk_size=64,
        partitions=4,
        block_values=16,
        payload_names=list(NAMES),
    )
    fresh = rng.integers(0, 24, 40) * 2
    database.engine.execute(
        MultiInsert(
            keys=tuple(fresh.tolist()),
            payloads=tuple(map(tuple, rng.integers(0, 99, (fresh.size, 3)).tolist())),
        )
    )
    return database.table


@pytest.fixture(scope="module")
def probes(table):
    rng = np.random.default_rng(21)
    keys = rng.integers(0, 48, 60)
    first, last = table.chunk_span_batch(keys)
    hits = [len(rows) for rows in reference_row_lists(table, keys, None)]
    assert (last > first).any(), "no probed run straddles a chunk boundary"
    assert 0 in hits and max(hits) > 1, "need absent keys and duplicates"
    return keys


@pytest.mark.parametrize("columns", COLUMN_CHOICES, ids=repr)
@pytest.mark.parametrize("arena_bytes", [1 << 16, 24], ids=["arena", "tiny-arena"])
def test_worker_point_read_ships_the_reference_arrays(
    table, probes, columns, arena_bytes
):
    query = MultiPointQuery(keys=tuple(probes.tolist()), columns=columns)
    names = list(NAMES) if columns is None else list(columns)
    with ShmArena.create(arena_bytes) as arena:
        request = encode_ops([resolve(query, NAMES)], ArenaWriter(arena))
        [decoded] = decode_operations(request, ArenaReader(arena), NAMES)
        assert isinstance(decoded, PointRowsQuery)
        result = decoded.run(table)
        assert isinstance(result, RowBlock)
        [entry] = encode_results([result], ArenaWriter(arena))
        got = shipped(entry, arena)
        want_entry = reference_encode_rows(
            reference_row_lists(table, probes, columns), names, ArenaWriter(arena)
        )
        want = shipped(want_entry, arena)
    assert got == want
    assert entry == want_entry  # same descriptors: same arena placement
    if arena_bytes == 24:
        assert any("v" in entry[part] for part in ("c", "r", "p"))


@pytest.mark.parametrize("columns", COLUMN_CHOICES, ids=repr)
def test_table_rows_equal_the_reference_rows(table, probes, columns):
    want = reference_row_lists(table, probes, columns)
    assert exact(table.multi_point_query(probes, columns)) == exact(want)
    assert exact(
        [table.point_query(int(key), columns) for key in probes.tolist()]
    ) == exact(want)
    block = table.point_rows(probes, columns)
    names = list(NAMES) if columns is None else list(columns)
    assert exact(block.rows(probes, names)) == exact(want)


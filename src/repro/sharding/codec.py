"""Wire codec for shard dispatch: operations out, results back.

Frames (:mod:`repro.ipc.framing`) carry only small JSON descriptors; every
``int64`` array -- a request body, result row ids and payload gathers --
is appended to the channel's shared-memory arena
(:class:`repro.ipc.shm.ShmArena`) and referenced by ``{"o": byte_offset,
"n": element_count}``.  Arrays that do not fit the arena (or when no
arena is attached) fall back to inline JSON lists: capacity bounds
performance, never correctness.

Operations travel in the one batch format, the WAL record body
(:func:`repro.durability.wal.encode_batch`): each operation is one record
of its attribution -- keys, range bounds or update pairs as the record's
keys and highs, an insert's payload rows, a read's payload column indices
as one payload row -- and the whole per-shard list is one body, shipped
as ``int64`` words with its byte length.  The worker runs each decoded
record as the operation :data:`repro.workload.operations.REPLAYED_AS`
names, the table recovery replays the log through.

The result encoding covers what the operations the shard router sends
(the batched kinds and SUM ranges of the engine's batch plan) return;
none of them reports a miss as ``None``:

==========================  ===========================================
worker result entry          wire form
==========================  ===========================================
``int`` (range sum)          ``{"t": "i", "v": ...}``
``int64`` array              ``{"t": "a", "v": <array>}``
:class:`RowBlock` (Q1)       ``{"t": "rr", "c": .., "r": .., "p": ..}``
==========================  ===========================================

Row blocks ship straight from :meth:`Table.point_rows
<repro.storage.table.Table.point_rows>` (a decoded point read runs as
:class:`~repro.workload.operations.PointRowsQuery`): its three arrays
``(counts, rowids, cells)``, so the worker builds no
:class:`~repro.storage.table.Row`.  The dispatcher builds each one once
(:meth:`RowBlock.rows`), with the keys it already knows from the
submitted operation, after offsetting local row ids by the shard's base
(load-order global ids).
"""

from __future__ import annotations

import numpy as np

from ..durability.wal import decode_batch, encode_batch
from ..ipc.shm import ShmArena
from ..storage.access_log import CallLog
from ..storage.table import Row, RowBlock
from ..workload import operations as ops
from .errors import ShardError

_I64 = np.dtype(np.int64)


class ArenaWriter:
    """Appends int64 arrays to an arena from offset 0; overflow inlines."""

    def __init__(self, arena: ShmArena | None) -> None:
        self._buf = arena.buf if arena is not None else None
        self._capacity = arena.size if arena is not None else 0
        self._offset = 0

    def put(self, values: np.ndarray) -> dict:
        arr = np.ascontiguousarray(values, dtype=_I64)
        nbytes = arr.nbytes
        if self._buf is None or self._offset + nbytes > self._capacity:
            return {"v": arr.tolist()}
        end = self._offset + nbytes
        self._buf[self._offset:end] = arr.tobytes()
        descriptor = {"o": self._offset, "n": int(arr.size)}
        self._offset = end
        return descriptor


class ArenaReader:
    """Resolves :class:`ArenaWriter` descriptors back to owned arrays."""

    def __init__(self, arena: ShmArena | None) -> None:
        self._buf = arena.buf if arena is not None else None

    def get(self, descriptor: dict) -> np.ndarray:
        if "v" in descriptor:
            return np.asarray(descriptor["v"], dtype=_I64)
        if self._buf is None:
            raise ShardError("arena descriptor received without an arena")
        # Copy out: the arena is reused for the reply in the other
        # direction, so no decoded array may alias it.
        return np.frombuffer(
            self._buf,
            dtype=_I64,
            count=int(descriptor["n"]),
            offset=int(descriptor["o"]),
        ).copy()


# --------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------- #


def encode_ops(oplist, writer: ArenaWriter) -> dict:
    """Encode a per-shard list of resolved operations
    (:func:`repro.sharding.database.resolve`) as one request body, one
    record per operation: its attribution, plus an insert's payload rows
    or a read's column indices as payloads.  The body rides ``writer`` as
    ``int64`` words; ``"b"`` is its byte length."""
    log = CallLog()
    for op in oplist:
        if not isinstance(op, ops.Operation):
            raise ShardError(f"cannot encode operation {type(op)!r}")
        kind, keys, highs = op.attribution()
        payloads = None
        if kind == "insert":
            payloads = op.payloads if isinstance(op, ops.MultiInsert) else (op.payload,)
        elif kind in ("point_query", "range_sum"):
            payloads = (op.columns,)
        log.record(kind, keys, highs, payloads)
    body = encode_batch(log.records)
    words = np.frombuffer(body + bytes(-len(body) % 8), dtype=_I64)
    return {**writer.put(words), "b": len(body)}


def decode_operations(descriptor: dict, reader: ArenaReader, payload_names) -> list:
    """The operations of an :func:`encode_ops` body: each record as the
    operation :data:`~repro.workload.operations.REPLAYED_AS` names, which
    is how recovery replays a logged write too."""
    body = reader.get(descriptor).tobytes()[: int(descriptor["b"])]
    return [
        ops.REPLAYED_AS[record.kind](record, payload_names)
        for record in decode_batch(body).records
    ]


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


def encode_results(results, writer: ArenaWriter) -> list[dict]:
    """Encode a session's per-operation results for the wire."""
    encoded: list[dict] = []
    for result in results:
        if isinstance(result, (int, np.integer)):
            encoded.append({"t": "i", "v": int(result)})
        elif isinstance(result, np.ndarray):
            encoded.append({"t": "a", "v": writer.put(result)})
        elif isinstance(result, RowBlock):
            encoded.append(
                {
                    "t": "rr",
                    "c": writer.put(result.counts),
                    "r": writer.put(result.rowids),
                    "p": writer.put(result.cells),
                }
            )
        else:
            raise ShardError(f"cannot encode result {type(result)!r}")
    return encoded


def decode_results(encoded: list[dict], reader: ArenaReader) -> list:
    """Decode :func:`encode_results` output to merge-ready entries.

    Row blocks come back as :class:`RowBlock` (the dispatcher rebuilds
    :class:`Row` objects with keys and shard-base offsets it knows);
    everything else is its final value.
    """
    decoded = []
    for entry in encoded:
        tag = entry["t"]
        if tag == "i":
            decoded.append(int(entry["v"]))
        elif tag == "a":
            decoded.append(reader.get(entry["v"]))
        elif tag == "rr":
            decoded.append(
                RowBlock(
                    counts=reader.get(entry["c"]),
                    rowids=reader.get(entry["r"]),
                    cells=reader.get(entry["p"]),
                )
            )
        else:
            raise ShardError(f"cannot decode result tag {tag!r}")
    return decoded


def materialize_rows(
    block: RowBlock, keys, columns, base: int
) -> list[list[Row]]:
    """Per-key ``list[Row]`` results of a decoded block
    (:meth:`RowBlock.rows`): ``keys`` aligns with ``block.counts``; local
    row ids are offset by the shard's ``base`` so load-order ids match the
    serial table's."""
    return block.rows(keys, columns, base)

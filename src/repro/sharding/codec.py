"""Wire codec for shard dispatch: operations out, results back.

Frames (:mod:`repro.ipc.framing`) carry only small JSON descriptors; every
``int64`` array -- point-query key batches, range bounds, insert payload
rows, result row ids and payload gathers -- is appended to the channel's
shared-memory arena (:class:`repro.ipc.shm.ShmArena`) and referenced by
``{"o": byte_offset, "n": element_count}``.  Arrays that do not fit the
arena (or when no arena is attached) fall back to inline JSON lists:
capacity bounds performance, never correctness.

Operations encode generically: the codec knows no operation kind.  Each
class of :mod:`repro.workload.operations` declares ``wire = (tag,
array_fields)``; a descriptor is the tag plus every field by name, the
array fields through the arena (with their shape), the rest as JSON.

The result encoding covers what the operations the shard router sends
(the batched kinds and SUM ranges of the engine's batch plan) return;
none of them reports a miss as ``None``:

========================  =============================================
worker result entry        wire form
========================  =============================================
``int`` (range sum)        ``{"t": "i", "v": ...}``
``int64`` array            ``{"t": "a", "v": <array>}``
``list[list[Row]]``        ``{"t": "rr", "c": .., "r": .., "p": ..}``
========================  =============================================

Row blocks ship ``(counts, rowids, payload_values)`` -- the dispatcher
rebuilds :class:`~repro.storage.table.Row` objects with the keys it
already knows from the submitted operation, after offsetting local row
ids by the shard's base (load-order global ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import get_args

import numpy as np

from ..ipc.shm import ShmArena
from ..storage.table import Row
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


#: Wire tag -> operation class; each class declares its own ``wire`` facts.
_WIRE_TYPES = {cls.wire[0]: cls for cls in get_args(ops.Operation)}


def encode_ops(oplist, writer: ArenaWriter) -> list[dict]:
    """Encode a per-shard operation list into frame descriptors.

    One descriptor per operation: its wire tag under ``"k"`` plus every
    field by name -- the class's array fields through ``writer`` (with
    their shape, ``None`` omitted), the rest as JSON scalars.
    """
    encoded: list[dict] = []
    for op in oplist:
        if not isinstance(op, ops.Operation):
            raise ShardError(f"cannot encode operation {type(op)!r}")
        tag, array_fields = op.wire
        entry = {"k": tag}
        for name, value in vars(op).items():
            if name not in array_fields:
                if isinstance(value, Enum):
                    value = value.value
                elif isinstance(value, np.integer):
                    value = int(value)  # JSON knows no numpy scalars
                entry[name] = value
            elif value is not None:
                rows = np.asarray(value, dtype=_I64)
                entry[name] = {**writer.put(rows.reshape(-1)), "s": rows.shape}
        encoded.append(entry)
    return encoded


def decode_ops(encoded: list[dict], reader: ArenaReader) -> list:
    """Rebuild operation objects from :func:`encode_ops` descriptors."""
    oplist = []
    for entry in encoded:
        cls = _WIRE_TYPES.get(entry["k"])
        if cls is None:
            raise ShardError(f"cannot decode operation kind {entry['k']!r}")
        fields = {}
        for name, value in entry.items():
            if name == "k":
                continue
            if name in cls.wire[1]:
                rows = reader.get(value).reshape(value["s"]).tolist()
                value = tuple(map(tuple, rows)) if len(value["s"]) > 1 else rows
            fields[name] = tuple(value) if isinstance(value, list) else value
        oplist.append(cls(**fields))
    return oplist


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class RowBlock:
    """Decoded row-result block: per-key hit counts plus flat arrays."""

    counts: np.ndarray
    rowids: np.ndarray
    payload: np.ndarray  # flat, len(rowids) * len(columns)


def _encode_rows(row_lists, columns, writer: ArenaWriter) -> dict:
    counts = np.fromiter(
        (len(rows) for rows in row_lists), dtype=_I64, count=len(row_lists)
    )
    rowids = np.fromiter(
        (row.rowid for rows in row_lists for row in rows),
        dtype=_I64,
        count=int(counts.sum()),
    )
    payload = np.fromiter(
        (
            row.payload[name]
            for rows in row_lists
            for row in rows
            for name in columns
        ),
        dtype=_I64,
        count=int(counts.sum()) * len(columns),
    )
    return {
        "t": "rr",
        "c": writer.put(counts),
        "r": writer.put(rowids),
        "p": writer.put(payload),
    }


def encode_results(
    oplist, results, writer: ArenaWriter, payload_names
) -> list[dict]:
    """Encode a session's per-operation results for the wire.

    ``oplist`` provides the context the row blocks need (requested
    columns); entries must align one-to-one with ``results``.  A row
    result is a ``MultiPointQuery``'s list of per-key row lists.
    """
    encoded: list[dict] = []
    for op, result in zip(oplist, results, strict=True):
        if isinstance(result, (int, np.integer)):
            encoded.append({"t": "i", "v": int(result)})
        elif isinstance(result, np.ndarray):
            encoded.append({"t": "a", "v": writer.put(result)})
        elif isinstance(result, list):
            columns = (
                list(op.columns)
                if op.columns is not None
                else list(payload_names)
            )
            encoded.append(_encode_rows(result, columns, writer))
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
                    payload=reader.get(entry["p"]),
                )
            )
        else:
            raise ShardError(f"cannot decode result tag {tag!r}")
    return decoded


def materialize_rows(
    block: RowBlock, keys, columns, base: int
) -> list[list[Row]]:
    """Rebuild per-key ``list[Row]`` results from a decoded block.

    ``keys`` aligns with ``block.counts``; local row ids are offset by
    the shard's ``base`` so load-order ids match the serial table's.
    """
    width = len(columns)
    out: list[list[Row]] = []
    cursor = 0
    payload = block.payload
    rowids = block.rowids
    for key, count in zip(keys, block.counts, strict=True):
        key = int(key)
        rows = []
        for i in range(cursor, cursor + int(count)):
            values = payload[i * width:(i + 1) * width]
            rows.append(
                Row(
                    key=key,
                    rowid=int(rowids[i]) + base,
                    payload={
                        name: int(value)
                        for name, value in zip(columns, values, strict=True)
                    },
                )
            )
        out.append(rows)
        cursor += int(count)
    return out

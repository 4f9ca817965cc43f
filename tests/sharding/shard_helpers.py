"""Helpers shared by the sharding tests (imported as a plain module).

Kept out of ``conftest.py`` so test modules can import them by name
without relying on conftest import mechanics.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.api.database import Database
from repro.sharding import ShardedDatabase, codec
from repro.storage.layouts import LayoutKind

#: Shard count the shared session cluster runs with; 3 exercises middle
#: shards (both fences real) without tripling spawn cost.
N_SHARDS = 3


def payload_for(keys) -> np.ndarray:
    """Payload as a pure function of the key.

    With ``payload = f(key)`` every copy of a duplicated key carries the
    same payload, so delete-victim choice is invisible to results -- the
    regime the broad oracle-equality contract is stated under (see the
    sharding README section).  The choice itself is nevertheless pinned
    (oldest surviving copy, smallest row id) on both the serial and
    sharded paths; ``test_sharded_oracle.TestDuplicateVictimRule`` pins
    exact equality with *distinct* per-copy payloads.
    """
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack([keys * 7 + 1, keys % 13], axis=1)


def sharded_db(cluster, keys, **options) -> ShardedDatabase:
    """A sharded database attached to ``cluster`` with test defaults."""
    keys = np.asarray(keys, dtype=np.int64)
    options.setdefault("payload", payload_for(keys))
    options.setdefault("payload_names", ["a", "b"])
    options.setdefault("partitions", 8)
    options.setdefault("block_values", 256)
    return ShardedDatabase.from_rows(
        keys, n_shards=cluster.n_shards, cluster=cluster, **options
    )


def serial_db(keys, **options) -> Database:
    """The single-process oracle loaded from the same rows."""
    keys = np.asarray(keys, dtype=np.int64)
    options.setdefault("payload", payload_for(keys))
    options.setdefault("payload_names", ["a", "b"])
    options.setdefault("partitions", 8)
    options.setdefault("block_values", 256)
    payload = options.pop("payload")
    return Database.from_rows(
        keys, payload, layout=LayoutKind("equi"), **options
    )


def normalize(result):
    """Order-independent view of one result for serial comparison."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, list):
        if result and isinstance(result[0], list):
            return [normalize(rows) for rows in result]
        return sorted(
            (row.key, tuple(sorted(row.payload.items()))) for row in result
        )
    return result


@contextmanager
def encoded_operations():
    """Record every per-shard operation list the dispatcher encodes.

    Yields a list that collects one entry per encoded sub-batch; the
    encoding itself is unchanged.
    """
    sent: list[list] = []
    encode = codec.encode_ops

    def recording(oplist, writer):
        sent.append(list(oplist))
        return encode(oplist, writer)

    with mock.patch.object(codec, "encode_ops", recording):
        yield sent

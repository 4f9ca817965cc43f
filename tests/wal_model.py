"""The reference model the durability and replication tests check against
(imported as a plain module).

A table's expected content is a dict ``key -> (a, b)``; payloads are a
function of the key (:func:`payload_for`), so every comparison is free of
row-id numbering and physical order.
"""

from __future__ import annotations

import numpy as np

from repro.workload.operations import (
    MultiDelete,
    MultiInsert,
    MultiUpdate,
    RangeQuery,
)

#: The operation kinds a :func:`build_batch` spec names.
OP_KINDS = ("insert", "delete", "update", "read")


def payload_for(keys):
    """Deterministic payload = f(key), so recovery checks are order-free."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack([keys % 7, (keys * 3) % 11], axis=1)


def canonical_model(model):
    """A model dict as sorted ``(key, a, b)`` rows."""
    return sorted((key, a, b) for key, (a, b) in model.items())


def canonical_table(table):
    """A table's live rows as sorted ``(key, a, b)`` rows."""
    out = []
    for key in np.sort(table.scan()).tolist():
        for row in table.point_query(key):
            out.append((key, row.payload["a"], row.payload["b"]))
    return sorted(out)


def build_batch(spec_batch, model, next_key):
    """Materialize one batch of operations plus its post-state.

    ``spec_batch`` is a list of ``(kind, index)`` pairs, ``kind`` one of
    :data:`OP_KINDS`; the index picks the delete/update victim from the
    live key set, so a spec stays valid whatever state earlier batches
    left behind.  ``next_key`` is a one-element list used as a mutable
    counter; fresh keys are odd and monotonic, so they never collide with
    the even initial keys.
    """
    scratch = dict(model)
    ops = []
    for kind, idx in spec_batch:
        if kind == "insert":
            keys = [next_key[0] + 2 * i for i in range(3)]
            next_key[0] += 6
            rows = payload_for(keys).tolist()
            ops.append(MultiInsert(tuple(keys), tuple(map(tuple, rows))))
            for key, row in zip(keys, rows, strict=True):
                scratch[key] = tuple(row)
        elif kind == "delete":
            live = sorted(scratch)
            key = live[idx % len(live)] if live else 10**9
            ops.append(MultiDelete((key,)))
            scratch.pop(key, None)
        elif kind == "update":
            live = sorted(scratch)
            old = live[idx % len(live)] if live else 10**9
            new = next_key[0]
            next_key[0] += 2
            ops.append(MultiUpdate(((old, new),)))
            if old in scratch:
                # The payload moves with the row, as the table's
                # rowid-preserving update does.
                scratch[new] = scratch.pop(old)
        else:
            ops.append(RangeQuery(0, 1 << 40))
    return ops, scratch

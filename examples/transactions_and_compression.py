"""Example: snapshot-isolation transactions and compression-aware layouts.

Demonstrates the two supporting subsystems of Section 6:

* transactions (Section 6.1) -- two concurrent writers touch the same key;
  the first committer wins and the second rolls back, while a long analytical
  query keeps reading a consistent snapshot; and
* compression (Section 6.2) -- fine partitioning shrinks per-partition value
  ranges, improving frame-of-reference compression.

Run with::

    python examples/transactions_and_compression.py
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import format_table
from repro.storage.column import equal_width_boundaries
from repro.storage.compression import FrameOfReferenceCodec
from repro.storage.engine import StorageEngine
from repro.storage.errors import TransactionConflictError
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.operations import RangeQuery


def transactions_demo() -> None:
    keys = np.arange(10_000, dtype=np.int64) * 2
    payload = np.arange(10_000, dtype=np.int64).reshape(-1, 1)
    spec = LayoutSpec(kind=LayoutKind.EQUI_GV, partitions=16, block_values=1_024)
    table = Table(keys, payload, chunk_builder=layout_chunk_builder(spec))
    engine = StorageEngine(table)

    print("== Snapshot isolation (first committer wins) ==")
    analytical_before = engine.execute(RangeQuery(0, 19_998))
    writer_a = engine.begin_transaction()
    writer_b = engine.begin_transaction()
    engine.transactional_update(writer_a, 40, 41)
    engine.transactional_delete(writer_b, 40)
    engine.commit(writer_a)
    try:
        engine.commit(writer_b)
    except TransactionConflictError:
        print("writer B aborted: key 40 was already updated by writer A")
    analytical_after = engine.execute(RangeQuery(0, 19_998))
    print(f"analytical row count before/after: {analytical_before} / {analytical_after}")
    print(f"committed={engine.transactions.committed} aborted={engine.transactions.aborted}\n")


def compression_demo() -> None:
    print("== Partitioning improves frame-of-reference compression ==")
    rng = np.random.default_rng(3)
    values = np.sort(rng.integers(0, 2**28, 131_072))
    codec = FrameOfReferenceCodec()
    rows = []
    for partitions in (1, 16, 128, 1_024):
        boundaries = equal_width_boundaries(values.shape[0], partitions)
        stats = codec.partitioned_stats(values, boundaries)
        rows.append((partitions, stats.ratio))
    print(format_table(("partitions", "compression ratio"), rows))
    print(
        "\nSmaller partitions cover smaller value ranges, so offsets need fewer\n"
        "bits -- the synergy between partitioning and compression of Section 6.2."
    )


def main() -> None:
    transactions_demo()
    compression_demo()


if __name__ == "__main__":
    main()

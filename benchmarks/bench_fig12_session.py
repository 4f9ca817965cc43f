"""Figure 12 session-API smoke: fixed batch sizes vs. serial dispatch.

Drives the ``Database``/``Session`` façade end-to-end on a 1M-row, 16-chunk
table with a read-mostly Fig. 12-style workload (point-query runs, range
counts and a trickle of key updates -- the operation classes whose batched
dispatch is *exactly* access-count equivalent to serial execution):

* every fixed ``VectorizedPolicy`` size must return the results of
  ``SerialPolicy`` and the same simulated access counts in every counter
  field, and
* the best fixed batch size must beat serial dispatch on wall-clock
  throughput.

A second phase mixes insert/delete runs into the read bursts -- now that
observation is batch-native it no longer compounds the sorted-view cache
thrash the writes cause -- asserting result equivalence between serial and
vectorized dispatch and recording the read-only vs. mixed speedup gap.

A third phase permutes the operation order inside every 256-operation batch
of the read-mostly workload -- a hybrid client whose point and range reads
arrive interleaved.  Reads between two writes commute, so batched dispatch
must group them by kind, not by adjacency: at most one ``multi_*`` read
dispatch per read group key per write-free stretch, results and simulated
accesses equal to serial dispatch, and >= 0.8x the unshuffled throughput.

A fourth phase does the same to a write-heavy per-operation workload.
Writes on distinct keys commute, so inserts, deletes and key updates that
arrive interleaved must still ride one bulk kernel call per kind until a
cross-kind reuse of a written key ends the stretch: at most three
``multi_*`` write dispatches per conflict-free write stretch, results and
row ids equal to serial dispatch, and >= 0.8x the kind-sorted throughput.

The measured trajectory is emitted to ``BENCH_fig12_session.json`` (uploaded
as a CI artifact).  Set ``REPRO_BENCH_ROWS`` to scale the table down on
constrained machines.
"""

from __future__ import annotations

import json
import os
import time
from itertools import groupby
from operator import attrgetter

import numpy as np

from repro.api import Database, SerialPolicy, VectorizedPolicy
from repro.storage.layouts import LayoutKind
from repro.workload.operations import (
    Delete,
    Insert,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)

FIXED_BATCH_SIZES = (64, 256, 1_024)
REPETITIONS = 3

OUT_PATH = os.environ.get(
    "REPRO_BENCH_SESSION_JSON", "BENCH_fig12_session.json"
)

_RESULTS: dict[str, dict] = {}


def _flush_results() -> None:
    with open(OUT_PATH, "w") as handle:
        json.dump(_RESULTS, handle, indent=2)


def build_database(num_rows: int, num_chunks: int, block_values: int) -> Database:
    keys = np.arange(num_rows, dtype=np.int64) * 2
    return Database.from_rows(
        keys,
        layout=LayoutKind.EQUI,
        partitions=16,
        chunk_size=-(-num_rows // num_chunks),
        block_values=block_values,
    )


def build_workload(num_rows: int, num_ops: int) -> Workload:
    """Read-mostly Fig. 12 mix in bursts: 1024 Q1 then 128 Q2, repeating.

    Long read bursts (a dashboard refresh, a report) are the case batched
    dispatch exists for, and they make the *batch size* matter: a 64-op
    slice truncates every burst 16-fold while a 1024-op slice rides it
    whole.  The timed workload is read-only on purpose: interleaving
    writes at odd cadence invalidates the per-partition sorted-view cache
    between batches, which measures cache-thrash rather than batching
    (the write fast path has its own gate in ``bench_fig12_throughput.py``).
    Read batches are exactly access-count equivalent to serial dispatch,
    so the smoke can assert full counter equality across every policy.
    """
    rng = np.random.default_rng(11)
    keys = np.arange(num_rows, dtype=np.int64) * 2
    domain = num_rows * 2
    operations: list = []
    while len(operations) < num_ops:
        operations.extend(
            PointQuery(key=int(k))
            for k in rng.choice(keys, 1_024, replace=True)
        )
        lows = rng.integers(0, domain - 1_100, 128)
        operations.extend(
            RangeQuery(low=int(low), high=int(low) + 1_000) for low in lows
        )
    return Workload(operations=operations[:num_ops], name="fig12 session mix")


def timed_run(policy_factory, database_factory, workload):
    """Best-of-N wall seconds; returns (seconds, results, counter)."""
    best = float("inf")
    results = counter = None
    for _ in range(REPETITIONS):
        database = database_factory()
        session = database.session(execution=policy_factory())
        start = time.perf_counter()
        outcome = session.execute(list(workload))
        elapsed = time.perf_counter() - start
        session.close()
        if elapsed < best:
            best = elapsed
        results = outcome.results
        counter = database.engine.counter.snapshot()
    return best, results, counter


def test_fig12_session_fixed_vs_serial(benchmark):
    """Session façade: every fixed size equals serial; the best beats it."""
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    num_rows = int(os.environ.get("REPRO_BENCH_ROWS", 1_048_576))
    num_chunks = 16
    block_values = 4_096
    num_ops = min(16_384, num_rows // 2)
    workload = build_workload(num_rows, num_ops)

    def database_factory():
        return build_database(num_rows, num_chunks, block_values)

    # Untimed preamble: a session mixing all five operation kinds -- update
    # runs included -- stays exactly result/access-count equivalent between
    # serial and vectorized dispatch.
    rng = np.random.default_rng(7)
    mixed = list(build_workload(num_rows, 512))
    mixed[64:64] = [
        Update(old_key=int(2 * src), new_key=int(2 * src) + 1)
        for src in rng.choice(num_rows, 16, replace=False)
    ]
    db_serial, db_vector = database_factory(), database_factory()
    serial_mixed, _, _ = SerialPolicy().execute(db_serial.engine, mixed)
    vector_mixed, _, _ = VectorizedPolicy(64).execute(db_vector.engine, mixed)
    assert vector_mixed == serial_mixed
    assert (
        db_vector.engine.counter.snapshot()
        == db_serial.engine.counter.snapshot()
    )

    serial_seconds, serial_results, serial_counter = timed_run(
        SerialPolicy, database_factory, workload
    )

    fixed: dict[int, float] = {}
    for batch_size in FIXED_BATCH_SIZES:
        seconds, results, counter = timed_run(
            lambda batch_size=batch_size: VectorizedPolicy(
                batch_size=batch_size
            ),
            database_factory,
            workload,
        )
        assert results == serial_results
        assert counter == serial_counter
        fixed[batch_size] = seconds

    best_size, best_seconds = min(fixed.items(), key=lambda item: item[1])
    print(
        f"\nsession fast path: {num_ops} ops on {num_rows} rows / "
        f"{num_chunks} chunks -> serial {serial_seconds * 1e3:.1f}ms, "
        + ", ".join(
            f"fixed[{size}] {seconds * 1e3:.1f}ms"
            for size, seconds in sorted(fixed.items())
        )
        + f" (best fixed[{best_size}] "
        f"{serial_seconds / best_seconds:.2f}x serial)"
    )
    _RESULTS["fig12_session_fixed"] = {
        "num_rows": num_rows,
        "num_chunks": num_chunks,
        "num_operations": num_ops,
        "serial_ms": serial_seconds * 1e3,
        "fixed_ms": {str(size): seconds * 1e3 for size, seconds in fixed.items()},
        "best_fixed_batch_size": best_size,
        "best_fixed_vs_serial": serial_seconds / best_seconds,
    }
    _flush_results()
    assert best_seconds < serial_seconds


def build_mixed_workload(num_rows: int, num_ops: int) -> Workload:
    """Read bursts interleaved with insert/delete runs (the mixed phase).

    Each round is a 512-op point burst, a 64-row insert run of fresh odd
    keys, a 128-op range-count burst and a 64-row delete run removing the
    keys inserted two rounds earlier.  Inserted (and deleted) keys are
    unique in the table, so batched delete runs return exactly the serial
    results (the ascending-replay caveat of ``execute_batch`` only bites
    duplicate keys); simulated write charges may coalesce below serial's,
    so the mixed phase asserts result equivalence and records wall-clock,
    without the read-phase counter-equality gate.
    """
    rng = np.random.default_rng(23)
    keys = np.arange(num_rows, dtype=np.int64) * 2
    domain = num_rows * 2
    operations: list = []
    fresh = iter(range(1, 2 * num_ops, 2))  # odd keys: never in the table
    pending: list[list[int]] = []
    while len(operations) < num_ops:
        operations.extend(
            PointQuery(key=int(k)) for k in rng.choice(keys, 512, replace=True)
        )
        batch = [next(fresh) for _ in range(64)]
        operations.extend(Insert(key=key) for key in batch)
        pending.append(batch)
        lows = rng.integers(0, domain - 1_100, 128)
        operations.extend(
            RangeQuery(low=int(low), high=int(low) + 1_000) for low in lows
        )
        if len(pending) > 2:
            operations.extend(Delete(key=key) for key in pending.pop(0))
    return Workload(operations=operations[:num_ops], name="fig12 mixed mix")


def test_fig12_session_mixed_read_write_phase(benchmark):
    """Mixed phase: vectorized == serial results, speedup gap recorded."""
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    num_rows = int(os.environ.get("REPRO_BENCH_ROWS", 1_048_576))
    num_chunks = 16
    block_values = 4_096
    num_ops = min(16_384, num_rows // 2)
    read_only = build_workload(num_rows, num_ops)
    mixed = build_mixed_workload(num_rows, num_ops)

    def database_factory():
        return build_database(num_rows, num_chunks, block_values)

    serial_mixed_s, serial_mixed_results, _ = timed_run(
        SerialPolicy, database_factory, mixed
    )
    vector_mixed_s, vector_mixed_results, _ = timed_run(
        lambda: VectorizedPolicy(batch_size=256), database_factory, mixed
    )
    # Dispatch strategy must stay invisible to results even when write runs
    # interleave with the read bursts.
    assert vector_mixed_results == serial_mixed_results

    serial_read_s, _, _ = timed_run(SerialPolicy, database_factory, read_only)
    vector_read_s, _, _ = timed_run(
        lambda: VectorizedPolicy(batch_size=256), database_factory, read_only
    )
    read_speedup = serial_read_s / vector_read_s
    mixed_speedup = serial_mixed_s / vector_mixed_s
    print(
        f"\nmixed phase: {num_ops} ops on {num_rows} rows -> read-only "
        f"speedup {read_speedup:.2f}x (serial {serial_read_s * 1e3:.1f}ms), "
        f"mixed speedup {mixed_speedup:.2f}x (serial "
        f"{serial_mixed_s * 1e3:.1f}ms, vectorized "
        f"{vector_mixed_s * 1e3:.1f}ms); gap "
        f"{read_speedup / mixed_speedup:.2f}x"
    )
    _RESULTS["fig12_session_mixed"] = {
        "num_rows": num_rows,
        "num_operations": num_ops,
        "serial_read_only_ms": serial_read_s * 1e3,
        "vectorized_read_only_ms": vector_read_s * 1e3,
        "serial_mixed_ms": serial_mixed_s * 1e3,
        "vectorized_mixed_ms": vector_mixed_s * 1e3,
        "read_only_speedup": read_speedup,
        "mixed_speedup": mixed_speedup,
        "read_only_vs_mixed_gap": read_speedup / mixed_speedup,
    }
    _flush_results()
    # Batched dispatch must still win outright on the mixed phase (the
    # sorted-view cache thrash narrows the gap; it must not erase it).
    assert mixed_speedup > 1.0


SHUFFLE_BATCH = 256


def shuffled_within_batches(workload: Workload, batch_size: int) -> Workload:
    """The same operations, order permuted inside each ``batch_size`` slice.

    Every slice keeps its multiset of operations, so a policy dispatching
    ``batch_size`` slices does the same kernel work on both workloads and
    only the grouping of interleaved reads differs.
    """
    rng = np.random.default_rng(29)
    operations: list = []
    for start in range(0, len(workload), batch_size):
        batch = workload.operations[start : start + batch_size]
        operations.extend(batch[i] for i in rng.permutation(len(batch)))
    return Workload(operations=operations, name=f"{workload.name}, shuffled")


def read_dispatch_bound(workload: Workload, batch_size: int) -> int:
    """Upper bound on grouped read dispatches: per batch, distinct read
    group keys x write-free stretches."""
    bound = 0
    for start in range(0, len(workload), batch_size):
        batch = workload.operations[start : start + batch_size]
        read_keys = {
            op.group_key
            for op in batch
            if not op.writes and op.group_key is not None
        }
        stretches = sum(
            not writes for writes, _ in groupby(batch, key=attrgetter("writes"))
        )
        bound += len(read_keys) * stretches
    return bound


def test_fig12_session_shuffled_read_phase(benchmark):
    """Shuffled phase: interleaved reads still ride one kernel call per kind."""
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    num_rows = int(os.environ.get("REPRO_BENCH_ROWS", 1_048_576))
    num_chunks = 16
    block_values = 4_096
    num_ops = min(16_384, num_rows // 2)
    ordered = build_workload(num_rows, num_ops)
    shuffled = shuffled_within_batches(ordered, SHUFFLE_BATCH)

    def database_factory():
        return build_database(num_rows, num_chunks, block_values)

    def vectorized():
        return VectorizedPolicy(batch_size=SHUFFLE_BATCH)

    database = database_factory()
    serial, _, _ = SerialPolicy().execute(database.engine, list(shuffled))
    ordered_s, _, _ = timed_run(vectorized, database_factory, ordered)
    shuffled_s, results, counter = timed_run(
        vectorized, database_factory, shuffled
    )
    assert results == serial
    assert counter == database.engine.counter.snapshot()

    # Dispatch count, from the engine's own statistics on an untimed run.
    database = database_factory()
    vectorized().execute(database.engine, list(shuffled))
    dispatched = database.engine.statistics.operations
    read_runs = dispatched.get("multi_point_query", 0) + dispatched.get(
        "multi_range_count", 0
    )
    bound = read_dispatch_bound(shuffled, SHUFFLE_BATCH)
    batches = -(-num_ops // SHUFFLE_BATCH)

    ordered_ops_per_s = num_ops / ordered_s
    shuffled_ops_per_s = num_ops / shuffled_s
    ratio = shuffled_ops_per_s / ordered_ops_per_s
    print(
        f"\nshuffled phase: {num_ops} ops on {num_rows} rows, "
        f"VectorizedPolicy({SHUFFLE_BATCH}) -> ordered "
        f"{ordered_ops_per_s / 1e3:.1f}k ops/s, shuffled "
        f"{shuffled_ops_per_s / 1e3:.1f}k ops/s ({ratio:.2f}x); "
        f"{read_runs} read dispatches over {batches} batches (bound {bound})"
    )
    _RESULTS["fig12_session_shuffled"] = {
        "num_rows": num_rows,
        "num_operations": num_ops,
        "batch_size": SHUFFLE_BATCH,
        "ordered_ops_per_s": ordered_ops_per_s,
        "shuffled_ops_per_s": shuffled_ops_per_s,
        "shuffled_vs_ordered": ratio,
        "read_dispatches": read_runs,
        "read_dispatch_bound": bound,
        "batches": batches,
    }
    _flush_results()
    assert read_runs <= bound
    # Interleaving the same reads must not cost the batched path its win.
    assert ratio >= 0.8


#: Inserts, deletes and key updates per 256-operation batch of the write
#: phase (the ``drift_reorg`` write mix).
WRITE_MIX = (128, 96, 32)


def build_write_workload(num_rows: int, num_ops: int) -> Workload:
    """Write-only per-operation mix, every batch sorted by kind.

    Inserts take fresh odd keys, deletes and update sources take even keys
    no other operation names, update targets are fresh odd keys -- except
    that one delete per batch names a key the batch inserts, the cross-kind
    reuse that ends a stretch when the permuted order puts the pair across
    another group.
    """
    rng = np.random.default_rng(31)
    inserts, deletes, updates = WRITE_MIX
    # Fewer than half the operations name a present key.
    present = iter((2 * rng.permutation(num_rows)[:num_ops]).tolist())
    fresh = iter(range(1, 4 * num_ops, 2))
    operations: list = []
    while len(operations) < num_ops:
        inserted = [next(fresh) for _ in range(inserts)]
        operations.extend(Insert(key=key) for key in inserted)
        operations.append(Delete(key=inserted[0]))
        operations.extend(Delete(key=next(present)) for _ in range(deletes - 1))
        operations.extend(
            Update(old_key=next(present), new_key=next(fresh))
            for _ in range(updates)
        )
    return Workload(operations=operations[:num_ops], name="fig12 write mix")


def write_dispatch_bound(workload: Workload, batch_size: int) -> int:
    """Upper bound on grouped write dispatches: per batch, three write
    kinds x (write stretches + cross-kind reuses of a written key, each of
    which can end a stretch)."""
    bound = 0
    for start in range(0, len(workload), batch_size):
        batch = workload.operations[start : start + batch_size]
        for writes, stretch in groupby(batch, key=attrgetter("writes")):
            if not writes:
                continue
            named: dict[int, tuple] = {}
            reuses = 0
            for op in stretch:
                for key in op.written_keys:
                    reuses += named.setdefault(key, op.group_key) != op.group_key
            bound += 3 * (1 + reuses)
    return bound


def test_fig12_session_shuffled_write_phase(benchmark):
    """Shuffled writes: interleaved writes still ride one kernel call per kind."""
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    num_rows = int(os.environ.get("REPRO_BENCH_ROWS", 1_048_576))
    num_chunks = 16
    block_values = 4_096
    num_ops = min(16_384, num_rows // 2)
    ordered = build_write_workload(num_rows, num_ops)
    shuffled = shuffled_within_batches(ordered, SHUFFLE_BATCH)

    def database_factory():
        return build_database(num_rows, num_chunks, block_values)

    def vectorized():
        return VectorizedPolicy(batch_size=SHUFFLE_BATCH)

    serial, serial_errors, _ = SerialPolicy().execute(
        database_factory().engine, list(shuffled)
    )
    ordered_s, _, _ = timed_run(vectorized, database_factory, ordered)
    shuffled_s, results, _ = timed_run(vectorized, database_factory, shuffled)
    # Insert results are row ids, so this is row-id equality too.
    assert results == serial

    # Dispatch count, from the engine's own statistics on an untimed run.
    database = database_factory()
    _, errors, _ = vectorized().execute(database.engine, list(shuffled))
    assert errors == serial_errors
    database.table.check_invariants()
    dispatched = database.engine.statistics.operations
    write_runs = sum(
        dispatched.get(kind, 0)
        for kind in ("multi_insert", "multi_delete", "multi_update")
    )
    bound = write_dispatch_bound(shuffled, SHUFFLE_BATCH)
    batches = -(-num_ops // SHUFFLE_BATCH)

    ordered_ops_per_s = num_ops / ordered_s
    shuffled_ops_per_s = num_ops / shuffled_s
    ratio = shuffled_ops_per_s / ordered_ops_per_s
    print(
        f"\nshuffled write phase: {num_ops} ops on {num_rows} rows, "
        f"VectorizedPolicy({SHUFFLE_BATCH}) -> ordered "
        f"{ordered_ops_per_s / 1e3:.1f}k ops/s, shuffled "
        f"{shuffled_ops_per_s / 1e3:.1f}k ops/s ({ratio:.2f}x); "
        f"{write_runs} write dispatches over {batches} batches (bound {bound})"
    )
    _RESULTS["fig12_session_shuffled_writes"] = {
        "num_rows": num_rows,
        "num_operations": num_ops,
        "batch_size": SHUFFLE_BATCH,
        "ordered_ops_per_s": ordered_ops_per_s,
        "shuffled_ops_per_s": shuffled_ops_per_s,
        "shuffled_vs_ordered": ratio,
        "write_dispatches": write_runs,
        "write_dispatch_bound": bound,
        "batches": batches,
    }
    _flush_results()
    assert write_runs <= bound
    # Interleaving the same writes must not cost the bulk path its win.
    assert ratio >= 0.8

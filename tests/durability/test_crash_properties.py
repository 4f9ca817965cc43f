"""Fault-injected crash recovery: random workloads, every crash point.

The harness drives an oracle model (a plain ``dict`` of ``key -> payload``)
in lockstep with the engine, injects a crash at a named I/O point, then
reopens the log directory and checks the recovered table against the
oracle.  The commit contract under ``fsync="always"`` is:

* every *acknowledged* batch survives recovery, and
* at most the one in-flight batch may additionally survive (its WAL
  record landed before the crash) -- never a partial batch, because a
  batch is one atomic WAL record.

So the recovered state must equal the oracle after ``j`` batches for some
``j`` in ``{acked, applied}``.  Workload keys are unique by construction
(initial keys even, generated keys odd and monotonic), which removes the
duplicate-key delete/update victim ambiguity from the equality check.

:class:`TestSessionCallCrashMatrix` holds a session call to the same
contract: a call is one commit, so a crash at any pass it makes through a
crash point recovers to the state before the call or after it.
:class:`TestRecycledPartialCrashMatrix` and
:class:`TestRecycledSegmentCrashMatrix` crash writes over the pooled
snapshot directory and over the pooled WAL segment.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from wal_model import (
    OP_KINDS,
    build_batch,
    canonical_model,
    canonical_table,
    payload_for,
)

from repro.api.database import Database
from repro.api.policies import SerialPolicy, VectorizedPolicy
from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import LogTail, recover
from repro.durability.snapshot import FREE_DIR
from repro.durability.wal import FREE_SEGMENT, scan_segment, segment_name
from repro.workload.operations import Delete, Insert

#: A workload spec: batches of (op kind, choice index).  The index picks
#: the delete/update victim from the live key set, so specs stay valid
#: whatever state earlier batches left behind.
BATCH_SPECS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 99)),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=5,
)


def run_crash_scenario(root, spec, crash_point, power_loss, offset):
    """Run ``spec`` against a durable database, crashing at ``crash_point``.

    Returns ``(crashed, recovered, allowed)``: whether the injected crash
    fired, the recovered canonical state, and the set of oracle states
    recovery is allowed to land on.
    """
    faults = FaultInjector(power_loss=power_loss)
    config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    prefixes = [canonical_model(model)]
    next_key = [1_000_001]

    # Arm the injector only now: the baseline snapshot above must land.
    faults.crash_at = crash_point
    faults.crash_hit = faults.hits[crash_point] + offset

    acked = 0
    applied = 0
    crashed = False
    for i, spec_batch in enumerate(spec):
        if i == 1:
            # A mid-run checkpoint makes the snapshot crash points
            # reachable; an injected crash aborts it without rotating.
            try:
                db.checkpoint()
            except InjectedCrash:
                crashed = True
                break
        ops, new_model = build_batch(spec_batch, model, next_key)
        try:
            db.engine.execute_batch(ops)
        except InjectedCrash:
            # The batch applied in memory before its WAL append/fsync
            # crashed: its record either landed whole or not at all.
            crashed = True
            model = new_model
            prefixes.append(canonical_model(model))
            applied = acked + 1
            break
        model = new_model
        prefixes.append(canonical_model(model))
        acked += 1
        applied = acked
    if not crashed:
        db.close()

    recovered_db = Database.open(root)
    try:
        recovered = canonical_table(recovered_db.table)
        recovered_db.table.check_invariants()
    finally:
        recovered_db.close()
    allowed = [prefixes[acked], prefixes[applied]]
    return crashed, recovered, allowed


class TestCrashRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        spec=BATCH_SPECS,
        crash_point=st.sampled_from(CRASH_POINTS),
        power_loss=st.booleans(),
        offset=st.integers(1, 4),
    )
    def test_recovery_lands_on_an_oracle_prefix(
        self, spec, crash_point, power_loss, offset
    ):
        with tempfile.TemporaryDirectory() as root:
            crashed, recovered, allowed = run_crash_scenario(
                Path(root), spec, crash_point, power_loss, offset
            )
            assert recovered in allowed
            if not crashed:
                # No crash fired: a clean shutdown must lose nothing.
                assert recovered == allowed[-1]

    @settings(max_examples=10, deadline=None)
    @given(spec=BATCH_SPECS)
    def test_replay_prefix_twice_is_a_noop(self, spec):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            initial = np.arange(0, 60, 2, dtype=np.int64)
            db = Database.from_rows(
                initial,
                payload_for(initial),
                chunk_size=32,
                payload_names=("a", "b"),
                durability=root,
            )
            model = {
                int(key): tuple(row)
                for key, row in zip(
                    initial.tolist(), payload_for(initial).tolist(), strict=True
                )
            }
            next_key = [1_000_001]
            for spec_batch in spec:
                ops, model = build_batch(spec_batch, model, next_key)
                db.engine.execute_batch(ops)
            db.close()

            table, report = recover(root)
            before = canonical_table(table)
            assert before == canonical_model(model)
            # A second catch-up from the recovered watermark re-reads the
            # log and applies nothing.
            tail = LogTail(root, table, report.last_lsn)
            assert tail.advance() == 0
            assert (tail.batches_applied, tail.operations_applied) == (0, 0)
            assert tail.applied_lsn == report.last_lsn
            assert canonical_table(table) == before


class TestCrashMatrix:
    """Deterministic anchor for the CI crash-point matrix."""

    #: Fixed workload: inserts, deletes, updates and reads across four
    #: batches, so every crash offset lands somewhere interesting.
    SPEC = [
        [("insert", 0), ("delete", 3)],
        [("update", 7), ("insert", 1)],
        [("delete", 11), ("read", 0), ("insert", 2)],
        [("update", 5), ("delete", 19)],
    ]

    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_every_crash_point_recovers(self, tmp_path, crash_point, power_loss):
        # The payload segment and the manifest are written once per
        # checkpoint and only one checkpoint runs after the injector is
        # armed; every other point fires repeatedly, so the second hit
        # exercises a mid-run crash.
        offset = 1 if crash_point in ("snapshot.segment", "snapshot.manifest") else 2
        crashed, recovered, allowed = run_crash_scenario(
            tmp_path, self.SPEC, crash_point, power_loss, offset
        )
        assert crashed, f"crash point {crash_point} never fired"
        assert recovered in allowed


#: One session call of three writes: insert, delete, insert.
SESSION_CALL = (
    Insert(1_001, tuple(payload_for([1_001])[0].tolist())),
    Delete(0),
    Insert(1_003, tuple(payload_for([1_003])[0].tolist())),
)


def run_call_crash(root, policy, crash_point, power_loss, hit):
    """Run :data:`SESSION_CALL` as one session call, crashing at the call's
    ``hit``-th pass through ``crash_point`` (``0``: never), then reopen
    ``root``.

    Returns ``(hits, recovered, allowed)``: the passes the call made
    through ``crash_point``, the recovered canonical state, and the states
    before and after the call.
    """
    faults = FaultInjector(power_loss=power_loss)
    config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    before = canonical_model(model)
    first_insert, delete, second_insert = SESSION_CALL
    model[first_insert.key] = first_insert.payload
    model.pop(delete.key)
    model[second_insert.key] = second_insert.payload
    after = canonical_model(model)

    # Arm the injector only now: the baseline snapshot above must land.
    first = faults.hits[crash_point]
    if hit:
        faults.crash_at = crash_point
        faults.crash_hit = first + hit
    try:
        with db.session(execution=policy) as session:
            session.execute(SESSION_CALL)
    except InjectedCrash:
        pass
    else:
        db.close()
    hits = faults.hits[crash_point] - first

    recovered_db = Database.open(root)
    try:
        recovered = canonical_table(recovered_db.table)
        recovered_db.table.check_invariants()
    finally:
        recovered_db.close()
    return hits, recovered, [before, after]


class TestSessionCallCrashMatrix:
    """One session call is one commit: a crash at any pass the call makes
    through a crash point recovers to the state before the call or the
    state after it, never to a part of the call."""

    @pytest.mark.parametrize(
        "policy", [SerialPolicy(), VectorizedPolicy(1)], ids=["serial", "sliced"]
    )
    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_every_hit_recovers_the_whole_call_or_none(
        self, tmp_path, crash_point, power_loss, policy
    ):
        hits, recovered, (before, after) = run_call_crash(
            tmp_path / "clean", policy, crash_point, power_loss, 0
        )
        # Uncrashed, the call recovers whole; the WAL points fire inside
        # it, the snapshot points never do (the call takes no checkpoint).
        assert recovered == after
        assert (hits > 0) == crash_point.startswith("wal.")
        for hit in range(1, hits + 1):
            _, recovered, allowed = run_call_crash(
                tmp_path / f"hit{hit}", policy, crash_point, power_loss, hit
            )
            assert recovered in allowed, f"crash at hit {hit} of {hits}"


def run_recycled_partial_crash(root, crash_point, power_loss):
    """Crash a checkpoint whose partial directory is the recycled pool.

    Two checkpoints leave the baseline snapshot in ``snapshots/.free/``;
    the third takes it as its partial directory and crashes at
    ``crash_point``.  Returns the oracle state, which is every batch's
    (each was acknowledged before the checkpoint).
    """
    faults = FaultInjector(power_loss=power_loss)
    config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    next_key = [1_000_001]
    for index, spec_batch in enumerate(TestCrashMatrix.SPEC[:3]):
        ops, model = build_batch(spec_batch, model, next_key)
        db.engine.execute_batch(ops)
        if index < 2:
            db.checkpoint()
    pool = root / "snapshots" / FREE_DIR
    pooled = {path.name: path.stat().st_ino for path in pool.iterdir()}

    # Crash mid-way through the chunk files, or before the manifest commits.
    faults.crash_at = crash_point
    faults.crash_hit = faults.hits[crash_point] + (
        2 if crash_point == "snapshot.chunk" else 1
    )
    with pytest.raises(InjectedCrash):
        db.checkpoint()
    (partial,) = (root / "snapshots").glob("snap-*.partial")
    assert not pool.exists()
    assert {path.name: path.stat().st_ino for path in partial.iterdir()} == pooled
    return canonical_model(model), partial


class TestRecycledPartialCrashMatrix:
    """A checkpoint crashing inside a partial directory taken from the
    pool recovers exactly like one crashing inside a fresh directory: the
    half-overwritten files are never committed, recovery equals the WAL
    model, and the next checkpoint succeeds."""

    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize("crash_point", ["snapshot.chunk", "snapshot.manifest"])
    def test_recycled_partial_crash_recovers(self, tmp_path, crash_point, power_loss):
        expected, partial = run_recycled_partial_crash(
            tmp_path, crash_point, power_loss
        )
        recovered = Database.open(tmp_path)
        assert canonical_table(recovered.table) == expected
        recovered.table.check_invariants()
        # The next checkpoint commits, and its GC drops the stale partial.
        batch = [("insert", 0), ("delete", 3)]
        model = {key: (a, b) for key, a, b in expected}
        ops, model = build_batch(batch, model, [2_000_001])
        recovered.engine.execute_batch(ops)
        info = recovered.checkpoint()
        assert info.written
        assert not partial.exists()
        assert not list((tmp_path / "snapshots").glob("snap-*.partial"))
        recovered.close()

        again = Database.open(tmp_path)
        assert again.recovery.base_lsn == info.lsn
        assert canonical_table(again.table) == canonical_model(model)
        again.close()


def run_recycled_segment_crash(root, crash_point, power_loss):
    """Crash an append into a recycled live segment.

    Four batches fill ``wal-1``; three checkpoints pool it and rotate into
    it as ``wal-7``, whose file then still holds ``wal-1``'s four records
    -- each passing its CRC, each with an LSN below the segment's name --
    where the next append writes.  One more batch crashes at
    ``crash_point``.  Returns the oracle states before and after that
    batch and the pooled file's bytes.
    """
    faults = FaultInjector(power_loss=power_loss)
    config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    next_key = [1_000_001]

    def write(spec_batch):
        nonlocal model
        ops, model = build_batch(spec_batch, model, next_key)
        db.engine.execute_batch(ops)

    for spec_batch in TestCrashMatrix.SPEC:
        write(spec_batch)
    first = root / "wal" / segment_name(1)
    assert [lsn for lsn, _ in scan_segment(first).records] == [1, 2, 3, 4]
    inode = first.stat().st_ino
    db.checkpoint()
    write(TestCrashMatrix.SPEC[0])
    db.checkpoint()
    pooled = (root / "wal" / FREE_SEGMENT).read_bytes()
    write(TestCrashMatrix.SPEC[1])
    db.checkpoint()
    live = root / "wal" / segment_name(7)
    assert db.durability.wal.path == live and live.stat().st_ino == inode
    assert scan_segment(live).records == []

    before = canonical_model(model)
    faults.crash_at = crash_point
    faults.crash_hit = faults.hits[crash_point] + 1
    with pytest.raises(InjectedCrash):
        write(TestCrashMatrix.SPEC[2])
    return before, canonical_model(model), pooled


class TestRecycledSegmentCrashMatrix:
    """A crash appending into a recycled segment recovers like one
    appending into a new file: the torn record over the stale bytes is
    never applied, nor is any stale record, and both readers equal the WAL
    model.  A power loss leaves the pooled file's old bytes past the
    synced offset, the bytes a disk that never saw the overwrite holds."""

    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize(
        "crash_point", [point for point in CRASH_POINTS if point.startswith("wal.")]
    )
    def test_recycled_segment_crash_recovers(self, tmp_path, crash_point, power_loss):
        before, after, pooled = run_recycled_segment_crash(
            tmp_path, crash_point, power_loss
        )
        live = tmp_path / "wal" / segment_name(7)
        landed = not power_loss and crash_point in ("wal.append.full", "wal.fsync")
        expected = after if landed else before
        if power_loss:
            # Nothing of the new segment was synced past its magic.
            assert live.read_bytes() == pooled

        # The follower only reads the log; the open truncates it.
        replica = Database.follow(tmp_path, start=False, catch_up=False)
        replica.follower.catch_up()
        assert canonical_table(replica.table) == expected
        replica.close()
        recovered = Database.open(tmp_path)
        assert recovered.recovery.last_lsn == (7 if landed else 6)
        assert canonical_table(recovered.table) == expected
        recovered.table.check_invariants()

        # The next checkpoint commits, and the log reopens onto it.
        model = {key: (a, b) for key, a, b in expected}
        ops, model = build_batch([("insert", 0), ("delete", 3)], model, [2_000_001])
        recovered.engine.execute_batch(ops)
        info = recovered.checkpoint()
        assert info.written
        recovered.close()
        again = Database.open(tmp_path)
        assert again.recovery.base_lsn == info.lsn
        assert canonical_table(again.table) == canonical_model(model)
        again.close()

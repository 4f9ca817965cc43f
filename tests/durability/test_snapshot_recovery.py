"""Snapshot + recovery tests: checkpoints, rotation/GC, oracle equality."""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from wal_model import payload_for

from repro.api.database import Database
from repro.api.policies import SerialPolicy, VectorizedPolicy
from repro.api.reorganizer import Reorganizer
from repro.durability import snapshot as snapshot_module
from repro.durability.errors import (
    ReadOnlyError,
    RecoveryError,
    SnapshotCorruptionError,
    WalUnavailableError,
)
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import LogTail, recover
from repro.durability.snapshot import (
    FREE_DIR,
    MANIFEST_NAME,
    PAYLOAD_DIR,
    list_snapshots,
    load_snapshot,
    read_manifest,
    segment_file_name,
)
from repro.durability.wal import (
    FREE_SEGMENT,
    decode_delta_log,
    scan_segment,
    segment_first_lsn,
    segment_name,
)
from repro.replication.follower import Follower
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.workload.operations import (
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
)


def make_db(root, rows=200, **kwargs):
    keys = np.arange(rows, dtype=np.int64) * 2
    kwargs.setdefault("durability", root)
    return Database.from_rows(
        keys,
        payload_for(keys),
        chunk_size=64,
        payload_names=("a", "b"),
        **kwargs,
    )


def fingerprint(table):
    """Multiset of (key, *payload) rows -- rowid-renumbering agnostic."""
    keys = np.sort(table.scan())
    rows = []
    for key in keys.tolist():
        for row in table.point_query(key):
            rows.append((key, *sorted(row.payload.items())))
    return sorted(rows)


def wal_records(root):
    """Every (lsn, body) record across all segments, in LSN order."""
    segments = sorted(
        (root / "wal").glob("wal-*.log"), key=lambda p: segment_first_lsn(p.name)
    )
    records = []
    for segment in segments:
        records.extend(scan_segment(segment).records)
    return records


class TestBaseline:
    def test_from_rows_takes_baseline_snapshot(self, tmp_path):
        db = make_db(tmp_path)
        snapshots = list_snapshots(tmp_path / "snapshots")
        assert len(snapshots) == 1
        loaded = load_snapshot(snapshots[0])
        assert loaded.keys.size == 200
        assert loaded.meta["payload_names"] == ["a", "b"]
        assert (tmp_path / "wal").exists()
        db.close()

    def test_open_without_writes_matches(self, tmp_path):
        db = make_db(tmp_path)
        before = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 0
        assert fingerprint(reopened.table) == before
        reopened.table.check_invariants()
        reopened.close()


class TestWriteRecover:
    def test_writes_survive_close_and_open(self, tmp_path):
        db = make_db(tmp_path)
        with db.session() as s:
            new = np.arange(601, 641, dtype=np.int64)
            s.execute(MultiInsert(tuple(new.tolist()), tuple(map(tuple, payload_for(new)))))
            s.execute(MultiDelete((0, 2, 4, 6)))
            s.execute(MultiUpdate(((10, 11), (12, 13))))
        before = fingerprint(db.table)
        db.close()

        reopened = Database.open(tmp_path)
        report = reopened.recovery
        assert report.batches_replayed == 3
        assert report.last_lsn > report.base_lsn
        assert fingerprint(reopened.table) == before
        reopened.table.check_invariants()
        # The reopened database accepts further durable writes.
        with reopened.session() as s:
            result = s.execute(MultiInsert((1001, 1003), ((1, 2), (3, 4))))
            assert result.commit_lsn == report.last_lsn + 1
            assert result.durable
            assert s.execute(PointQuery(1001)).results[0]
        reopened.close()

    def test_commit_acknowledgement_reports_lsn(self, tmp_path):
        db = make_db(tmp_path)
        with db.session() as s:
            read = s.execute(RangeQuery(0, 100))
            write = s.execute(MultiInsert((901,), ((0, 0),)))
            assert s.sync() == write.commit_lsn
        # The pure read ran before any write: nothing logged yet.
        assert read.commit_lsn is None
        assert write.commit_lsn == 1
        assert write.durable  # fsync="always"
        db.close()

        # A pure read after a write reports no commit of its own, and so
        # nothing that is not yet durable.
        root = tmp_path / "interval"
        interval = make_db(
            root, durability=DurabilityConfig(root, fsync="interval")
        )
        with interval.session() as s:
            write = s.execute(MultiInsert((901,), ((0, 0),)))
            read = s.execute(PointQuery(901))
        assert (write.commit_lsn, write.durable) == (1, False)
        assert (read.commit_lsn, read.durable) == (None, True)
        interval.close()

    def test_commit_lsn_is_the_calls_own_record(self, tmp_path):
        db = make_db(tmp_path)
        other = db.session()

        class Interleaving(Reorganizer):
            # Runs after the call's scope closed and before it returns: a
            # stand-in for a concurrent session committing in between.
            def after_execute(self, database):
                other.execute(MultiInsert((2_001,), ((0, 0),)))
                return super().after_execute(database)

        with db.session(reorg=Interleaving()) as s:
            outcome = s.execute(MultiInsert((1_001,), ((0, 0),)))
        assert db.durability.last_lsn == 2
        assert (outcome.commit_lsn, outcome.durable) == (1, True)
        other.close()
        db.close()

    def test_multi_slice_call_commits_one_record(self, tmp_path):
        fresh = np.arange(1_001, 1_141, 2, dtype=np.int64)
        writes = [
            Insert(key, tuple(row)) for key, row in zip(
                fresh.tolist(), payload_for(fresh).tolist()
            )
        ]
        assert len(writes) == 70
        db = make_db(tmp_path)
        with db.session(execution=VectorizedPolicy(batch_size=32)) as s:
            outcome = s.execute(writes)
        assert outcome.batch_sizes == [32, 32, 6]
        assert len(wal_records(tmp_path)) == 1
        assert outcome.commit_lsn == 1
        before = fingerprint(db.table)
        db.close()

        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 1
        assert fingerprint(reopened.table) == before
        reopened.close()

    def test_checkpoint_shortens_replay(self, tmp_path):
        db = make_db(tmp_path)
        with db.session() as s:
            s.execute(MultiInsert((801, 803), ((0, 0), (1, 1))))
        info = db.checkpoint()
        assert info.lsn == 1
        with db.session() as s:
            s.execute(MultiDelete((801,)))
        db.close()

        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == info.lsn
        assert reopened.recovery.batches_replayed == 1
        assert reopened.table.point_query(803)
        assert not reopened.table.point_query(801)
        reopened.close()


class TestRotationAndGC:
    def test_checkpoints_rotate_and_collect(self, tmp_path):
        db = make_db(tmp_path)
        wal_dir = tmp_path / "wal"

        def write_round(base):
            with db.session() as s:
                s.execute(MultiInsert((base, base + 2), ((0, 0), (1, 1))))

        write_round(2001)
        db.checkpoint()
        assert len(list_snapshots(tmp_path / "snapshots")) == 2
        write_round(3001)
        db.checkpoint()
        # keep_snapshots=2: the baseline snapshot is gone, and with it the
        # segments its successors fully cover.
        snapshots = list_snapshots(tmp_path / "snapshots")
        assert len(snapshots) == 2
        firsts = sorted(
            segment_first_lsn(p.name) for p in wal_dir.glob("wal-*.log")
        )
        assert firsts[0] > 1  # the first post-baseline segment was collected
        db.close()

        reopened = Database.open(tmp_path)
        assert reopened.table.point_query(2001)
        assert reopened.table.point_query(3003)
        reopened.close()

    def test_layout_spec_survives_recovery(self, tmp_path):
        keys = np.arange(500, dtype=np.int64)
        spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=8)
        db = Database.from_rows(
            keys,
            payload_for(keys),
            layout=spec,
            chunk_size=128,
            payload_names=("a", "b"),
            durability=tmp_path,
        )
        with db.session() as s:
            s.execute(MultiInsert((9001,), ((5, 5),)))
        db.checkpoint()
        db.close()

        reopened = Database.open(tmp_path)
        # The rebuilt chunks use the stored layout spec, not a default.
        snapshots = list_snapshots(tmp_path / "snapshots")
        meta = load_snapshot(snapshots[0]).meta
        assert meta["layout_spec"]["kind"] == "equi"
        assert meta["layout_spec"]["partitions"] == 8
        assert reopened.table.num_rows == 501
        reopened.table.check_invariants()
        # A post-recovery checkpoint preserves the spec for the next open.
        with reopened.session() as s:
            s.execute(MultiInsert((9003,), ((6, 6),)))
        reopened.checkpoint()
        latest = load_snapshot(list_snapshots(tmp_path / "snapshots")[0])
        assert latest.meta["layout_spec"]["partitions"] == 8
        reopened.close()


class TestReplaySemantics:
    def test_replay_is_idempotent_past_watermark(self, tmp_path):
        db = make_db(tmp_path)
        with db.session() as s:
            s.execute(MultiInsert((701, 703), ((0, 0), (1, 1))))
            s.execute(MultiDelete((701,)))
        db.close()

        table, report = recover(tmp_path)
        before = fingerprint(table)
        assert wal_records(tmp_path)
        # A second catch-up from the recovered watermark is a no-op.
        tail = LogTail(tmp_path, table, report.last_lsn)
        assert tail.advance() == 0
        assert tail.batches_applied == 0
        assert tail.operations_applied == 0
        assert tail.applied_lsn == report.last_lsn
        assert fingerprint(table) == before

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        db = make_db(tmp_path)
        with db.session() as s:
            s.execute(MultiInsert((501,), ((0, 0),)))
        db.checkpoint()
        with db.session() as s:
            s.execute(MultiInsert((503,), ((1, 1),)))
        before = fingerprint(db.table)
        db.close()

        newest = list_snapshots(tmp_path / "snapshots")[0]
        chunk = sorted(newest.glob("chunk-*.npz"))[0]
        data = bytearray(chunk.read_bytes())
        data[len(data) // 2] ^= 0xFF
        chunk.write_bytes(bytes(data))

        reopened = Database.open(tmp_path)
        # Fallback to the baseline snapshot means a longer replay.
        assert reopened.recovery.base_lsn == 0
        assert reopened.recovery.batches_replayed == 2
        assert fingerprint(reopened.table) == before
        reopened.close()


def delta_kinds(root):
    """The delta-entry kinds of every WAL record, in LSN order."""
    return [
        [entry.kind for entry in decode_delta_log(body).records]
        for _, body in wal_records(root)
    ]


class TestShuffledWriteBatch:
    """Per-op writes in random order: the batch groups by commutation, logs
    one delta entry per applied group, and replays to the serial table."""

    @staticmethod
    def shuffled_writes(seed=3):
        rng = np.random.default_rng(seed)
        present = rng.permutation(np.arange(0, 400, 2)).tolist()
        fresh = rng.permutation(np.arange(1_001, 1_401, 2)).tolist()
        writes = (
            [
                Insert(key, tuple(payload_for([key])[0].tolist()))
                for key in fresh[:128]
            ]
            + [Delete(key) for key in present[:96]]
            + [Update(*pair) for pair in zip(present[96:128], fresh[128:160])]
        )
        return [writes[i] for i in rng.permutation(len(writes))]

    def test_one_record_of_one_entry_per_kind_replays_to_serial(
        self, tmp_path
    ):
        writes = self.shuffled_writes()
        assert len(writes) == 256
        # One cross-kind reuse of a written key: one more entry.
        reuse = [Insert(1_501, (1, 2)), Delete(1_503), Insert(1_503, (3, 4))]
        db = make_db(tmp_path)
        with db.session(execution=VectorizedPolicy(batch_size=256)) as s:
            first = s.execute(writes)
            second = s.execute(reuse)
        assert (first.commit_lsn, second.commit_lsn) == (1, 2)
        first_kinds, second_kinds = delta_kinds(tmp_path)
        assert sorted(first_kinds) == ["delete", "insert", "update"]
        assert second_kinds == ["insert", "delete", "insert"]
        db.close()

        serial = make_db(None)
        with serial.session(execution=SerialPolicy()) as s:
            s.execute(writes)
            s.execute(reuse)
        expected = fingerprint(serial.table)

        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 2
        assert fingerprint(reopened.table) == expected
        reopened.table.check_invariants()
        reopened.close()
        replica = Database.follow(tmp_path, start=False)
        assert replica.follower.caught_up
        assert fingerprint(replica.table) == expected
        replica.table.check_invariants()
        replica.close()

    def test_malformed_insert_leaves_log_and_memory_agreeing(self, tmp_path):
        # The wrong payload width surfaces when its group is dispatched;
        # the groups applied before it are logged, nothing else is.
        batch = [
            Delete(0),
            Insert(1_001, (1, 2)),
            Delete(2),
            Insert(1_003, (1, 2, 3)),
            Update(4, 1_005),
            Insert(1_007, (3, 4)),
        ]
        db = make_db(tmp_path)
        with db.session(execution=VectorizedPolicy(batch_size=256)) as s:
            with pytest.raises(ValueError):
                s.execute(batch)
        applied = fingerprint(db.table)
        db.table.check_invariants()
        db.close()
        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == applied
        # The database keeps serving durable writes after the failure.
        with reopened.session() as s:
            assert s.execute(Insert(1_009, (5, 6))).durable
        reopened.close()


class TestCommitScope:
    """The engine's one commit scope: whatever is applied inside the
    outermost open scope is one WAL record, an applied prefix included."""

    def test_batch_dying_in_its_third_group_logs_the_applied_prefix(
        self, tmp_path
    ):
        batch = [
            Delete(0),
            Update(4, 1_005),
            Insert(1_001, (1, 2)),
            Insert(1_003, (1, 2, 3)),
            Delete(2),
        ]
        db = make_db(tmp_path)
        with pytest.raises(ValueError):
            db.engine.execute_batch(batch)
        # The deletes and the update were applied, so they are the record;
        # the scope did not complete, so it was appended but never synced.
        assert delta_kinds(tmp_path) == [["delete", "update"]]
        assert db.durability.last_lsn == 1
        assert db.durability.durable_lsn == 0
        applied = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == applied
        reopened.close()

    def test_writes_inside_an_open_scope_join_its_record(self, tmp_path):
        db = make_db(tmp_path)
        engine = db.engine
        # Every write a batch dispatches joins the batch's record ...
        engine.execute_batch(
            [
                MultiInsert((1_001, 1_003), ((1, 2), (3, 4))),
                Delete(0),
                MultiUpdate(((2, 1_005),)),
            ]
        )
        assert db.durability.last_lsn == 1
        # ... a scalar write on its own gets its own ...
        engine.execute(Insert(1_007, (5, 6)))
        engine.execute(Delete(4))
        # ... and one issued while a scope is open joins that scope.
        with engine.commit_scope() as deltas:
            engine.execute(Insert(1_009, (7, 8)))
            engine.execute(Update(6, 1_011))
            with engine.commit_scope() as inner:
                assert inner is deltas
        assert deltas.lsn == 4
        assert delta_kinds(tmp_path) == [
            ["insert", "delete", "update"],
            ["insert"],
            ["delete"],
            ["insert", "update"],
        ]
        assert db.durability.durable_lsn == 4
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_serial_miss_is_recorded_like_a_batched_one(self, tmp_path):
        # Odd keys are absent, so both writes miss.  A serial miss is
        # recorded in its call's one record, which is appended and synced
        # as a batched call's is; replaying it is a no-op, and the monitor
        # attributes it the same way on both paths.
        misses = [Delete(1), Update(3, 1_001)]
        serial = make_db(tmp_path / "serial", monitor=True)
        with serial.session(execution=SerialPolicy()) as s:
            assert s.execute(misses).errors == 2
        assert delta_kinds(tmp_path / "serial") == [["delete", "update"]]
        assert serial.durability.durable_lsn == 1
        batched = make_db(tmp_path / "batched", monitor=True)
        with batched.session(execution=VectorizedPolicy(batch_size=256)) as s:
            assert s.execute(misses).errors == 2
        assert delta_kinds(tmp_path / "batched") == [["delete", "update"]]
        assert observed_counts(serial.monitor) == observed_counts(batched.monitor)
        assert observed_counts(serial.monitor) == {
            0: {"delete": 1, "update_source": 1},
            3: {"update_target": 1},
        }
        expected = fingerprint(serial.table)
        serial.close()
        batched.close()
        reopened = Database.open(tmp_path / "serial")
        assert reopened.recovery.batches_replayed == 1
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_open_reads_the_recovered_snapshot_once(self, tmp_path, monkeypatch):
        db = make_db(tmp_path)
        db.close()
        loads = []
        real_load = snapshot_module.load_snapshot

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(snapshot_module, "load_snapshot", counting_load)
        reopened = Database.open(tmp_path)
        assert len(loads) == 1
        # The manifest metadata still carries over to later snapshots.
        assert reopened.durability.meta == real_load(loads[0]).meta
        reopened.close()


def observed_counts(monitor):
    return {
        chunk: monitor.operation_counts(chunk)
        for chunk in monitor.observed_chunks()
    }


class TestReadOnlyDegradation:
    def test_unwritable_log_degrades_to_read_only(self, tmp_path):
        faults = FaultInjector()
        config = DurabilityConfig(
            root=tmp_path, faults=faults, max_retries=1, retry_backoff_s=0.0
        )
        db = Database.from_rows(
            np.arange(100, dtype=np.int64),
            payload_for(np.arange(100)),
            chunk_size=32,
            payload_names=("a", "b"),
            durability=config,
        )
        with db.session() as s:
            s.execute(MultiInsert((901,), ((0, 0),)))
        # The log directory "becomes unwritable" from here on.
        faults.io_error_at = "wal.write"
        faults.io_errors = 10**9
        with db.session() as s, pytest.raises(WalUnavailableError):
            s.execute(MultiInsert((903,), ((1, 1),)))
        assert db.read_only
        with db.session() as s:
            with pytest.raises(ReadOnlyError):
                s.execute(MultiInsert((905,), ((2, 2),)))
            # Reads keep flowing in the degraded state.
            assert s.execute(RangeQuery(0, 200)).results[0] > 0
            assert s.execute(PointQuery(901)).results[0]
        db.close()

        # Restart sees only the acknowledged prefix: lsn 1 survives, the
        # failed append never made it to the log.
        faults.io_errors = 0
        reopened = Database.open(tmp_path)
        assert reopened.recovery.last_lsn == 1
        assert reopened.table.point_query(901)
        assert not reopened.table.point_query(903)
        reopened.close()


    @pytest.mark.parametrize("policy", [SerialPolicy(), VectorizedPolicy(8)])
    def test_closed_database_refuses_writes_before_applying(
        self, tmp_path, policy
    ):
        db = Database.from_rows(
            np.arange(0, 1000, 2, dtype=np.int64), durability=tmp_path
        )
        session = db.session(execution=policy)
        db.close()
        with pytest.raises(ReadOnlyError, match="closed"):
            session.execute([Insert(3), Insert(5)])
        with pytest.raises(ReadOnlyError, match="closed"):
            db.checkpoint()
        # Nothing was applied that the log does not hold; reads still run.
        assert db.num_rows == 500
        assert session.execute(RangeQuery(0, 10)).results == [6]
        session.close()
        reopened = Database.open(tmp_path)
        assert reopened.num_rows == 500
        reopened.close()


class TestConcurrentDurability:
    @pytest.mark.concurrency
    def test_concurrent_sessions_recover_exactly(
        self, tmp_path, tight_switch_interval
    ):
        db = make_db(tmp_path, rows=100)
        errors = []

        def worker(worker_id):
            try:
                with db.session(
                    execution=VectorizedPolicy(batch_size=32)
                ) as s:
                    for round_no in range(5):
                        base = 10_000 + worker_id * 1_000 + round_no * 100
                        keys = np.arange(base, base + 40, 2, dtype=np.int64)
                        s.execute(
                            MultiInsert(
                                tuple(keys.tolist()),
                                tuple(map(tuple, payload_for(keys))),
                            )
                        )
                        s.execute(RangeQuery(0, 50_000))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        before = fingerprint(db.table)
        db.checkpoint()
        db.close()

        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == before
        reopened.table.check_invariants()
        reopened.close()

    def test_durable_write_commits_while_checkpoint_deletes_garbage(
        self, tmp_path, monkeypatch
    ):
        # keep_snapshots=1 and a retention pin at the baseline: two
        # checkpoints keep every segment, then the pin is released and the
        # next checkpoint frees three at once.  The first becomes the
        # segment pool; the other two are unlinked outside the lock.
        db = make_db(
            tmp_path, durability=DurabilityConfig(root=tmp_path, keep_snapshots=1)
        )
        db.durability.pin_lsn("held", 0)
        for keys in ([1, 3], [9, 11]):
            insert_round(db, keys)
            db.checkpoint()
        assert len(db.durability.segments()) == 3
        db.durability.release_pin("held")
        insert_round(db, [13, 15])
        in_gc, release = threading.Event(), threading.Event()
        unlink = Path.unlink

        def blocking_unlink(path, *args, **kwargs):
            if threading.current_thread().name == "checkpoint":
                in_gc.set()
                release.wait(timeout=10)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", blocking_unlink)
        outcome = {}

        def run(name, fn):
            try:
                outcome[name] = fn()
            except Exception as exc:  # pragma: no cover - diagnostic
                outcome[name] = exc

        checkpointer = threading.Thread(
            target=run, args=("checkpoint", db.checkpoint), name="checkpoint"
        )
        checkpointer.start()
        writer = threading.Thread(
            target=run, args=("write", lambda: insert_round(db, [5, 7]))
        )
        try:
            assert in_gc.wait(timeout=10), "the checkpoint unlinked nothing"
            writer.start()
            writer.join(timeout=5)
            committed_during_gc = not writer.is_alive()
        finally:
            release.set()
            checkpointer.join()
            if writer.ident is not None:
                writer.join()
        assert committed_during_gc
        assert outcome["write"] is None
        info = outcome["checkpoint"]
        assert db.durability.durable_lsn == info.lsn + 1
        assert sorted(path.name for path in (tmp_path / "wal").iterdir()) == [
            FREE_SEGMENT,
            segment_name(info.lsn + 1),
        ]
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.table.point_query(5) and reopened.table.point_query(3)
        reopened.close()


def segment_names(root):
    """Names of the payload segment files under log directory ``root``."""
    return {path.name for path in (root / "snapshots" / PAYLOAD_DIR).iterdir()}


def newest_manifest(root):
    return read_manifest(list_snapshots(root / "snapshots")[0])


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def insert_round(db, keys):
    keys = np.asarray(keys, dtype=np.int64)
    with db.session() as s:
        s.execute(MultiInsert(tuple(keys.tolist()), tuple(map(tuple, payload_for(keys)))))


class TestPayloadSegments:
    """Checkpoints store payload as immutable row-id-range segments and
    write each payload row once per table incarnation."""

    def test_checkpoint_writes_one_segment_of_the_new_rows(self, tmp_path):
        db = make_db(tmp_path)
        baseline = newest_manifest(tmp_path)["segments"]
        assert [(s["file"], s["start"], s["stop"]) for s in baseline] == [
            (segment_file_name(0, 0, 200), 0, 200)
        ]
        insert_round(db, [1001, 1003, 1005])
        before = segment_names(tmp_path)
        info = db.checkpoint()
        assert segment_names(tmp_path) - before == {
            segment_file_name(info.lsn, 200, 203)
        }
        manifest = read_manifest(info.path)
        assert manifest["segments"][0] == baseline[0]
        assert [(s["start"], s["stop"]) for s in manifest["segments"]] == [
            (0, 200),
            (200, 203),
        ]
        assert manifest["next_rowid"] == 203
        # Deletes and key updates append no payload: no new segment.
        with db.session() as s:
            s.execute(MultiDelete((0, 1001)))
            s.execute(MultiUpdate(((2, 3),)))
        before = segment_names(tmp_path)
        info = db.checkpoint()
        assert segment_names(tmp_path) == before
        assert read_manifest(info.path)["segments"] == manifest["segments"]
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 0
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_checkpoint_creates_only_chunks_new_rows_and_manifest(self, tmp_path):
        db = make_db(tmp_path)
        snapshots = tmp_path / "snapshots"
        before = {path for path in snapshots.rglob("*") if path.is_file()}
        new_keys = [1001, 1003, 1005, 1007, 1009]
        insert_round(db, new_keys)
        info = db.checkpoint()
        created = [
            path for path in snapshots.rglob("*") if path.is_file() and path not in before
        ]
        chunk_bytes = sum(path.stat().st_size for path in info.path.glob("chunk-*.npz"))
        manifest_bytes = (info.path / MANIFEST_NAME).stat().st_size
        # 16 bytes per payload row (two int64 columns) plus the 128-byte
        # .npy header of the one new segment.
        row_bytes = len(new_keys) * 16 + 128
        total = sum(path.stat().st_size for path in created)
        assert total <= chunk_bytes + manifest_bytes + row_bytes
        db.close()

    def test_reopened_table_writes_a_full_segment_under_a_new_name(self, tmp_path):
        db = make_db(tmp_path)
        insert_round(db, [1001, 1003])
        db.checkpoint()
        with db.session() as s:
            s.execute(MultiDelete((0, 2, 4)))
        db.close()
        old = segment_names(tmp_path)

        reopened = Database.open(tmp_path)
        assert reopened.table.num_rows == 199
        insert_round(reopened, [2001])
        info = reopened.checkpoint()
        segments = read_manifest(info.path)["segments"]
        # Recovery renumbered the row ids: nothing from before is reused.
        # The 202 snapshot rows load as row ids 0..201 (the replayed
        # deletes keep theirs), and the insert takes row id 202.
        assert [(s["start"], s["stop"]) for s in segments] == [(0, 203)]
        assert segments[0]["file"] == segment_file_name(info.lsn, 0, 203)
        assert segments[0]["file"] not in old
        # The pre-restart snapshot is still kept, and with it its segments.
        assert old <= segment_names(tmp_path)
        insert_round(reopened, [2003])
        info = reopened.checkpoint()
        assert not old & segment_names(tmp_path)
        assert [(s["start"], s["stop"]) for s in read_manifest(info.path)["segments"]] == [
            (0, 203),
            (203, 204),
        ]
        expected = fingerprint(reopened.table)
        reopened.close()

        again = Database.open(tmp_path)
        assert fingerprint(again.table) == expected
        again.close()
        again = Database.open(tmp_path)
        assert fingerprint(again.table) == expected
        again.close()

    def test_existing_snapshot_path_reuses_no_segment(self, tmp_path):
        db = make_db(tmp_path)
        db.close()
        reopened = Database.open(tmp_path)
        info = reopened.checkpoint()
        assert not info.written
        insert_round(reopened, [1001])
        info = reopened.checkpoint()
        assert [(s["start"], s["stop"]) for s in read_manifest(info.path)["segments"]] == [
            (0, 201)
        ]
        reopened.close()

    def test_segments_are_reused_only_for_the_table_that_wrote_them(self, tmp_path):
        db = make_db(tmp_path)
        other = make_db(tmp_path / "other", rows=150)
        insert_round(db, [1001])
        info = db.durability.checkpoint(other.table)
        assert [(s["start"], s["stop"]) for s in read_manifest(info.path)["segments"]] == [
            (0, 150)
        ]
        other.close()
        db.close()

    def test_corrupt_newest_segment_falls_back_to_older(self, tmp_path):
        db = make_db(tmp_path)
        insert_round(db, [501])
        info = db.checkpoint()
        insert_round(db, [503])
        before = fingerprint(db.table)
        db.close()

        newest = read_manifest(info.path)["segments"][-1]["file"]
        flip_last_byte(tmp_path / "snapshots" / PAYLOAD_DIR / newest)
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(info.path)

        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == 0
        assert reopened.recovery.batches_replayed == 2
        assert fingerprint(reopened.table) == before
        reopened.close()

    def test_corrupt_baseline_segment_fails_loudly(self, tmp_path):
        db = make_db(tmp_path)
        insert_round(db, [501])
        db.checkpoint()
        db.close()
        # Both kept snapshots name the baseline segment.
        flip_last_byte(tmp_path / "snapshots" / PAYLOAD_DIR / segment_file_name(0, 0, 200))
        with pytest.raises(RecoveryError):
            Database.open(tmp_path)

    def test_version_one_manifest_is_refused(self, tmp_path):
        db = make_db(tmp_path)
        db.close()
        snapshot = list_snapshots(tmp_path / "snapshots")[0]
        manifest_path = snapshot / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptionError, match="version 1"):
            load_snapshot(snapshot)
        with pytest.raises(RecoveryError):
            Database.open(tmp_path)

    def test_next_checkpoint_collects_a_crash_orphan_segment(self, tmp_path):
        faults = FaultInjector()
        config = DurabilityConfig(root=tmp_path, faults=faults, retry_backoff_s=0.0)
        db = make_db(tmp_path, durability=config)
        baseline = segment_names(tmp_path)
        insert_round(db, [1001, 1003])
        faults.crash_at = "snapshot.segment"
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        orphans = segment_names(tmp_path) - baseline
        assert len(orphans) == 1
        assert len(list_snapshots(tmp_path / "snapshots")) == 1

        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 1
        expected = fingerprint(reopened.table)
        reopened.checkpoint()
        assert not orphans & segment_names(tmp_path)
        reopened.close()
        again = Database.open(tmp_path)
        assert fingerprint(again.table) == expected
        again.close()


class TestRecycledWalSegment:
    """Checkpoint GC keeps the first WAL segment it drops as the pool
    ``wal/.free``; the next rotation renames it to the new segment and
    writes over it in place, so a steady-state checkpoint unlinks no
    segment and truncates nothing."""

    def test_checkpoints_after_the_second_unlink_no_segment(
        self, tmp_path, monkeypatch
    ):
        db = make_db(tmp_path)
        wal_dir = tmp_path / "wal"
        pool = wal_dir / FREE_SEGMENT
        for keys in ([1, 3, 5], [7, 9]):
            insert_round(db, keys)
            db.checkpoint()
        assert pool.is_file()
        unlinked, truncated = [], []
        real_unlink, real_os_unlink = Path.unlink, os.unlink
        real_ftruncate = os.ftruncate

        def recording_unlink(path, *args, **kwargs):
            unlinked.append(Path(path))
            return real_unlink(path, *args, **kwargs)

        def recording_os_unlink(path, *args, **kwargs):
            unlinked.append(Path(path))
            return real_os_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", recording_unlink)
        monkeypatch.setattr(os, "unlink", recording_os_unlink)
        monkeypatch.setattr(
            os, "ftruncate", lambda fd, n: (truncated.append(n), real_ftruncate(fd, n))[1]
        )
        for round_no in range(4):
            pooled = pool.stat().st_ino
            insert_round(db, [11 + 4 * round_no, 13 + 4 * round_no])
            info = db.checkpoint()
            live = wal_dir / segment_name(info.lsn + 1)
            # The live segment is the pooled file, and a dropped segment
            # took the pool's place.
            assert db.durability.wal.path == live
            assert live.stat().st_ino == pooled
            assert pool.is_file() and pool.stat().st_ino != pooled
            assert len(db.durability.segments()) == 2
        monkeypatch.undo()
        assert not [path for path in unlinked if path.parent == wal_dir]
        assert truncated == []
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_checkpoint_without_writes_keeps_the_live_writer(self, tmp_path):
        db = make_db(tmp_path)
        for keys in ([1], [3], [5]):
            insert_round(db, keys)
            db.checkpoint()
        writer = db.durability.wal
        size = writer.path.stat().st_size
        db.checkpoint()
        # No record since the last rotation: the live (recycled) segment
        # keeps its writer, and its stale bytes stay in place.
        assert db.durability.wal is writer
        assert writer.path.stat().st_size == size
        insert_round(db, [7])
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert fingerprint(reopened.table) == expected
        reopened.close()


def chunk_inodes(directory):
    """``chunk file name -> inode`` of a snapshot (or pool) directory."""
    return {path.name: path.stat().st_ino for path in directory.glob("chunk-*.npz")}


class TestRecycledSnapshotDirectory:
    """Checkpoint GC keeps the first snapshot directory it drops as the
    pool ``snapshots/.free/``; the next checkpoint writes over its files in
    place, and each chunk entry's ``bytes`` says how much of a file is the
    snapshot's."""

    @staticmethod
    def pooled_db(root, **kwargs):
        """A database whose snapshots are the baseline plus two checkpoints:
        the second dropped the baseline into the pool."""
        db = make_db(root, **kwargs)
        insert_round(db, [1, 3, 5])
        db.checkpoint()
        insert_round(db, [7, 9])
        db.checkpoint()
        assert (root / "snapshots" / FREE_DIR).is_dir()
        return db

    def test_third_checkpoint_reuses_the_dropped_directory(self, tmp_path):
        db = self.pooled_db(tmp_path)
        pool = tmp_path / "snapshots" / FREE_DIR
        pooled = chunk_inodes(pool)
        assert pooled
        kept = list_snapshots(tmp_path / "snapshots")
        insert_round(db, [11, 13])
        info = db.checkpoint()
        # The new snapshot's chunk files are the pooled files, overwritten.
        assert chunk_inodes(info.path) == pooled
        # The oldest kept snapshot took the pool's place.
        assert list_snapshots(tmp_path / "snapshots") == [info.path, kept[0]]
        assert not kept[1].exists()
        assert pool.is_dir() and chunk_inodes(pool)
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == info.lsn
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_recycled_file_larger_than_its_content_loads_through_bytes(
        self, tmp_path
    ):
        db = self.pooled_db(tmp_path)
        pool = tmp_path / "snapshots" / FREE_DIR
        # Grow every pooled chunk file: the tail past the new content must
        # never be read.
        for path in pool.glob("chunk-*.npz"):
            with open(path, "ab") as handle:
                handle.write(b"\xa5" * 4096)
        insert_round(db, [11])
        info = db.checkpoint()
        for entry in read_manifest(info.path)["chunks"]:
            assert (info.path / entry["file"]).stat().st_size > entry["bytes"]
        loaded = load_snapshot(info.path)
        assert loaded.keys.size == db.table.num_rows
        expected = fingerprint(db.table)
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == info.lsn
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_padded_manifest_parses(self, tmp_path):
        db = self.pooled_db(tmp_path)
        pooled = tmp_path / "snapshots" / FREE_DIR / MANIFEST_NAME
        pooled.write_bytes(b"\x00garbage" * 8192)
        insert_round(db, [11])
        info = db.checkpoint()
        raw = (info.path / MANIFEST_NAME).read_bytes()
        # Never shrunk: the garbage is overwritten by JSON whitespace.
        assert len(raw) == 8 * 8192
        assert raw.endswith(b" ") and b"garbage" not in raw
        manifest = read_manifest(info.path)
        assert manifest["lsn"] == info.lsn
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == info.lsn
        reopened.close()

    def test_chunk_file_shorter_than_bytes_falls_back(self, tmp_path):
        db = make_db(tmp_path)
        insert_round(db, [501])
        info = db.checkpoint()
        insert_round(db, [503])
        before = fingerprint(db.table)
        db.close()

        entry = read_manifest(info.path)["chunks"][0]
        chunk = info.path / entry["file"]
        chunk.write_bytes(chunk.read_bytes()[: entry["bytes"] - 1])
        with pytest.raises(SnapshotCorruptionError, match="short chunk file"):
            load_snapshot(info.path)
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == 0
        assert reopened.recovery.batches_replayed == 2
        assert fingerprint(reopened.table) == before
        reopened.close()

    def test_manifest_without_bytes_still_opens(self, tmp_path):
        db = make_db(tmp_path)
        insert_round(db, [501])
        info = db.checkpoint()
        expected = fingerprint(db.table)
        db.close()
        # A directory written before chunk entries carried ``bytes``: its
        # files are read whole.
        manifest_path = info.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["chunks"]:
            del entry["bytes"]
        manifest_path.write_text(json.dumps(manifest))
        assert load_snapshot(info.path).keys.size == 201
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == info.lsn
        assert fingerprint(reopened.table) == expected
        reopened.close()

    def test_pool_is_never_read(self, tmp_path, monkeypatch):
        db = self.pooled_db(tmp_path)
        db.close()
        pool = tmp_path / "snapshots" / FREE_DIR
        # The pool holds the intact baseline snapshot; nothing may load it.
        assert read_manifest(pool)["lsn"] == 0
        opened = []
        real_open = open
        real_read_manifest = snapshot_module.read_manifest

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        def recording_read_manifest(path):
            opened.append(str(path))
            return real_read_manifest(path)

        monkeypatch.setattr(snapshot_module, "open", recording_open, raising=False)
        monkeypatch.setattr(snapshot_module, "read_manifest", recording_read_manifest)
        for snapshot in list_snapshots(tmp_path / "snapshots"):
            flip_last_byte(sorted(snapshot.glob("chunk-*.npz"))[0])
        with pytest.raises(RecoveryError):
            Database.open(tmp_path)
        with pytest.raises(RecoveryError):
            LogTail.bootstrap(tmp_path)
        assert opened
        assert not [name for name in opened if FREE_DIR in name]

    def test_gc_dropping_two_snapshots_keeps_one_pool(self, tmp_path):
        db = make_db(
            tmp_path, durability=DurabilityConfig(root=tmp_path, keep_snapshots=3)
        )
        insert_round(db, [1])
        db.checkpoint()
        insert_round(db, [3])
        db.checkpoint()
        db.close()
        assert len(list_snapshots(tmp_path / "snapshots")) == 3

        reopened = Database.open(DurabilityConfig(root=tmp_path, keep_snapshots=1))
        insert_round(reopened, [5])
        info = reopened.checkpoint()
        entries = sorted(path.name for path in (tmp_path / "snapshots").iterdir())
        assert entries == sorted([FREE_DIR, PAYLOAD_DIR, info.path.name])
        expected = fingerprint(reopened.table)
        reopened.close()
        again = Database.open(tmp_path)
        assert fingerprint(again.table) == expected
        again.close()

    def test_follower_falls_back_when_its_snapshot_is_recycled(
        self, tmp_path, monkeypatch
    ):
        db = make_db(tmp_path)
        insert_round(db, [1, 3])
        target = db.checkpoint().path
        real_open = open
        real_load = snapshot_module.load_snapshot
        failures = []

        def recycle_on_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if mode == "rb" and Path(file).parent == target and target.exists():
                # The follower holds the chunk file open while the primary
                # checkpoints three times: the third writes its own chunk
                # files over this one in place.
                for keys in ([5], [7], [9]):
                    insert_round(db, keys)
                    db.checkpoint()
            return handle

        def recording_load(path):
            try:
                return real_load(path)
            except SnapshotCorruptionError as exc:
                failures.append((Path(path), str(exc)))
                raise

        monkeypatch.setattr(snapshot_module, "open", recycle_on_open, raising=False)
        monkeypatch.setattr(snapshot_module, "load_snapshot", recording_load)
        follower = Follower(tmp_path)
        # The recycled file failed its CRC; the follower loaded the newest
        # snapshot committed meanwhile instead.
        assert not target.exists()
        assert failures[0][0] == target
        assert "CRC mismatch" in failures[0][1]
        assert follower.snapshot_lsn == db.durability.last_checkpoint_lsn
        follower.catch_up()
        assert fingerprint(follower.table) == fingerprint(db.table)
        db.close()

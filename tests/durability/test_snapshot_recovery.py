"""Snapshot + recovery tests: checkpoints, rotation/GC, oracle equality."""

import threading

import numpy as np
import pytest
from wal_model import payload_for

from repro.api.database import Database
from repro.api.policies import SerialPolicy, VectorizedPolicy
from repro.durability import snapshot as snapshot_module
from repro.durability.errors import ReadOnlyError, WalUnavailableError
from repro.durability.faults import FaultInjector
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import recover, replay
from repro.durability.snapshot import list_snapshots, load_snapshot
from repro.durability.wal import (
    decode_delta_log,
    scan_segment,
    segment_first_lsn,
)
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

    def test_multi_slice_call_commits_one_record_per_slice(self, tmp_path):
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
        assert len(wal_records(tmp_path)) == 3
        assert outcome.commit_lsn == 3
        before = fingerprint(db.table)
        db.close()

        reopened = Database.open(tmp_path)
        assert reopened.recovery.batches_replayed == 3
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
        records = wal_records(tmp_path)
        assert records
        # Replaying the already-applied prefix again is a no-op.
        batches, operations, last = replay(
            table, records, after_lsn=report.last_lsn
        )
        assert batches == 0
        assert operations == 0
        assert last == report.last_lsn
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
        result = engine.execute_batch(
            [
                MultiInsert((1_001, 1_003), ((1, 2), (3, 4))),
                Delete(0),
                MultiUpdate(((2, 1_005),)),
            ]
        )
        assert result.lsn == 1
        # ... a scalar write on its own gets its own ...
        engine.execute(Insert(1_007, (5, 6)))
        engine.execute(Delete(4))
        # ... and one issued while a scope is open joins that scope.
        with engine._commit_scope() as deltas:
            engine.execute(Insert(1_009, (7, 8)))
            engine.execute(Update(6, 1_011))
            with engine._commit_scope() as inner:
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
        # Odd keys are absent, so both writes miss.  A serial miss appends
        # its record and runs the fsync policy, as a batched miss does;
        # replaying it is a no-op, and the monitor attributes it the same
        # way on both paths.
        misses = [Delete(1), Update(3, 1_001)]
        serial = make_db(tmp_path / "serial", monitor=True)
        with serial.session(execution=SerialPolicy()) as s:
            assert s.execute(misses).errors == 2
        assert delta_kinds(tmp_path / "serial") == [["delete"], ["update"]]
        assert serial.durability.durable_lsn == 2
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
        assert reopened.recovery.batches_replayed == 2
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

"""Follower lifecycle: bootstrap, catch-up, handoff, sessions, transport."""

import threading
import time

import numpy as np
import pytest

from repro.api import Database, FollowerSession, VectorizedPolicy
from repro.api.reorg import ReorgPolicy
from repro.durability.errors import ReadOnlyError
from repro.durability.wal import segment_name
from repro.replication import (
    Follower,
    Primary,
    PrimaryServer,
    RemotePrimary,
    ReplicationError,
    TransportError,
)
from repro.workload.operations import (
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    PointQuery,
    RangeQuery,
    Update,
)


def payload_for(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack([keys % 7, (keys * 3) % 11], axis=1)


def canonical(table):
    out = []
    for key in np.sort(table.scan()).tolist():
        for row in table.point_query(key):
            out.append((key, row.payload["a"], row.payload["b"]))
    return sorted(out)


def make_primary(root, **config_kwargs):
    initial = np.arange(0, 200, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=64,
        payload_names=("a", "b"),
        durability=root if not config_kwargs else None,
    )
    if config_kwargs:
        from repro.durability.manager import DurabilityConfig

        db._attach_durability(
            DurabilityConfig(root=root, **config_kwargs), layout_spec=None
        )
    return db, Primary(db.durability)


def ingest(db, start_key, batches=3, rows=20):
    """Append ``batches`` insert batches; returns the next fresh key."""
    key = start_key
    for _ in range(batches):
        keys = tuple(key + 2 * i for i in range(rows))
        key += 2 * rows
        db.engine.execute_batch(
            [MultiInsert(keys, tuple(map(tuple, payload_for(keys).tolist())))]
        )
    return key


class TestBootstrapAndCatchUp:
    def test_follower_matches_primary_after_catch_up(self, tmp_path):
        db, primary = make_primary(tmp_path)
        ingest(db, 1_000_001)
        with Follower(tmp_path, primary=primary) as follower:
            applied = follower.catch_up()
            assert applied == 3
            assert canonical(follower.table) == canonical(db.table)
            assert follower.caught_up
            assert follower.applied_lsn == db.durability.durable_lsn
            assert follower.batches_applied == 3
            assert follower.operations_applied == 60
            follower.table.check_invariants()
        db.close()

    def test_bootstrap_from_later_snapshot_skips_replayed_history(self, tmp_path):
        db, primary = make_primary(tmp_path)
        ingest(db, 1_000_001)
        db.checkpoint()
        next_key = ingest(db, 2_000_001, batches=2)
        with Follower(tmp_path, primary=primary) as follower:
            assert follower.snapshot_lsn == 3
            assert follower.catch_up() == 2  # only the post-snapshot records
            assert canonical(follower.table) == canonical(db.table)
            # Keep tailing across a further rotation.
            db.checkpoint()
            ingest(db, next_key, batches=2)
            follower.catch_up()
            assert canonical(follower.table) == canonical(db.table)
        db.close()

    def test_empty_directory_refuses_bootstrap(self, tmp_path):
        from repro.replication import ReplicationError

        with pytest.raises(ReplicationError, match="snapshot"):
            Follower(tmp_path)

    def test_offline_tailing_without_an_endpoint(self, tmp_path):
        # A dead primary's directory: no watermarks to exchange, every
        # CRC-valid record is applied.
        db, _ = make_primary(tmp_path)
        ingest(db, 1_000_001)
        expected = canonical(db.table)
        db.close()
        with Follower(tmp_path) as follower:
            follower.catch_up()
            assert canonical(follower.table) == expected
            assert follower.caught_up
            assert follower.target_lsn == 3

    def test_durable_gate_withholds_unsynced_records(self, tmp_path):
        db, primary = make_primary(tmp_path, fsync="os")
        ingest(db, 1_000_001, batches=2)
        assert db.durability.durable_lsn == 0  # appended, nothing fsynced
        with Follower(tmp_path, primary=primary) as follower:
            assert follower.catch_up() == 0
            assert follower.applied_lsn == 0
            db.sync()
            assert follower.catch_up() == 2
            assert canonical(follower.table) == canonical(db.table)
        db.close()


class TestTornRotatedSegment:
    def test_torn_rotated_segment_raises_instead_of_reporting_caught_up(
        self, tmp_path
    ):
        # A rotated segment was closed by its writer, so a torn tail there
        # is lost history: the follower must fail loudly, not stop at the
        # tear and report itself caught up while later segments wait.
        db, _ = make_primary(tmp_path)
        replica = Database.follow(tmp_path, start=False, catch_up=False)
        key = ingest(db, 1_000_001, batches=5)
        db.checkpoint()
        ingest(db, key, batches=1)
        db.close()
        rotated = tmp_path / "wal" / segment_name(1)
        with open(rotated, "r+b") as handle:
            handle.truncate(rotated.stat().st_size - 30)
        follower = replica.follower
        with pytest.raises(ReplicationError, match="rotated segment"):
            follower.catch_up()
        # Every record before the tear was applied, none after it.
        assert follower.applied_lsn == 4
        replica.close()


class TestTransactionalReplication:
    """Atomic transaction commit records replicate whole or not at all."""

    def make_transactional_primary(self, root):
        initial = np.arange(0, 200, 2, dtype=np.int64)
        db = Database.from_rows(
            initial,
            payload_for(initial),
            chunk_size=64,
            payload_names=("a", "b"),
            durability=root,
        )
        return db, Primary(db.durability)

    def test_commit_applies_whole_and_aborts_ship_nothing(self, tmp_path):
        db, primary = self.make_transactional_primary(tmp_path)
        engine = db.engine
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 1_000_001, (3, 4))
        engine.transactional_delete(txn, 0)
        engine.transactional_update(txn, 2, 1_000_003)
        engine.commit(txn)
        with Follower(tmp_path, primary=primary) as follower:
            # The whole write set is one atomic WAL record, applied as
            # one unit under the replica lock: one batch, oracle-equal.
            assert follower.catch_up() == 1
            assert canonical(follower.table) == canonical(db.table)
            # Aborts log nothing, so there is nothing to ship.
            txn = engine.begin_transaction()
            engine.transactional_insert(txn, 1_000_005, (1, 2))
            engine.abort(txn)
            assert follower.catch_up() == 0
            assert canonical(follower.table) == canonical(db.table)
            # The follower stays oracle-equal at the next watermark too.
            txn = engine.begin_transaction()
            engine.transactional_delete(txn, 4)
            engine.transactional_insert(txn, 1_000_007, (5, 6))
            engine.commit(txn)
            assert follower.catch_up() == 1
            assert canonical(follower.table) == canonical(db.table)
            follower.table.check_invariants()
        db.close()


class TestFollowerSession:
    def test_follow_database_serves_reads_at_the_watermark(self, tmp_path):
        db, primary = make_primary(tmp_path)
        ingest(db, 1_000_001, batches=1, rows=5)
        fdb = Database.follow(tmp_path, primary=primary, start=False)
        with fdb.session(execution=VectorizedPolicy(batch_size=8)) as session:
            assert isinstance(session, FollowerSession)
            outcome = session.execute(
                [
                    PointQuery(1_000_001),
                    MultiPointQuery((0, 2, 4)),
                    RangeQuery(0, 100),
                ]
            )
            assert outcome.results[0] is not None
            assert outcome.errors == 0
            assert session.applied_lsn == 1
            assert session.caught_up and session.lag_lsn == 0
        fdb.close()
        db.close()

    def test_writes_are_refused_up_front(self, tmp_path):
        db, primary = make_primary(tmp_path)
        fdb = Database.follow(tmp_path, primary=primary, start=False)
        rows_before = fdb.num_rows
        with fdb.session() as session:
            for op in (Insert(999_999), Update(0, 999_999), MultiDelete((0,))):
                with pytest.raises(ReadOnlyError, match="read-only"):
                    session.execute([PointQuery(0), op])
            assert fdb.num_rows == rows_before  # nothing partially applied
        fdb.close()
        db.close()

    def test_reorg_is_rejected_on_follower_databases(self, tmp_path):
        db, primary = make_primary(tmp_path)
        fdb = Database.follow(tmp_path, primary=primary, start=False)
        with pytest.raises(ValueError, match="reorganize"):
            fdb.session(reorg=ReorgPolicy())
        fdb.close()
        db.close()

    def test_lag_introspection_and_refresh(self, tmp_path):
        db, primary = make_primary(tmp_path)
        ingest(db, 1_000_001, batches=4)
        fdb = Database.follow(
            tmp_path, primary=primary, start=False, catch_up=False
        )
        with fdb.session() as session:
            # Registration alone learned the durable watermark; nothing
            # has been applied yet.
            assert session.lag_lsn == 4
            assert not session.caught_up
            assert session.refresh() == 4
            assert session.lag_lsn == 0
            assert session.caught_up
        fdb.close()
        db.close()

    def test_close_releases_the_pin(self, tmp_path):
        db, primary = make_primary(tmp_path)
        fdb = Database.follow(
            tmp_path, primary=primary, follower_id="f1", start=False
        )
        assert db.durability.pins() == {"f1": 0}
        fdb.close()
        assert db.durability.pins() == {}
        db.close()


class TestTransport:
    def test_remote_follower_over_the_socket(self, tmp_path):
        db, primary = make_primary(tmp_path)
        ingest(db, 1_000_001)
        with PrimaryServer(primary) as server:
            remote = RemotePrimary(server.address)
            with Follower(tmp_path, primary=remote, follower_id="remote") as f:
                f.catch_up()
                assert canonical(f.table) == canonical(db.table)
                assert db.durability.pins() == {"remote": f.applied_lsn}
            assert db.durability.pins() == {}
        db.close()

    def test_malformed_frames_get_error_replies_not_crashes(self, tmp_path):
        import socket

        from repro.replication.transport import recv_frame, send_frame

        db, primary = make_primary(tmp_path)
        with PrimaryServer(primary) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, {"verb": "detonate", "follower": "x"})
                reply = recv_frame(sock)
                assert reply["ok"] is False and "bad request" in reply["error"]
                # The connection survives a bad verb.
                send_frame(sock, {"verb": "exchange", "follower": "x", "applied_lsn": 0})
                assert recv_frame(sock)["ok"] is True
        db.close()

    def test_remote_primary_surfaces_rejections(self, tmp_path):
        db, primary = make_primary(tmp_path)
        with PrimaryServer(primary) as server:
            remote = RemotePrimary(server.address)
            with pytest.raises(TransportError, match="rejected"):
                remote._request({"verb": "nope", "follower": "x"})
            remote.close()
        db.close()

    def test_remote_primary_reconnects_after_a_drop(self, tmp_path):
        db, primary = make_primary(tmp_path)
        with PrimaryServer(primary) as server:
            remote = RemotePrimary(server.address)
            remote.exchange("f", 0)
            remote._sock.close()  # simulate a dropped connection
            assert remote.exchange("f", 1).durable_lsn == db.durability.durable_lsn
            remote.close()
        db.close()


class TestThreadedTailing:
    @pytest.mark.concurrency
    def test_background_tailer_with_concurrent_replica_reads(
        self, tmp_path, tight_switch_interval
    ):
        db, primary = make_primary(tmp_path)
        fdb = Database.follow(tmp_path, primary=primary, poll_interval=0.002)
        stop = threading.Event()
        failures = []

        def read_loop():
            with fdb.session(execution=VectorizedPolicy(batch_size=16)) as s:
                while not stop.is_set():
                    outcome = s.execute(
                        [MultiPointQuery(tuple(range(0, 64, 2))), RangeQuery(0, 10**9)]
                    )
                    if outcome.errors:
                        failures.append(outcome.errors)

        readers = [threading.Thread(target=read_loop) for _ in range(2)]
        for reader in readers:
            reader.start()
        try:
            key = 1_000_001
            for round_no in range(6):
                key = ingest(db, key, batches=2, rows=16)
                if round_no == 3:
                    db.checkpoint()  # rotation handoff while tailing
            target = db.durability.durable_lsn
            deadline = time.time() + 10
            while time.time() < deadline and fdb.follower.applied_lsn < target:
                time.sleep(0.005)
        finally:
            stop.set()
            for reader in readers:
                reader.join()
        assert not failures
        assert fdb.follower.caught_up
        assert fdb.follower.applied_lsn == db.durability.durable_lsn
        assert canonical(fdb.table) == canonical(db.table)
        fdb.table.check_invariants()
        fdb.close()
        db.close()

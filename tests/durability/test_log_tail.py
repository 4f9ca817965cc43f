"""The one log reader: recovery and the follower run the same log tail.

``Database.open`` is a :class:`~repro.durability.recovery.LogTail` run to
the end of the WAL and a follower's catch-up is the same tail behind the
durable gate, so the log's rules hold from both entry points, each under
its own error names: a gap above the snapshot, a torn rotated segment
replay needs and a byte flipped mid-record in a rotated segment fail
loudly; a torn segment wholly below the loaded snapshot is never read.
The property at the bottom drives random histories with checkpoints, cuts
the live segment at a random byte and asks both readers for the same
applied LSN, the same counts and the same table.
"""

import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from wal_model import (
    OP_KINDS,
    build_batch,
    canonical_model,
    canonical_table,
    payload_for,
)

from repro.api.database import Database
from repro.durability.errors import RecoveryError, WalCorruptionError
from repro.durability.manager import DurabilityConfig
from repro.durability.snapshot import list_snapshots
from repro.durability import wal as wal_module
from repro.durability.wal import (
    _FRAME,
    MAGIC,
    frame_record,
    scan_segment,
    segment_name,
)
from repro.replication import ReplicationError, RetentionGapError
from repro.workload.operations import MultiInsert


def make_db(root, **config):
    initial = np.arange(0, 100, 2, dtype=np.int64)
    return Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=DurabilityConfig(root=root, **config),
    )


def insert_batch(db, first_key, rows=5):
    keys = tuple(range(first_key, first_key + 2 * rows, 2))
    db.engine.execute_batch(
        [MultiInsert(keys, tuple(map(tuple, payload_for(keys).tolist())))]
    )


def three_segment_log(root):
    """Snapshots at lsn 0, 3 and 6 over segments ``wal-1`` (lsn 1-3),
    ``wal-4`` (4-6) and the live ``wal-7`` (7-8), all kept.  Returns the
    final table's canonical rows."""
    db = make_db(root, keep_snapshots=3)
    key = 1_000_001
    for lsn in range(1, 9):
        insert_batch(db, key)
        key += 10
        if lsn in (3, 6):
            db.checkpoint()
    expected = canonical_table(db.table)
    db.close()
    return expected


def drop_newest_snapshot(root):
    """Lose snapshot 6, so a reader starts from snapshot 3 and needs
    ``wal-4``."""
    newest = list_snapshots(root / "snapshots")[0]
    assert newest.name.endswith("6")
    shutil.rmtree(newest)


def segment(root, first_lsn):
    return root / "wal" / segment_name(first_lsn)


def open_database(root):
    Database.open(root).close()


def follow(root):
    Database.follow(root, start=False, catch_up=False).follower.catch_up()


#: Each entry point with the errors it raises for (gap, torn rotated).
ENTRY_POINTS = [
    pytest.param(open_database, RecoveryError, WalCorruptionError, id="open"),
    pytest.param(follow, RetentionGapError, ReplicationError, id="follow"),
]


class TestTornLiveTail:
    @pytest.mark.parametrize("torn", [1, 16, 100])
    def test_truncated_bytes_is_the_torn_tail(self, tmp_path, torn):
        db = make_db(tmp_path)
        for i in range(3):
            insert_batch(db, 1_000_001 + 10 * i)
        db.close()
        live = segment(tmp_path, 1)
        ends = scan_segment(live).ends
        valid = ends[-2]  # the third record is cut `torn` bytes in
        assert torn < ends[-1] - valid
        with open(live, "r+b") as handle:
            handle.truncate(valid + torn)

        reopened = Database.open(tmp_path)
        assert reopened.recovery.truncated_bytes == torn
        assert reopened.recovery.last_lsn == 2
        # The reopened writer cut the log back to its valid prefix.
        assert live.stat().st_size == valid
        assert scan_segment(live).tail_status == "clean"
        reopened.close()

    def test_clean_log_truncates_nothing(self, tmp_path):
        expected = three_segment_log(tmp_path)
        reopened = Database.open(tmp_path)
        report = reopened.recovery
        assert (report.base_lsn, report.last_lsn) == (6, 8)
        assert report.truncated_bytes == 0
        assert canonical_table(reopened.table) == expected
        reopened.close()


class TestLogRules:
    @pytest.mark.parametrize("enter, gap_error, torn_error", ENTRY_POINTS)
    def test_gap_above_the_snapshot(self, tmp_path, enter, gap_error, torn_error):
        three_segment_log(tmp_path)
        drop_newest_snapshot(tmp_path)
        segment(tmp_path, 4).unlink()
        with pytest.raises(gap_error, match="gap"):
            enter(tmp_path)

    @pytest.mark.parametrize("enter, gap_error, torn_error", ENTRY_POINTS)
    def test_torn_rotated_segment_replay_needs(
        self, tmp_path, enter, gap_error, torn_error
    ):
        three_segment_log(tmp_path)
        drop_newest_snapshot(tmp_path)
        needed = segment(tmp_path, 4)
        with open(needed, "r+b") as handle:
            handle.truncate(needed.stat().st_size - 30)
        with pytest.raises(torn_error, match="mid-history"):
            enter(tmp_path)

    @pytest.mark.parametrize("enter, gap_error, torn_error", ENTRY_POINTS)
    def test_flipped_byte_mid_rotated_segment(
        self, tmp_path, enter, gap_error, torn_error
    ):
        three_segment_log(tmp_path)
        drop_newest_snapshot(tmp_path)
        needed = segment(tmp_path, 4)
        ends = scan_segment(needed).ends
        middle = (ends[0] + ends[1]) // 2  # inside the lsn-5 record
        data = bytearray(needed.read_bytes())
        data[middle] ^= 0xFF
        needed.write_bytes(bytes(data))
        with pytest.raises(torn_error, match="mid-history"):
            enter(tmp_path)

    @pytest.mark.parametrize("enter, gap_error, torn_error", ENTRY_POINTS)
    def test_rotated_segment_cut_inside_its_magic(
        self, tmp_path, enter, gap_error, torn_error
    ):
        three_segment_log(tmp_path)
        drop_newest_snapshot(tmp_path)
        with open(segment(tmp_path, 4), "r+b") as handle:
            handle.truncate(len(MAGIC) // 2)
        with pytest.raises(torn_error, match="magic"):
            enter(tmp_path)

    def test_live_segment_without_its_magic_is_still_being_created(
        self, tmp_path
    ):
        # A kill between creating a rotated-to segment and writing its
        # magic leaves an empty live segment; the writer starts it afresh.
        expected = three_segment_log(tmp_path)
        db = Database.open(tmp_path)
        db.checkpoint()
        db.close()
        live = segment(tmp_path, 9)
        live.write_bytes(b"")
        reopened = Database.open(tmp_path)
        assert reopened.recovery.last_lsn == 8
        assert canonical_table(reopened.table) == expected
        insert_batch(reopened, 3_000_001)
        reopened.close()
        assert [lsn for lsn, _ in scan_segment(live).records] == [9]

    def test_torn_segment_below_the_snapshot_is_never_read(self, tmp_path):
        expected = three_segment_log(tmp_path)
        for first in (1, 4):
            below = segment(tmp_path, first)
            with open(below, "r+b") as handle:
                handle.truncate(below.stat().st_size - 30)
        reopened = Database.open(tmp_path)
        assert reopened.recovery.base_lsn == 6
        assert reopened.recovery.batches_replayed == 2
        assert reopened.recovery.segments_scanned == 1  # wal-7 only
        assert canonical_table(reopened.table) == expected
        reopened.close()
        replica = Database.follow(tmp_path, start=False, catch_up=False)
        assert replica.follower.catch_up() == 2
        assert canonical_table(replica.table) == expected
        replica.close()


def recycled_log(root, last_lsn=12):
    """Segments in their second life, under the default two kept
    snapshots.  Checkpoints at lsn 6, 8, 9 and 11 pool ``wal-1`` (records
    1-6) and ``wal-7`` (7-8) and rotate into them as ``wal-10`` and
    ``wal-12``.  Every batch frames to the same length, so behind
    ``wal-10``'s records 10-11 its file still holds records 3-6, and
    behind the live ``wal-12``'s record 12 record 8, all passing their
    CRC.  Returns the final table's canonical rows."""
    db = make_db(root)
    key = 1_000_001
    for lsn in range(1, last_lsn + 1):
        insert_batch(db, key)
        key += 10
        if lsn in (6, 8, 9, 11):
            db.checkpoint()
    expected = canonical_table(db.table)
    db.close()
    return expected


def drop_newest(root):
    shutil.rmtree(list_snapshots(root / "snapshots")[0])


def stale_records(path):
    """LSNs of the CRC-valid frames behind a segment's valid prefix."""
    data = path.read_bytes()
    offset = scan_segment(path).valid_bytes
    lsns = []
    while offset + _FRAME.size <= len(data):
        lsn, length, _crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if frame_record(lsn, data[offset + _FRAME.size : end]) != data[offset:end]:
            break
        lsns.append(lsn)
        offset = end
    return lsns


class TestRecycledSegments:
    """The successor rule: a rotated segment ends at its successor's first
    LSN - 1 whatever bytes follow, and the segment name seeds every scan,
    so a recycled file's stale records are never applied."""

    def test_recycled_layout(self, tmp_path):
        recycled_log(tmp_path)
        for first, own, stale in ((10, [10, 11], [3, 4, 5, 6]), (12, [12], [8])):
            path = segment(tmp_path, first)
            assert [lsn for lsn, _ in scan_segment(path).records] == own
            assert stale_records(path) == stale

    @pytest.mark.parametrize("enter", ["open", "follow"])
    def test_rotated_segment_with_a_stale_tail_hands_off(self, tmp_path, enter):
        expected = recycled_log(tmp_path)
        drop_newest(tmp_path)  # the reader starts at lsn 9 and needs wal-10
        live = segment(tmp_path, 12)
        stale = live.stat().st_size - scan_segment(live).valid_bytes
        if enter == "open":
            reader = Database.open(tmp_path)
            report = reader.recovery
            assert (report.base_lsn, report.last_lsn) == (9, 12)
            assert report.batches_replayed == 3
            # The live segment's stale record counts as its torn tail.
            assert report.truncated_bytes == stale
        else:
            reader = Database.follow(tmp_path, start=False, catch_up=False)
            assert reader.follower.catch_up() == 3
            assert reader.follower.applied_lsn == 12
        assert canonical_table(reader.table) == expected
        reader.close()

    @pytest.mark.parametrize("enter, gap_error, torn_error", ENTRY_POINTS)
    def test_rotated_segment_ending_before_its_successor_raises(
        self, tmp_path, enter, gap_error, torn_error
    ):
        recycled_log(tmp_path)
        drop_newest(tmp_path)
        needed = segment(tmp_path, 10)
        ends = scan_segment(needed).ends
        data = bytearray(needed.read_bytes())
        data[(ends[0] + ends[1]) // 2] ^= 0xFF  # inside record 11
        needed.write_bytes(bytes(data))
        with pytest.raises(torn_error, match="mid-history"):
            enter(tmp_path)

    def test_live_recycled_segment_without_records(self, tmp_path):
        expected = recycled_log(tmp_path, last_lsn=9)
        live = segment(tmp_path, 10)
        size = live.stat().st_size
        assert scan_segment(live).records == []
        assert stale_records(live) == [1, 2, 3, 4, 5, 6]
        replica = Database.follow(tmp_path, start=False, catch_up=False)
        assert replica.follower.catch_up() == 0
        assert canonical_table(replica.table) == expected
        replica.close()
        reopened = Database.open(tmp_path)
        assert reopened.recovery.last_lsn == 9
        assert reopened.recovery.truncated_bytes == size - len(MAGIC)
        assert canonical_table(reopened.table) == expected
        # The reopened writer truncated the stale records and writes lsn 10.
        assert live.stat().st_size == len(MAGIC)
        insert_batch(reopened, 3_000_001)
        reopened.close()
        assert [lsn for lsn, _ in scan_segment(live).records] == [10]

    @pytest.mark.parametrize("applied", [2, 4], ids=["before", "through"])
    def test_follower_whose_segment_is_recycled_under_it(
        self, tmp_path, monkeypatch, applied
    ):
        # The follower opens wal-3 while the primary recycles it as wal-7
        # and writes record 7 over record 3; record 4 stays behind it.
        db = make_db(tmp_path)
        key = [1_000_001]

        def write():
            insert_batch(db, key[0])
            key[0] += 10

        for _ in range(2):
            write()
        db.checkpoint()
        replica = Database.follow(tmp_path, start=False, catch_up=False)
        follower = replica.follower
        for _ in range(2):
            write()
        if applied == 4:
            # Caught up through wal-3 and pinned there, as a registered
            # follower would be: wal-3 may go, wal-5 may not.
            follower.catch_up()
            db.durability.pin_lsn("replica", 4)
        assert follower.applied_lsn == applied
        state = canonical_table(replica.table)
        tailed = segment(tmp_path, 3)
        inode = tailed.stat().st_ino
        real_open = open

        def recycle_on_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if Path(file) == tailed and tailed.exists():
                # The primary's writes and checkpoints run on a thread of
                # their own, as they would in a real deployment: this hook
                # runs on the follower's thread, which holds its apply
                # lock, and the primary's commit lock ranks outside it.
                # Joining keeps the whole recycle inside this open.
                failures = []

                def primary():
                    try:
                        for lsn in (4, 5, 6):
                            if lsn > 4:
                                write()
                            db.checkpoint()
                        write()
                    except BaseException as exc:  # re-raised on this thread
                        failures.append(exc)

                worker = threading.Thread(target=primary)
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive(), "the primary's recycle hung"
                if failures:
                    raise failures[0]
                assert segment(tmp_path, 7).stat().st_ino == inode
            return handle

        monkeypatch.setattr(wal_module, "open", recycle_on_open, raising=False)
        if applied == 2:
            # Records 3-4 are gone: a gap, and no stale record applied.
            with pytest.raises(RetentionGapError):
                follower.catch_up()
            assert follower.applied_lsn == 2
            assert canonical_table(replica.table) == state
        else:
            # Applied through wal-5's first LSN - 1: relocate to it.
            assert follower.catch_up() == 3
            assert follower.applied_lsn == 7
            assert canonical_table(replica.table) == canonical_table(db.table)
        replica.close()
        db.close()


#: A history: batches of (op kind, choice index), each optionally
#: followed by a checkpoint.
HISTORIES = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 99)),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def write_history(root, history):
    """Run ``history`` against a durable database; returns the canonical
    model after every batch prefix.  No power loss is simulated, so the
    log needs no fsync to survive the close."""
    db = make_db(root, fsync="os")
    initial = np.arange(0, 100, 2)
    model = dict(zip(initial.tolist(), map(tuple, payload_for(initial).tolist())))
    prefixes = [canonical_model(model)]
    next_key = [1_000_001]
    for spec_batch, checkpoint in history:
        ops, model = build_batch(spec_batch, model, next_key)
        db.engine.execute_batch(ops)
        prefixes.append(canonical_model(model))
        if checkpoint:
            db.checkpoint()
    db.close()
    return prefixes


class TestRecoveryIsTheFollowersCatchUp:
    @settings(max_examples=20, deadline=None)
    @given(history=HISTORIES, cut=st.floats(0.0, 1.0))
    @example(
        history=[([("insert", 0)], True), ([("update", 0), ("delete", 1)], False)],
        cut=1.0,
    )
    def test_open_and_catch_up_agree(self, history, cut):
        with tempfile.TemporaryDirectory() as scratch:
            image = Path(scratch) / "image"
            prefixes = write_history(image, history)
            live = sorted((image / "wal").glob("wal-*.log"))[-1]
            size = live.stat().st_size
            with open(live, "r+b") as handle:
                handle.truncate(len(MAGIC) + int(cut * (size - len(MAGIC))))

            # The follower only reads the image; the open truncates it.
            replica = Database.follow(image, start=False, catch_up=False)
            follower = replica.follower
            batches = follower.catch_up()
            recovered = Database.open(image)
            report = recovered.recovery
            assert batches == report.batches_replayed
            assert follower.applied_lsn == report.last_lsn
            assert follower.batches_applied == report.batches_replayed
            assert follower.operations_applied == report.operations_replayed
            state = canonical_table(recovered.table)
            assert canonical_table(replica.table) == state
            assert state in prefixes
            recovered.close()
            replica.close()

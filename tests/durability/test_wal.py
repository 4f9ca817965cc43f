"""WAL unit tests: codec round trips, torn tails, group commit, retries."""

import hashlib
import os
import threading

import numpy as np
import pytest

from repro import discipline
from repro.durability.errors import WalCorruptionError, WalUnavailableError
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.wal import (
    MAGIC,
    WalWriter,
    decode_delta_log,
    encode_delta_log,
    frame_record,
    scan_segment,
    segment_first_lsn,
    segment_name,
)
from repro.storage.access_log import CallLog


#: ``WalWriter.append``'s declared precondition is the ``wal_commit``
#: lock; tests acquire a real discipline lock so the debug-mode entry
#: assertion (REPRO_DEBUG_LATCHES=1) holds here too.
COMMIT_LOCK = discipline.make_lock("wal_commit")


def append(writer, lsn, body):
    with COMMIT_LOCK:
        writer.append(lsn, body)


def make_log(width=2):
    log = CallLog()
    log.record("insert", [3, 1, 4], payloads=np.arange(3 * width).reshape(3, width))
    log.record("delete", [1, 5, 9])
    log.record("update", [2, 5], [6, 3])
    return log


def assert_logs_equal(a, b):
    assert len(a.records) == len(b.records)
    for left, right in zip(a.records, b.records, strict=True):
        assert left.kind == right.kind
        np.testing.assert_array_equal(left.keys, right.keys)
        if left.kind == "insert":
            np.testing.assert_array_equal(left.payloads, right.payloads)
        if left.kind == "update":
            np.testing.assert_array_equal(left.highs, right.highs)


class TestCodec:
    def test_round_trip(self):
        log = make_log()
        assert_logs_equal(decode_delta_log(encode_delta_log(log)), log)

    def test_round_trip_zero_width_payload(self):
        log = CallLog()
        log.record("insert", [7, 8], payloads=np.empty((2, 0), dtype=np.int64))
        decoded = decode_delta_log(encode_delta_log(log))
        assert decoded.records[0].payloads.shape == (2, 0)

    def test_empty_log(self):
        decoded = decode_delta_log(encode_delta_log(CallLog()))
        assert len(decoded.records) == 0

    def test_operations_total(self):
        assert make_log().operations == 8

    def test_round_trip_atomic_flag(self):
        log = CallLog(atomic=True)
        log.record("insert", [1], payloads=np.zeros((1, 2), dtype=np.int64))
        decoded = decode_delta_log(encode_delta_log(log))
        assert decoded.atomic
        # The flag rides the count high bit; plain logs stay unflagged.
        assert not decode_delta_log(encode_delta_log(make_log())).atomic

    def test_round_trip_move_markers(self):
        log = CallLog()
        log.record_move_intent(7, 3, 41, [10, 11])
        log.record("delete", [3])
        log.record("move_commit", [7])
        log.record("move_forget", [7])
        decoded = decode_delta_log(encode_delta_log(log))
        kinds = [record.kind for record in decoded.records]
        assert kinds == ["move_intent", "delete", "move_commit", "move_forget"]
        intent = decoded.records[0]
        np.testing.assert_array_equal(intent.keys, [7, 3, 41])
        np.testing.assert_array_equal(intent.payloads, [[10, 11]])
        assert decoded.records[2].keys.tolist() == [7]
        assert decoded.records[3].keys.tolist() == [7]
        # Markers are bookkeeping: only the delete counts as an operation.
        assert decoded.operations == 1

    def test_move_intent_zero_width_payload(self):
        log = CallLog()
        log.record_move_intent(1, 2, 3, None)
        decoded = decode_delta_log(encode_delta_log(log))
        assert decoded.records[0].payloads.shape == (1, 0)

    def test_truncated_body_rejected(self):
        body = encode_delta_log(make_log())
        with pytest.raises(WalCorruptionError):
            decode_delta_log(body[:-4])

    def test_trailing_bytes_rejected(self):
        body = encode_delta_log(make_log())
        with pytest.raises(WalCorruptionError):
            decode_delta_log(body + b"\x00")


#: The on-disk body of :func:`golden_log`: every write and marker kind once.
#: These bytes are the format -- a test that has to change them is a format
#: change, which needs a new segment magic.
GOLDEN_BODY = bytes.fromhex(
    "0700000000030000000200000003000000000000000100000000000000040000"
    "0000000000000000000000000001000000000000000200000000000000030000"
    "0000000000040000000000000005000000000000000002000000000000000700"
    "0000000000000800000000000000010300000000000000010000000000000005"
    "0000000000000009000000000000000202000000000000000200000000000000"
    "0500000000000000060000000000000003000000000000000303000000020000"
    "000700000000000000030000000000000029000000000000000a000000000000"
    "000b000000000000000401000000000000000700000000000000050100000000"
    "0000000700000000000000"
)


def golden_log(atomic=False):
    log = CallLog(atomic=atomic)
    # A read shares the call's log with the writes but never reaches the WAL.
    log.record("range_count", [0], [9])
    log.record("insert", [3, 1, 4], payloads=np.arange(6).reshape(3, 2))
    log.record("insert", [7, 8], payloads=np.empty((2, 0), dtype=np.int64))
    log.record("delete", [1, 5, 9])
    log.record("update", [2, 5], [6, 3])
    log.record_move_intent(7, 3, 41, [10, 11])
    log.record("move_commit", [7])
    log.record("move_forget", [7])
    return log


class TestFormatGolden:
    def test_body_bytes(self):
        body = encode_delta_log(golden_log())
        assert len(body) == 267
        assert body == GOLDEN_BODY
        assert hashlib.sha256(body).hexdigest() == (
            "64c3ba0d787529983c9d0e977c218d8c087fabe34427c90030e0ce1230364649"
        )

    def test_atomic_body_bytes(self):
        # The atomic flag is the high bit of the little-endian count word.
        body = encode_delta_log(golden_log(atomic=True))
        assert body == GOLDEN_BODY[:3] + b"\x80" + GOLDEN_BODY[4:]
        assert hashlib.sha256(body).hexdigest() == (
            "c1b0e780f3c6d20fe3cbbfc3536d95e21973792b7b26c6644797f0bf969c92ba"
        )

    def test_decodes_to_the_write_records(self):
        decoded = decode_delta_log(GOLDEN_BODY)
        written = golden_log()
        written.records.pop(0)
        assert_logs_equal(decoded, written)
        assert [record.kind for record in decoded.records] == [
            "insert", "insert", "delete", "update",
            "move_intent", "move_commit", "move_forget",
        ]
        np.testing.assert_array_equal(decoded.records[4].payloads, [[10, 11]])
        assert decoded.operations == 10


class TestSegmentNames:
    def test_round_trip(self):
        assert segment_first_lsn(segment_name(42)) == 42

    def test_rejects_foreign_names(self):
        with pytest.raises(WalCorruptionError):
            segment_first_lsn("notawal.log")


class TestAppendScan:
    def test_append_then_scan(self, tmp_path):
        path = tmp_path / segment_name(1)
        writer = WalWriter(path)
        bodies = [encode_delta_log(make_log(width=w)) for w in (0, 1, 3)]
        for lsn, body in enumerate(bodies, start=1):
            append(writer, lsn, body)
        writer.close()
        scan = scan_segment(path)
        assert not scan.torn
        assert [lsn for lsn, _ in scan.records] == [1, 2, 3]
        assert [body for _, body in scan.records] == bodies

    def test_lsn_must_be_consecutive(self, tmp_path):
        writer = WalWriter(tmp_path / segment_name(1))
        append(writer, 1, b"x")
        with pytest.raises(WalCorruptionError):
            append(writer, 3, b"y")
        writer.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / segment_name(1)
        writer = WalWriter(path)
        append(writer, 1, b"alpha")
        append(writer, 2, b"beta")
        writer.close()
        intact = path.stat().st_size
        # Simulate a crash mid-append: half of record 3's frame.
        frame = frame_record(3, b"gamma-torn")
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        scan = scan_segment(path)
        assert scan.torn
        assert [lsn for lsn, _ in scan.records] == [1, 2]
        reopened = WalWriter(path)
        assert path.stat().st_size == intact
        assert reopened.appended_lsn == 2
        append(reopened, 3, b"gamma")
        reopened.close()
        assert [lsn for lsn, _ in scan_segment(path).records] == [1, 2, 3]

    def test_corrupt_middle_record_stops_scan(self, tmp_path):
        path = tmp_path / segment_name(1)
        writer = WalWriter(path)
        for lsn in (1, 2, 3):
            append(writer, lsn, b"payload-%d" % lsn)
        writer.close()
        data = bytearray(path.read_bytes())
        # Flip one byte inside record 2's body.
        offset = len(MAGIC) + len(frame_record(1, b"payload-1")) + 20
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = scan_segment(path)
        assert scan.torn
        assert [lsn for lsn, _ in scan.records] == [1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / segment_name(1)
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(WalCorruptionError):
            scan_segment(path)

    def test_empty_segment_reopens_at_first_lsn(self, tmp_path):
        path = tmp_path / segment_name(7)
        WalWriter(path).close()
        reopened = WalWriter(path)
        assert reopened.appended_lsn == 6
        append(reopened, 7, b"first")
        reopened.close()
        assert [lsn for lsn, _ in scan_segment(path).records] == [7]


class TestGroupCommit:
    def test_sync_coalesces(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "repro.durability.wal.os.fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        writer = WalWriter(tmp_path / segment_name(1))
        append(writer, 1, b"a")
        append(writer, 2, b"b")
        assert writer.synced_lsn == 0
        assert writer.sync() == 2
        assert len(calls) == 1
        # Nothing new appended: the next sync is a no-op.
        assert writer.sync() == 2
        assert len(calls) == 1
        writer.close()
        assert len(calls) == 1

    def test_concurrent_commit_and_sync(self, tmp_path):
        writer = WalWriter(tmp_path / segment_name(1))
        lock = threading.Lock()
        errors = []

        def committer(worker):
            try:
                for _ in range(25):
                    with lock:
                        append(writer, writer.appended_lsn + 1, b"w%d" % worker)
                    writer.sync()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=committer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert writer.synced_lsn == 100
        writer.close()
        assert len(scan_segment(writer.path).records) == 100


class TestRetriesAndDegradation:
    def test_transient_errors_are_retried(self, tmp_path):
        faults = FaultInjector(io_error_at="wal.write", io_errors=2)
        writer = WalWriter(
            tmp_path / segment_name(1),
            faults=faults,
            max_retries=4,
            sleep=lambda _: None,
        )
        append(writer, 1, b"survives")
        writer.close()
        assert faults.io_errors == 0
        assert len(scan_segment(writer.path).records) == 1

    def test_persistent_errors_shut_the_writer_down(self, tmp_path):
        faults = FaultInjector(io_error_at="wal.write", io_errors=100)
        writer = WalWriter(
            tmp_path / segment_name(1),
            faults=faults,
            max_retries=2,
            sleep=lambda _: None,
        )
        with pytest.raises(WalUnavailableError):
            append(writer, 1, b"never lands")
        assert writer.failed
        with pytest.raises(WalUnavailableError):
            append(writer, 1, b"still down")
        writer.abandon()

    def test_fsync_errors_shut_the_writer_down(self, tmp_path):
        faults = FaultInjector(io_error_at="wal.fsync", io_errors=100)
        writer = WalWriter(
            tmp_path / segment_name(1),
            faults=faults,
            max_retries=1,
            sleep=lambda _: None,
        )
        append(writer, 1, b"appended")
        with pytest.raises(WalUnavailableError):
            writer.sync()
        assert writer.failed
        writer.abandon()


class TestCrashPoints:
    @pytest.mark.parametrize(
        "point,surviving",
        [
            ("wal.append.begin", [1]),
            ("wal.append.header", [1]),
            ("wal.append.partial", [1]),
            ("wal.append.full", [1, 2]),
        ],
    )
    def test_append_crash_leaves_valid_prefix(self, tmp_path, point, surviving):
        path = tmp_path / segment_name(1)
        faults = FaultInjector(crash_at=point, crash_hit=2)
        writer = WalWriter(path, faults=faults)
        append(writer, 1, b"committed")
        with pytest.raises(InjectedCrash):
            append(writer, 2, b"torn away maybe")
        scan = scan_segment(path)
        assert [lsn for lsn, _ in scan.records] == surviving
        # Reopen truncates whatever tail the crash left.
        reopened = WalWriter(path)
        assert reopened.appended_lsn == surviving[-1]
        reopened.close()

    def test_power_loss_drops_unsynced_tail(self, tmp_path):
        path = tmp_path / segment_name(1)
        faults = FaultInjector(
            crash_at="wal.append.full", crash_hit=3, power_loss=True
        )
        writer = WalWriter(path, faults=faults)
        append(writer, 1, b"durable")
        writer.sync()
        append(writer, 2, b"volatile")
        with pytest.raises(InjectedCrash):
            append(writer, 3, b"volatile too")
        # Only the fsynced prefix survives the power cut.
        assert [lsn for lsn, _ in scan_segment(path).records] == [1]

    def test_fsync_crash_before_durability(self, tmp_path):
        path = tmp_path / segment_name(1)
        faults = FaultInjector(crash_at="wal.fsync", power_loss=True)
        writer = WalWriter(path, faults=faults)
        append(writer, 1, b"appended not synced")
        with pytest.raises(InjectedCrash):
            writer.sync()
        assert scan_segment(path).records == []


def intent_body(move_id):
    """A one-record body of fixed length: a move intent for ``move_id``."""
    log = CallLog()
    log.record_move_intent(move_id, 3, 41, [10, 11])
    return encode_delta_log(log)


def pool_segment(tmp_path, bodies):
    """A closed segment ``wal-1`` holding ``bodies`` as records 1, 2, ...,
    as checkpoint GC leaves a dropped segment in the pool."""
    path = tmp_path / segment_name(1)
    writer = WalWriter(path)
    for lsn, body in enumerate(bodies, start=1):
        append(writer, lsn, body)
    writer.close()
    return path


def recycle(old, first_lsn, **kwargs):
    """Rename ``old`` to segment ``first_lsn`` and open it recycled, as the
    rotation into the pool does."""
    path = old.with_name(segment_name(first_lsn))
    os.rename(old, path)
    return WalWriter(path, recycled=True, **kwargs)


class TestRecycledSegment:
    """A recycled segment is written over in place; the records of its
    previous life stay behind its own and still pass their CRC, but carry
    LSNs below its name, so no scan takes them for the segment's."""

    BODIES = [b"old-record-%02d" % lsn for lsn in range(1, 7)]

    def test_scan_returns_only_the_new_records(self, tmp_path, monkeypatch):
        old = pool_segment(tmp_path, self.BODIES)
        size = old.stat().st_size
        truncations = []
        real_ftruncate = os.ftruncate
        monkeypatch.setattr(
            "repro.durability.wal.os.ftruncate",
            lambda fd, n: (truncations.append(n), real_ftruncate(fd, n))[1],
        )
        writer = recycle(old, 20)
        assert writer.appended_lsn == 19
        for lsn in (20, 21):
            append(writer, lsn, b"new-record-%d" % lsn)
        writer.close()
        assert truncations == []
        path = writer.path
        assert path.stat().st_size == size
        scan = scan_segment(path)
        assert [lsn for lsn, _ in scan.records] == [20, 21]
        assert scan.tail_status == "corrupt"
        # Records 3-6 of the previous life are intact behind them.
        stale = scan_segment(path, start_offset=scan.valid_bytes, previous_lsn=2)
        assert [lsn for lsn, _ in stale.records] == [3, 4, 5, 6]
        assert stale.tail_status == "clean"

    def test_no_new_record_scans_empty(self, tmp_path):
        writer = recycle(pool_segment(tmp_path, self.BODIES), 20)
        writer.close()
        scan = scan_segment(writer.path)
        assert scan.records == []
        assert scan.valid_bytes == len(MAGIC)
        assert scan.tail_status == "corrupt"
        # Reopened, the writer truncates the stale bytes and starts at 20.
        reopened = WalWriter(writer.path)
        assert reopened.appended_lsn == 19
        assert writer.path.stat().st_size == len(MAGIC)
        append(reopened, 20, b"first")
        reopened.close()
        assert [lsn for lsn, _ in scan_segment(writer.path).records] == [20]

    def test_reopen_truncates_the_stale_tail(self, tmp_path):
        writer = recycle(pool_segment(tmp_path, self.BODIES), 20)
        append(writer, 20, b"new-record-20")
        writer.close()
        valid = scan_segment(writer.path).valid_bytes
        reopened = WalWriter(writer.path)
        assert reopened.appended_lsn == 20
        assert writer.path.stat().st_size == valid
        reopened.close()

    def test_power_loss_leaves_the_old_bytes_past_the_synced_offset(
        self, tmp_path
    ):
        old = pool_segment(tmp_path, self.BODIES)
        before = old.read_bytes()
        faults = FaultInjector(
            crash_at="wal.append.full", crash_hit=3, power_loss=True
        )
        writer = recycle(old, 20, faults=faults)
        append(writer, 20, b"durable-rec-20")
        writer.sync()
        synced = scan_segment(writer.path).ends[0]
        append(writer, 21, b"volatile-r-21")
        with pytest.raises(InjectedCrash):
            append(writer, 22, b"volatile-r-22" * 40)
        after = writer.path.read_bytes()
        # The disk never saw the un-fsynced overwrite (nor the growth).
        assert len(after) == len(before)
        assert after[synced:] == before[synced:]
        assert [lsn for lsn, _ in scan_segment(writer.path).records] == [20]

    @pytest.mark.parametrize("new_records", [0, 1])
    def test_move_marker_scan_ignores_stale_intents(self, tmp_path, new_records):
        from repro.sharding.database import _scan_move_markers

        (tmp_path / "wal").mkdir()
        old = pool_segment(tmp_path / "wal", [intent_body(5), intent_body(7)])
        writer = recycle(old, 10)
        for lsn in range(10, 10 + new_records):
            # The same length as record 1: record 2 stays intact behind it.
            append(writer, lsn, intent_body(8))
        writer.close()
        intents, commits, forgets = _scan_move_markers(str(tmp_path))
        assert sorted(intents) == ([8] if new_records else [])
        assert (commits, forgets) == (set(), set())

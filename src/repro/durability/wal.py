"""LSN-prefixed, checksummed write-ahead log of batch deltas.

One WAL *record* is one durable commit scope -- the write records of the
per-call :class:`~repro.storage.access_log.CallLog` of a session call
(or of a direct engine call or transaction commit), the same log the
workload monitor reads -- framed as::

    +--------+----------+---------+------------------+
    | lsn u64| length u32| crc u32 | body (length B)  |
    +--------+----------+---------+------------------+

with ``crc = crc32(lsn || length || body)``.  The body packs the log's
write and move-marker records (reads never reach the WAL): a ``u32``
record count (high bit = the scope was one atomic transaction commit),
then per record a ``u8`` kind code, a ``u32`` run length, a ``u32``
payload width and the key / target-key / payload arrays as little-endian
``int64`` bytes.  Decoding gives the same record type back.  No pickle
anywhere: a corrupted log can at worst fail a CRC, never execute.  A shard
request is a body too (:func:`encode_batch`), which may hold read records.

A segment file starts with the 8-byte magic ``RPROWAL1`` and is named
``wal-<first lsn>.log``; the manager rotates to a new segment at every
checkpoint so segments fully covered by a retained snapshot can be
garbage-collected as whole files.  The new segment is usually a
*recycled* one: the first segment a checkpoint drops is renamed to the
pool ``wal/.free``, and the next rotation renames the pool to its new
name and writes the magic and its records over the old bytes in place
(no truncation, so no disk block is freed).  Past the last record
written there, such a file still holds records of its previous life.
Every one of them carries an LSN below the segment's name, so the two
reader rules below tell them apart from the segment's own records:

* :func:`scan_segment` seeds its LSN check from the segment name at a
  fresh start -- the first record must carry the LSN the segment is
  named for, every later one the next LSN -- so a stale record ends the
  valid prefix however well it passes its CRC;
* a rotated segment ends at its successor's first LSN - 1, whatever
  bytes follow (:class:`repro.durability.recovery.LogTail`).

Crash safety on the write path:

* records are appended with ``os.write`` on an unbuffered descriptor, so a
  simulated crash leaves exactly the bytes that were written -- including
  torn tails, which :func:`scan_segment` detects by CRC (or, over a
  recycled file's stale bytes, by LSN) and the writer truncates away on
  reopen;
* ``sync`` implements *group commit*: it latches the current appended
  offset, fsyncs once under the sync lock and publishes the durable
  watermark, so every record appended before the fsync -- possibly by many
  committers -- is covered by that one fsync, and a committer arriving
  while a sync is in flight coalesces onto the next one;
* all I/O runs through bounded retry-with-backoff
  (:func:`repro.durability.faults.retry_io`); exhausting the retries
  marks the writer failed, which the manager converts into read-only
  degradation.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import discipline
from repro.discipline import guarded_class, requires_lock

from ..storage.access_log import DELTA_KIND_CODES, DELTA_KINDS, CallLog, LogRecord
from .errors import WalCorruptionError, WalUnavailableError
from .faults import FaultInjector, InjectedCrash, retry_io

#: Segment file magic: format name + version, bumped on layout changes.
MAGIC = b"RPROWAL1"

#: The WAL segment pool under ``wal/``: the first segment a checkpoint
#: drops, which the next rotation renames to its new segment.  The name
#: is no ``wal-*.log``, so no reader ever opens it.
FREE_SEGMENT = ".free"

#: Record frame: LSN, body length, CRC-32 of (lsn || length || body).
_FRAME = struct.Struct("<QII")

#: CRC input prefix: the frame minus the CRC field itself.
_CRC_PREFIX = struct.Struct("<QI")

#: Per-delta-record header inside a body: kind code, run length, payload
#: width (0 for kinds without payload rows).
_RECORD = struct.Struct("<BII")

_COUNT = struct.Struct("<I")

#: Kinds a batch body carries, coded by position: the WAL's, then the read
#: kinds of a shard request, which :func:`decode_delta_log` rejects.
BATCH_KINDS = DELTA_KINDS + ("point_query", "range_count", "range_sum")
_BATCH_CODES = {kind: code for code, kind in enumerate(BATCH_KINDS)}

#: Kinds with a ``highs`` array; kinds with one payload row however many
#: keys they hold (a move intent's row, a read's column indices).
_HIGHS_KINDS = frozenset({"update", "range_count", "range_sum"})
_ONE_ROW_KINDS = frozenset({"move_intent", "point_query", "range_sum"})

#: High bit of the body's record-count word: set when the body is one
#: atomic commit unit (an MVCC transaction's write set).  Old readers
#: never saw the bit set, so the encoding stays backward compatible.
_ATOMIC_FLAG = 0x8000_0000


def segment_name(first_lsn: int) -> str:
    """File name of the segment whose first record is ``first_lsn``."""
    return f"wal-{first_lsn:020d}.log"


def segment_first_lsn(path: str | os.PathLike) -> int:
    """Inverse of :func:`segment_name`."""
    stem = Path(path).name
    if not (stem.startswith("wal-") and stem.endswith(".log")):
        raise WalCorruptionError(f"not a WAL segment name: {stem!r}")
    return int(stem[4:-4])


# --------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------- #


def encode_batch(records, atomic: bool = False) -> bytes:
    """Pack records of :data:`BATCH_KINDS` into one body."""
    count = len(records)
    if atomic:
        count |= _ATOMIC_FLAG
    parts = [_COUNT.pack(count)]
    for record in records:
        kind = record.kind
        rows = kind == "insert" or kind in _ONE_ROW_KINDS
        width = int(record.payloads.shape[1]) if rows else 0
        parts.append(_RECORD.pack(_BATCH_CODES[kind], int(record.keys.shape[0]), width))
        parts.append(record.keys.astype("<i8", copy=False).tobytes())
        if kind in _HIGHS_KINDS:
            parts.append(record.highs.astype("<i8", copy=False).tobytes())
        if rows:
            parts.append(record.payloads.astype("<i8", copy=False).tobytes())
    return b"".join(parts)


def encode_delta_log(log: CallLog) -> bytes:
    """Pack the write and marker records of a call log into one WAL
    record body (its read records are skipped)."""
    records = [record for record in log.records if record.kind in DELTA_KIND_CODES]
    return encode_batch(records, log.atomic)


def _take(body: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    end = offset + 8 * count
    if end > len(body):
        raise WalCorruptionError("delta body shorter than its declared arrays")
    return np.frombuffer(body, dtype="<i8", count=count, offset=offset).astype(
        np.int64
    ), end


def _decode(body: bytes, kinds: tuple[str, ...]) -> CallLog:
    if len(body) < _COUNT.size:
        raise WalCorruptionError("delta body shorter than its record count")
    (count,) = _COUNT.unpack_from(body, 0)
    atomic = bool(count & _ATOMIC_FLAG)
    count &= ~_ATOMIC_FLAG
    offset = _COUNT.size
    log = CallLog(atomic=atomic)
    for _ in range(count):
        if offset + _RECORD.size > len(body):
            raise WalCorruptionError("delta body shorter than its record headers")
        code, n, width = _RECORD.unpack_from(body, offset)
        offset += _RECORD.size
        if code >= len(kinds):
            raise WalCorruptionError(f"unknown delta kind code {code}")
        kind = kinds[code]
        keys, offset = _take(body, offset, n)
        highs = payloads = None
        if kind in _HIGHS_KINDS:
            highs, offset = _take(body, offset, n)
        if kind == "insert" or kind in _ONE_ROW_KINDS:
            rows = n if kind == "insert" else 1
            flat, offset = _take(body, offset, rows * width)
            payloads = flat.reshape(rows, width)
        log.records.append(LogRecord(kind, keys, highs, payloads))
    if offset != len(body):
        raise WalCorruptionError("delta body has trailing bytes")
    return log


def decode_delta_log(body: bytes) -> CallLog:
    """Unpack one WAL record body (inverse of :func:`encode_delta_log`).

    Raises :class:`WalCorruptionError` on structural mismatch (a read
    kind included); in practice the frame CRC rejects damaged bodies
    before they reach the decoder, so this guards against format bugs,
    not disk corruption.
    """
    return _decode(body, DELTA_KINDS)


def decode_batch(body: bytes) -> CallLog:
    """Unpack a body of any kind (inverse of :func:`encode_batch`)."""
    return _decode(body, BATCH_KINDS)


def frame_record(lsn: int, body: bytes) -> bytes:
    """Frame one record: header + CRC + body."""
    crc = zlib.crc32(_CRC_PREFIX.pack(lsn, len(body)) + body)
    return _FRAME.pack(lsn, len(body), crc) + body


# --------------------------------------------------------------------- #
# Segment scan (recovery / torn-tail detection)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SegmentScan:
    """Result of validating one segment front-to-back.

    ``records`` holds the ``(lsn, body)`` pairs that passed the CRC, in
    file order; ``valid_bytes`` is the file offset right after the last
    valid record (the truncation target for a torn tail, and the resume
    offset for a tailing reader); ``file_bytes`` is the on-disk size that
    was scanned; ``ends[i]`` is the absolute offset right after
    ``records[i]``, so a cursor can advance record-by-record even when it
    applies only a prefix of the scan.

    ``tail_status`` classifies what stopped the scan:

    * ``"clean"`` -- the file ends exactly at a record boundary;
    * ``"short"`` -- the last frame is incomplete (fewer bytes on disk
      than its header demands).  On the *live* segment this is the normal
      shape of an append still in flight (or cut off by a crash): a
      tailing reader resumes at ``valid_bytes`` once the file has grown,
      without re-reading the segment from the start;
    * ``"corrupt"`` -- a complete frame failed its CRC or broke LSN
      monotonicity.  More bytes cannot repair it; only the writer's
      reopen truncation can.
    """

    records: list[tuple[int, bytes]]
    valid_bytes: int
    file_bytes: int
    ends: tuple[int, ...] = ()
    tail_status: str = "clean"

    @property
    def torn(self) -> bool:
        """Whether the segment ends in an incomplete / corrupt tail."""
        return self.file_bytes > self.valid_bytes

    @property
    def resume_offset(self) -> int:
        """Where a tailing reader should scan from on its next poll."""
        return self.valid_bytes


def scan_segment(
    path: str | os.PathLike,
    *,
    start_offset: int | None = None,
    previous_lsn: int = 0,
) -> SegmentScan:
    """Validate a segment and return its intact record prefix.

    Walks records front-to-back, stopping at the first frame that is
    incomplete, fails its CRC or breaks LSN monotonicity; everything from
    that point on is the *torn tail* a crash mid-append leaves behind, or
    the stale records of a recycled file's previous life (``tail_status``
    tells an incomplete tail apart from a corrupt one).  Raises
    :class:`WalCorruptionError` only for a bad file magic (the file is not
    a WAL segment at all).

    A scan from the first record with no ``previous_lsn`` takes the
    segment name as its seed: the first record must carry the LSN the
    segment is named for.  Stale records carry LSNs below the name, so a
    recycled segment with no record of its own yet scans as empty.

    Tailing: pass ``start_offset`` (a previous scan's ``resume_offset``
    or record end) to resume parsing a *growing* live segment without
    re-reading it from the start, and ``previous_lsn`` to carry the LSN
    monotonicity check across the boundary.  Offsets in the result are
    absolute file offsets either way.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise WalCorruptionError(f"bad WAL magic in {path}")
        start = len(MAGIC) if start_offset is None else int(start_offset)
        if start < len(MAGIC):
            raise WalCorruptionError(
                f"scan offset {start} inside the magic of {path}"
            )
        handle.seek(start)
        data = handle.read()
    if previous_lsn:
        expected = previous_lsn + 1
    elif start == len(MAGIC):
        expected = segment_first_lsn(path)
    else:
        expected = None  # resumed mid-segment without a seed
    records: list[tuple[int, bytes]] = []
    ends: list[int] = []
    offset = 0
    valid = 0
    status = "clean"
    while True:
        if offset + _FRAME.size > len(data):
            if offset < len(data):
                status = "short"
            break
        lsn, length, crc = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        body_end = body_start + length
        if body_end > len(data):
            status = "short"
            break
        body = data[body_start:body_end]
        if zlib.crc32(_CRC_PREFIX.pack(lsn, length) + body) != crc:
            status = "corrupt"
            break
        if expected is not None and lsn != expected:
            status = "corrupt"
            break
        records.append((lsn, body))
        ends.append(start + body_end)
        expected = lsn + 1
        offset = body_end
        valid = offset
    return SegmentScan(
        records=records,
        valid_bytes=start + valid,
        file_bytes=start + len(data),
        ends=tuple(ends),
        tail_status=status,
    )


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #


@guarded_class
class WalWriter:
    """Appender over one open WAL segment.

    Concurrency model: appends run under the durability manager's commit
    lock (order name ``wal_commit`` -- the decorated precondition of
    :meth:`append`), which serializes record framing and keeps the LSN
    sequence gap-free.  :meth:`sync` takes only the internal ``wal_sync``
    lock, so group commit never blocks the next committer's append, and
    the durable watermark (``synced_lsn``) trails the appended watermark
    (``appended_lsn``) by exactly the un-fsynced tail.

    ``recycled=True`` opens a file that holds a dropped segment's bytes
    (renamed to ``path`` from the pool): the writer starts the segment
    afresh and writes over the old bytes in place, never truncating them.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        recycled: bool = False,
        faults: FaultInjector | None = None,
        max_retries: int = 4,
        retry_backoff_s: float = 0.002,
        sleep=time.sleep,
    ) -> None:
        self.path = Path(path)
        self._faults = faults
        self._max_retries = int(max_retries)
        self._retry_backoff_s = float(retry_backoff_s)
        self._sleep = sleep
        self._sync_lock = discipline.make_lock("wal_sync")
        self._failed = False
        first_lsn = segment_first_lsn(self.path)
        fresh = recycled or not self.path.exists() or self.path.stat().st_size == 0
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        # The recycled file's old bytes, kept only under a fault injector:
        # they are what a power loss leaves past the synced offset.
        self._stale = (
            self.path.read_bytes() if recycled and faults is not None else b""
        )
        if fresh:
            os.write(self._fd, MAGIC)
            self._offset = len(MAGIC)
            self._appended_lsn = first_lsn - 1
        else:
            scan = scan_segment(self.path)
            if scan.torn:
                # CRC-rejected torn tail from a crash mid-append: drop it.
                os.ftruncate(self._fd, scan.valid_bytes)
            os.lseek(self._fd, scan.valid_bytes, os.SEEK_SET)
            self._offset = scan.valid_bytes
            self._appended_lsn = (
                scan.records[-1][0] if scan.records else first_lsn - 1
            )
        # Bytes already on disk when the writer opens are treated as the
        # durable baseline: recovery only ever reopens after re-reading
        # them, and the power-loss simulation is scoped to one writer's
        # lifetime.
        self._synced_offset = self._offset
        self._synced_lsn = self._appended_lsn

    # -- introspection ------------------------------------------------- #

    @property
    def appended_lsn(self) -> int:
        """LSN of the last record appended to this segment."""
        return self._appended_lsn

    @property
    def synced_lsn(self) -> int:
        """LSN of the last record covered by an fsync."""
        return self._synced_lsn

    @property
    def unsynced_bytes(self) -> int:
        """Appended bytes not yet covered by an fsync."""
        return self._offset - self._synced_offset

    @property
    def failed(self) -> bool:
        """Whether the writer shut down after exhausting I/O retries."""
        return self._failed

    # -- fault plumbing ------------------------------------------------ #

    def _die(self) -> None:
        """Simulate this process's death: close the fd (what the OS would
        do), first dropping the un-fsynced tail when the injector models
        power loss rather than a mere kill.  On a recycled file the disk
        never saw the un-fsynced overwrite either, so the old bytes past
        the synced offset come back."""
        if self._fd < 0:
            return
        faults = self._faults
        if faults is not None and faults.power_loss:
            stale = self._stale[self._synced_offset :]
            try:
                os.ftruncate(self._fd, max(self._synced_offset, len(self._stale)))
                os.pwrite(self._fd, stale, self._synced_offset)
            except OSError:
                pass
        os.close(self._fd)
        self._fd = -1

    def _crash_point(self, point: str) -> None:
        if self._faults is None:
            return
        try:
            self._faults.hit(point)
        except InjectedCrash:
            self._die()
            raise

    def _io(self, point: str, fn):
        try:
            return retry_io(
                fn,
                point=point,
                faults=self._faults,
                max_retries=self._max_retries,
                backoff_s=self._retry_backoff_s,
                sleep=self._sleep,
                on_crash=self._die,
            )
        except OSError as exc:
            self._failed = True
            raise WalUnavailableError(
                f"WAL I/O at {point!r} failed after "
                f"{self._max_retries + 1} attempts: {exc}"
            ) from exc

    def _write_all(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            written = self._io("wal.write", lambda v=view: os.write(self._fd, v))
            view = view[written:]

    # -- append / sync ------------------------------------------------- #

    @requires_lock("wal_commit")
    def append(self, lsn: int, body: bytes) -> None:
        """Append one framed record (caller holds the commit lock).

        With a fault injector attached the frame is written in three
        slices so the ``wal.append.*`` crash points land between real
        ``os.write`` calls, leaving exactly the torn shapes a crash
        produces; without one it is a single write.
        """
        if self._failed:
            raise WalUnavailableError("WAL writer is shut down")
        if lsn != self._appended_lsn + 1:
            raise WalCorruptionError(
                f"non-consecutive append: lsn {lsn} after {self._appended_lsn}"
            )
        frame = frame_record(lsn, body)
        if self._faults is None:
            self._write_all(frame)
        else:
            self._crash_point("wal.append.begin")
            self._write_all(frame[: _FRAME.size])
            self._crash_point("wal.append.header")
            split = _FRAME.size + max(1, len(body) // 2)
            self._write_all(frame[_FRAME.size : split])
            self._crash_point("wal.append.partial")
            self._write_all(frame[split:])
        self._offset += len(frame)
        self._appended_lsn = lsn
        self._crash_point("wal.append.full")

    def sync(self) -> int:
        """Group commit: fsync everything appended so far; return the
        durable LSN.  Concurrent callers coalesce -- whoever enters the
        sync lock first covers every record appended before its fsync, and
        later callers find their watermark already durable."""
        if self._failed:
            raise WalUnavailableError("WAL writer is shut down")
        with self._sync_lock:
            target_offset = self._offset
            target_lsn = self._appended_lsn
            if target_offset > self._synced_offset:
                self._io("wal.fsync", lambda: os.fsync(self._fd))
                self._synced_offset = target_offset
                self._synced_lsn = target_lsn
            return self._synced_lsn

    def close(self, *, sync: bool = True) -> None:
        """Close the segment, fsyncing the tail by default (idempotent)."""
        if self._fd < 0:
            return
        if sync and not self._failed:
            self.sync()
        os.close(self._fd)
        self._fd = -1

    def abandon(self) -> None:
        """Close the fd without syncing (crash cleanup path)."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

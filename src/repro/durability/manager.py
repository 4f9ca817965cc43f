"""The durability manager: commit scope, group commit, checkpoints, GC.

One :class:`DurabilityManager` owns a log directory::

    <root>/
      wal/        wal-<first lsn>.log segments (rotated at checkpoints)
                  and the .free segment pool (see wal.py)
      snapshots/  snap-<lsn>/ chunk snapshots, payload/ segments and
                  the .free/ pool (see snapshot.py)

and exposes the three verbs the engine needs:

* ``append(call_log)`` -- encode the write records of one commit scope's
  per-call log as the next WAL record.  Callers hold :attr:`commit_lock`
  (order name ``wal_commit``, declared *outside* the chunk latches in
  :data:`repro.discipline.LOCK_ORDER`) across **apply + append**, which is
  the invariant the whole design rests on: a checkpoint takes the same
  lock, so a snapshot can never capture table state whose deltas are not
  yet in the log (which replay would then apply twice).  Read-only batches
  never touch the lock.
* ``sync()`` / ``sync_for_policy()`` -- group-commit fsync under the
  writer's ``wal_sync`` lock, governed by the fsync policy:
  ``"always"`` fsyncs before every commit acknowledgement, ``"interval"``
  fsyncs once at least ``sync_interval_bytes`` have accumulated, ``"os"``
  leaves flushing to the OS (fastest, loses the un-synced tail on power
  failure -- never on a mere process kill).
* ``checkpoint(table)`` -- snapshot every chunk at the current LSN,
  writing only the payload rows appended since the manager's previous
  payload segment, rotate to a new WAL segment and garbage-collect
  snapshots beyond ``keep_snapshots``, every payload segment no kept
  manifest names, and every WAL segment fully covered by the oldest kept
  snapshot.  The first snapshot directory and the first WAL segment a
  checkpoint drops are not deleted but renamed to the pools
  ``snapshots/.free/`` and ``wal/.free``; the next checkpoint writes its
  snapshot over the pooled directory's files and rotates the WAL into the
  pooled segment, in place both times.  On a disk where every block free
  is a discard, a steady-state checkpoint then frees no block at all.
  Further garbage (several segments freed at once when a retention pin
  is released, the payload segments dropped after a reopen) is chosen
  under the commit lock but deleted after it is released, so durable
  writers never wait for a block free; only the checkpoint's caller
  does.

Failure handling: when the WAL writer exhausts its bounded I/O retries
(the log directory became unwritable), the manager trips into *read-only
degradation* -- ``require_writable`` raises
:class:`~repro.durability.errors.ReadOnlyError` for every later write
while reads keep flowing.  In-memory state may then be ahead of the
durable log; the un-acknowledged tail is lost on restart, which is
exactly what the missing acknowledgement promised.
"""

from __future__ import annotations

import os
import shutil
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro import discipline
from repro.discipline import guarded_class, requires_lock

from .errors import ReadOnlyError, SnapshotCorruptionError, WalUnavailableError
from .faults import FaultInjector, InjectedCrash
from .snapshot import (
    FREE_DIR,
    PAYLOAD_DIR,
    PayloadSegment,
    SnapshotInfo,
    list_snapshots,
    read_manifest,
    snapshot_lsn,
    write_snapshot,
)
from .wal import (
    FREE_SEGMENT,
    WalWriter,
    encode_delta_log,
    segment_first_lsn,
    segment_name,
)

if TYPE_CHECKING:
    from ..storage.access_log import CallLog
    from ..storage.table import Table

#: Valid fsync policies, strongest first.
FSYNC_POLICIES = ("always", "interval", "os")


@dataclass(frozen=True)
class DurabilityConfig:
    """Behavioral knobs of a durability manager.

    ``root`` is the log directory; everything else tunes the write path.
    ``faults`` attaches a :class:`FaultInjector` to every I/O site (tests
    and the crash-recovery demo only).
    """

    root: str | os.PathLike
    fsync: str = "always"
    sync_interval_bytes: int = 1 << 20
    max_retries: int = 4
    retry_backoff_s: float = 0.002
    keep_snapshots: int = 2
    #: Retention fallback for followers that cannot register a cursor pin
    #: (e.g. a replica process that tails the log directory without a
    #: primary endpoint): checkpoint GC always keeps this many rotated
    #: segments behind the live one, on top of whatever registered pins
    #: demand.
    keep_segments: int = 0
    faults: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )


@guarded_class
class DurabilityManager:
    """Durability engine-side façade over one log directory."""

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        meta: dict,
        next_lsn: int | None = None,
        sleep=time.sleep,
    ) -> None:
        self.config = config
        self.root = Path(config.root)
        self.wal_dir = self.root / "wal"
        self.snapshot_dir = self.root / "snapshots"
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        #: Table-reconstruction metadata stamped into every snapshot
        #: manifest (chunk size, payload names, layout spec).
        self.meta = dict(meta)
        self._sleep = sleep
        self._commit_lock = discipline.make_lock("wal_commit")
        # Replication cursor pins: owner -> last applied LSN.  Checkpoint
        # GC never deletes a segment holding records above the lowest pin,
        # so a live cursor can never land on a deleted segment.
        self._pins_lock = discipline.make_lock("replica_pins")
        self._pins: dict[str, int] = {}
        self._read_only = False
        self._closed = False
        # Payload segments this manager wrote for one live table (row ids
        # are per table incarnation): the next checkpoint of that table
        # reuses them and writes only the rows after them.
        self._segments: tuple[PayloadSegment, ...] = ()
        self._segments_table = None
        self._last_checkpoint = self._latest_snapshot_lsn()
        segments = self.segments()
        if segments:
            segment_path = segments[-1]
        else:
            first = next_lsn if next_lsn is not None else self._last_checkpoint + 1
            segment_path = self.wal_dir / segment_name(first)
        self.wal = self._open_writer(segment_path)

    # -- construction helpers ------------------------------------------ #

    def _open_writer(self, path: Path, *, recycled: bool = False) -> WalWriter:
        return WalWriter(
            path,
            recycled=recycled,
            faults=self.config.faults,
            max_retries=self.config.max_retries,
            retry_backoff_s=self.config.retry_backoff_s,
            sleep=self._sleep,
        )

    def _latest_snapshot_lsn(self) -> int:
        snapshots = list_snapshots(self.snapshot_dir)
        return snapshot_lsn(snapshots[0]) if snapshots else 0

    def segments(self) -> list[Path]:
        """WAL segment files in ascending first-LSN order."""
        return sorted(
            self.wal_dir.glob("wal-*.log"), key=segment_first_lsn
        )

    # -- introspection -------------------------------------------------- #

    @property
    def commit_lock(self):
        """The ``wal_commit`` lock: held across [apply + append] by every
        durable write scope and across the whole of :meth:`checkpoint`."""
        return self._commit_lock

    @property
    def last_lsn(self) -> int:
        """LSN of the last appended (not necessarily durable) commit."""
        return self.wal.appended_lsn

    @property
    def durable_lsn(self) -> int:
        """LSN of the last commit covered by an fsync."""
        return self.wal.synced_lsn

    @property
    def last_checkpoint_lsn(self) -> int:
        """LSN of the most recent committed snapshot."""
        return self._last_checkpoint

    @property
    def read_only(self) -> bool:
        """Whether the manager degraded to read-only mode."""
        return self._read_only or self.wal.failed

    def require_writable(self) -> None:
        """Raise :class:`ReadOnlyError` when writes can no longer be
        made durable (reads are unaffected)."""
        if self._closed:
            raise ReadOnlyError("the database is closed: reopen it to write")
        if self.read_only:
            raise ReadOnlyError(
                "durability layer is in read-only degradation: the write-ahead "
                "log became unwritable; reopen the database to resume writes"
            )

    # -- replication cursor pins ---------------------------------------- #

    def pin_lsn(self, owner: str, lsn: int) -> None:
        """Declare that ``owner`` has applied the log through ``lsn``.

        Every record with a larger LSN stays replayable: checkpoint GC
        will not delete the segments holding them until the pin advances
        past them or is released.  Re-pinning moves the watermark (it
        normally only grows, but a re-bootstrapping follower may legally
        move it back to its new snapshot's LSN).
        """
        with self._pins_lock:
            self._pins[owner] = int(lsn)

    def release_pin(self, owner: str) -> None:
        """Drop ``owner``'s retention pin (idempotent)."""
        with self._pins_lock:
            self._pins.pop(owner, None)

    def pins(self) -> dict[str, int]:
        """A copy of the live cursor pins (owner -> applied LSN)."""
        with self._pins_lock:
            return dict(self._pins)

    def retention_floor(self) -> int | None:
        """Lowest pinned LSN, or ``None`` when no cursor is registered."""
        with self._pins_lock:
            return min(self._pins.values(), default=None)

    # -- commit path ---------------------------------------------------- #

    @requires_lock("wal_commit")
    def append(self, deltas: "CallLog") -> int:
        """Encode one commit scope's write records as the next WAL record.

        Returns the record's LSN.  On persistent I/O failure the writer
        shuts down and the manager degrades to read-only; the in-memory
        state keeps the applied writes (they were never acknowledged as
        durable, and their loss surface is a restart)."""
        lsn = self.wal.appended_lsn + 1
        try:
            self.wal.append(lsn, encode_delta_log(deltas))
        except WalUnavailableError:
            self._read_only = True
            raise
        return lsn

    def sync(self) -> int:
        """Force a group-commit fsync; return the durable LSN."""
        try:
            return self.wal.sync()
        except WalUnavailableError:
            with self._commit_lock:
                self._read_only = True
            raise

    def sync_for_policy(self) -> int:
        """Apply the configured fsync policy after an append."""
        if self.config.fsync == "always":
            return self.sync()
        if (
            self.config.fsync == "interval"
            and self.wal.unsynced_bytes >= self.config.sync_interval_bytes
        ):
            return self.sync()
        return self.durable_lsn

    # -- checkpoint / GC ------------------------------------------------ #

    def checkpoint(self, table: "Table") -> SnapshotInfo:
        """Snapshot ``table``, rotate the WAL and collect garbage.

        The snapshot, the rotation and the choice of garbage run under the
        commit lock, so the snapshot captures exactly the state described
        by WAL records ``<= lsn`` -- durable writers are excluded for that
        part (reads are not).  The tail of the old segment is fsynced
        before the snapshot commits, then appends continue into segment
        ``wal-<lsn + 1>.log`` (the pooled segment, when there is one).  The
        chosen garbage is deleted after the lock is released, before this
        call returns.
        """
        with self._commit_lock:
            self.require_writable()
            lsn = self.wal.appended_lsn
            owner = self._segments_table() if self._segments_table else None
            try:
                self.wal.sync()
                info = write_snapshot(
                    self.snapshot_dir,
                    table,
                    lsn,
                    self.meta,
                    segments=self._segments if owner is table else (),
                    faults=self.config.faults,
                    max_retries=self.config.max_retries,
                    retry_backoff_s=self.config.retry_backoff_s,
                    sleep=self._sleep,
                )
                self._rotate(lsn + 1)
            except InjectedCrash:
                # Simulated process death mid-checkpoint: release the fd
                # (what the OS would do) and let the "kill" propagate.
                self.wal.abandon()
                raise
            except WalUnavailableError:
                self._read_only = True
                raise
            if info.written:
                self._segments = info.segments
                self._segments_table = weakref.ref(table)
            self._last_checkpoint = info.lsn
            garbage = self._collect_garbage(info.lsn)
        # A checkpoint that starts meanwhile may choose some of this garbage
        # again; both deletions tolerate a vanished path.  It never renames
        # a directory of it to the pool: the pool is missing only once it
        # wrote a snapshot of its own, and then it drops a newer directory
        # first.  It may rename a WAL segment of it to the emptied segment
        # pool; whichever of the rename and the unlink comes second finds
        # the path gone.
        for path in garbage:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        return info

    @requires_lock("wal_commit")
    def _rotate(self, first_lsn: int) -> None:
        """Continue the log in segment ``wal-<first_lsn>.log``: the pooled
        segment renamed, or a new file without a pool.  A checkpoint with
        no record since the last one finds that segment live already and
        keeps its writer."""
        path = self.wal_dir / segment_name(first_lsn)
        if path == self.wal.path:
            return
        self.wal.close()
        pool = self.wal_dir / FREE_SEGMENT
        recycled = pool.exists()
        if recycled:
            os.rename(pool, path)
        self.wal = self._open_writer(path, recycled=recycled)

    @requires_lock("wal_commit")
    def _collect_garbage(self, newest_lsn: int) -> list[Path]:
        """Choose the garbage: snapshots beyond ``keep_snapshots`` (plus
        stale partials), payload segments no kept manifest names and WAL
        segments fully covered by the oldest *kept* snapshot.  The first
        dropped snapshot directory and the first dropped WAL segment
        become the pools (``snapshots/.free/``, ``wal/.free``) where there
        is none; every other path is returned for :meth:`checkpoint` to
        delete outside the lock.

        Registered replication cursors lower the deletion floor to their
        lowest pinned LSN, and ``keep_segments`` additionally exempts the
        newest rotated segments, so a follower tailing the log -- pinned
        or merely configured for -- never lands on a deleted segment.
        """
        keep = max(1, int(self.config.keep_snapshots))
        snapshots = list_snapshots(self.snapshot_dir)
        kept = snapshots[:keep]
        dropped = snapshots[keep:] + [
            partial
            for partial in self.snapshot_dir.glob("snap-*.partial")
            if snapshot_lsn(Path(str(partial)[: -len(".partial")])) <= newest_lsn
        ]
        garbage = []
        # The first dropped directory becomes the pool the next checkpoint
        # writes over: a rename frees no disk block, an rmtree does.
        pool = self.snapshot_dir / FREE_DIR
        for stale in dropped:
            if pool.exists():
                garbage.append(stale)
            else:
                os.rename(stale, pool)
        garbage.extend(self._collect_payload(kept))
        floor = snapshot_lsn(kept[-1]) if kept else 0
        pin_floor = self.retention_floor()
        if pin_floor is not None:
            floor = min(floor, pin_floor)
        segments = self.segments()
        # Segment k covers LSNs [first_k, first_{k+1}); it is garbage once
        # the *next* segment starts at or below the replay floor + 1.  The
        # live segment and the ``keep_segments`` newest rotated ones are
        # never candidates.
        stop = len(segments) - 1 - max(0, int(self.config.keep_segments))
        pool = self.wal_dir / FREE_SEGMENT
        for index in range(max(0, stop)):
            if segment_first_lsn(segments[index + 1]) > floor + 1:
                continue
            if pool.exists():
                garbage.append(segments[index])
                continue
            try:
                os.rename(segments[index], pool)
            except FileNotFoundError:
                pass  # an earlier checkpoint, outside the lock, deleted it
        return garbage

    def _collect_payload(self, kept: list[Path]) -> list[Path]:
        """Every payload segment no kept manifest names (segments of
        dropped snapshots, of earlier incarnations and crash orphans).  A
        kept manifest that cannot be read might name any segment, so it
        skips this pass; retention drops its snapshot in time."""
        named: set[str] = set()
        for snapshot in kept:
            try:
                manifest = read_manifest(snapshot)
            except SnapshotCorruptionError:
                return []
            named.update(entry["file"] for entry in manifest["segments"])
        payload_dir = self.snapshot_dir / PAYLOAD_DIR
        if not payload_dir.is_dir():
            return []
        return [
            segment
            for segment in payload_dir.iterdir()
            if segment.name not in named
        ]

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Fsync the tail (best effort once degraded), release fds and refuse
        every later write, once an in-flight commit scope has finished."""
        with self._commit_lock:
            self._closed = True
            try:
                self.wal.close(sync=not self.read_only)
            except WalUnavailableError:
                self.wal.abandon()

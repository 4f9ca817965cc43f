"""The follower: snapshot bootstrap + incremental WAL tailing.

A :class:`Follower` keeps a read-only replica
:class:`~repro.storage.table.Table` current against a primary's log
directory:

1. **bootstrap** -- load the newest intact snapshot
   (:func:`load_latest_snapshot` + :func:`table_from_snapshot`) and place
   the cursor at its LSN;
2. **register** -- announce the cursor to the primary endpoint, which
   pins WAL retention at the applied LSN so checkpoint GC can never
   delete a segment the cursor still needs;
3. **tail** -- each :meth:`poll` exchanges watermarks with the primary,
   then incrementally re-scans the current segment from the cursor's
   byte offset (:func:`scan_segment` with ``start_offset``), applying
   each record through the same bulk-write paths recovery uses
   (:func:`apply_delta_log`) and handing off to the successor segment
   when a checkpoint rotation leaves the current one cleanly consumed.
   A rotated segment whose tail is still torn after one re-scan is lost
   history: :class:`ReplicationError`, never a silent stop.

The one rule that makes this safe against *any* primary crash is the
durable gate: a record is applied only once its LSN is at or below the
primary's fsync-covered watermark.  Un-synced records can be truncated by
a power-loss crash and replaced -- same LSNs, different contents -- by
the primary's next incarnation; durable bytes are immutable, so the
cursor offset (which only ever covers applied = durable records) stays
valid across primary restarts, and a follower restart simply re-runs the
bootstrap (re-applying the log above a *newer* snapshot is idempotent by
construction: it replays exactly the committed history).

Without a primary endpoint (``primary=None``) there is no durable
watermark to gate on; the follower applies every CRC-valid record it
scans.  That is the right semantics for tailing a *dead* primary's
directory (offline catch-up) but, against a live primary under the
``"interval"``/``"os"`` fsync policies, it may apply records a power
loss would retract -- use an endpoint whenever the primary is live.

Threading: :meth:`start` runs the poll loop on a daemon thread; every
table mutation happens under the ``replica_apply`` lock (declared
*outside* the chunk latches in :data:`repro.discipline.LOCK_ORDER`), so
read sessions on the replica table interleave with application under the
table's ordinary chunk-granular latches while cursor state stays
single-writer.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro import discipline
from repro.discipline import guarded_class, requires_lock

from ..durability.errors import WalCorruptionError
from ..durability.recovery import apply_delta_log, table_from_snapshot
from ..durability.snapshot import load_latest_snapshot
from ..durability.wal import (
    MAGIC,
    decode_delta_log,
    scan_segment,
    segment_first_lsn,
)
from .cursor import ReplicationCursor
from .errors import ReplicationError, RetentionGapError

if TYPE_CHECKING:
    from ..storage.table import Table

_FOLLOWER_IDS = itertools.count(1)


def _default_follower_id() -> str:
    return f"follower-{os.getpid()}-{next(_FOLLOWER_IDS)}"


@guarded_class
class Follower:
    """A tailing replica of the database stored under ``root``.

    Parameters
    ----------
    root:
        The primary's log directory (``wal/`` + ``snapshots/``), shared
        via the filesystem.
    primary:
        Watermark endpoint: a :class:`~repro.replication.primary.Primary`
        (same process) or :class:`~repro.replication.transport.RemotePrimary`
        (socket).  ``None`` disables the durable gate and retention pin --
        offline tailing only; see the module docstring.
    follower_id:
        Stable name for the retention pin; generated when omitted.
    poll_interval:
        Idle sleep between polls of the background thread.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        primary=None,
        follower_id: str | None = None,
        poll_interval: float = 0.02,
    ) -> None:
        self.root = Path(root)
        self.wal_dir = self.root / "wal"
        self.follower_id = follower_id or _default_follower_id()
        self.poll_interval = float(poll_interval)
        snapshot = load_latest_snapshot(self.root / "snapshots")
        if snapshot is None:
            raise ReplicationError(
                f"no intact snapshot under {self.root / 'snapshots'}; "
                "a follower bootstraps from the primary's baseline snapshot"
            )
        self.table: "Table" = table_from_snapshot(snapshot)
        self.snapshot_lsn = snapshot.lsn
        self._apply_lock = discipline.make_lock("replica_apply")
        self._cursor = ReplicationCursor()
        self._applied_lsn = snapshot.lsn
        self._target_lsn = snapshot.lsn
        self._batches_applied = 0
        self._operations_applied = 0
        #: Transport failures the poll loop absorbed (it retries).
        self.transport_errors = 0
        self._primary = primary
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if primary is not None:
            # Register *before* the first scan: from here on checkpoint GC
            # keeps every segment above our applied LSN.  (Bootstrap itself
            # is pin-free but safe in practice: GC retains all segments
            # above the oldest kept snapshot, and we loaded the newest.)
            reply = primary.register(self.follower_id, self._applied_lsn)
            self._target_lsn = max(self._target_lsn, reply.durable_lsn)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def applied_lsn(self) -> int:
        """LSN of the last record applied to the replica table."""
        return self._applied_lsn

    @property
    def target_lsn(self) -> int:
        """Highest LSN the follower knows it should reach: the last
        exchanged durable watermark (or, without a primary endpoint, the
        highest LSN scanned from the log)."""
        return self._target_lsn

    @property
    def lag_lsn(self) -> int:
        """How many commits the replica trails its known target by."""
        return max(0, self._target_lsn - self._applied_lsn)

    @property
    def caught_up(self) -> bool:
        """Whether the replica has applied everything it may apply."""
        return self._applied_lsn >= self._target_lsn

    @property
    def batches_applied(self) -> int:
        """WAL records (commit scopes) applied since bootstrap."""
        return self._batches_applied

    @property
    def operations_applied(self) -> int:
        """Individual write operations applied since bootstrap."""
        return self._operations_applied

    # ------------------------------------------------------------------ #
    # Tailing
    # ------------------------------------------------------------------ #

    def poll(self) -> int:
        """One catch-up round: exchange watermarks, apply what is newly
        durable.  Returns the number of batches applied.

        Safe to call directly (synchronous catch-up) or from the
        background thread; application is serialized on ``replica_apply``.
        """
        limit = None
        if self._primary is not None:
            reply = self._primary.exchange(self.follower_id, self._applied_lsn)
            limit = reply.durable_lsn
        with self._apply_lock:
            if limit is not None:
                self._target_lsn = max(self._target_lsn, limit)
            return self._advance(limit)

    def reconnect(self, primary) -> None:
        """Point the follower at a (re)started primary endpoint.

        Re-registers the retention pin at the current applied LSN -- a
        restarted primary's manager starts with no pins, so a follower
        that survives its primary must re-announce itself before the next
        checkpoint GC runs.
        """
        self._primary = primary
        if primary is not None:
            reply = primary.register(self.follower_id, self._applied_lsn)
            with self._apply_lock:
                self._target_lsn = max(self._target_lsn, reply.durable_lsn)

    def catch_up(self) -> int:
        """Poll until one round applies nothing; returns total batches."""
        total = 0
        while True:
            applied = self.poll()
            total += applied
            if not applied:
                return total

    @requires_lock("replica_apply")
    def _advance(self, limit: int | None) -> int:
        """Apply records up to ``limit`` (``None`` = everything valid)."""
        batches = 0
        relocations = 0
        rescanned = False
        while True:
            if limit is not None and self._applied_lsn >= limit:
                break
            cursor = self._cursor
            if cursor.segment is None or not cursor.segment.exists():
                if relocations > 2 or not self._locate_segment():
                    break
                relocations += 1
                cursor = self._cursor
            try:
                if cursor.segment.stat().st_size < len(MAGIC):
                    break  # segment file just created; magic still in flight
                scan = scan_segment(
                    cursor.segment,
                    start_offset=cursor.offset,
                    previous_lsn=cursor.scan_lsn,
                )
            except FileNotFoundError:
                # Vanished between locate and scan -- rotation GC'd it (the
                # pin protocol makes this rare); try relocating once more.
                self._cursor = ReplicationCursor()
                continue
            except WalCorruptionError as exc:
                raise ReplicationError(
                    f"segment {cursor.segment.name} is not a valid WAL "
                    f"segment: {exc}"
                ) from exc
            progressed = self._apply_scan(scan, limit)
            batches += progressed
            if progressed:
                continue
            if scan.tail_status == "clean" and self._handoff():
                continue
            if scan.tail_status != "clean" and self._rotated():
                # The writer closed this segment, so its bytes are final:
                # one re-scan covers a scan that raced its last append, and
                # a torn tail that survives it is lost history -- the rule
                # recovery applies (only the final segment may be torn).
                if not rescanned:
                    rescanned = True
                    continue
                raise ReplicationError(
                    f"rotated segment {cursor.segment.name} has a "
                    f"{scan.tail_status} tail mid-history; replication "
                    "cannot continue"
                )
            # "short"/"corrupt" tails on the live segment repair themselves
            # (more bytes / the writer's reopen truncation); a clean tail
            # with no successor means we are simply caught up.  Either way
            # this round is done.
            break
        return batches

    @requires_lock("replica_apply")
    def _apply_scan(self, scan, limit: int | None) -> int:
        """Apply a scan's records through the durable gate; advance the
        cursor only over records actually applied or already covered."""
        cursor = self._cursor
        batches = 0
        for (lsn, body), end in zip(scan.records, scan.ends):
            if limit is not None and lsn > limit:
                # Appended but not yet durable: do NOT advance the cursor --
                # a primary power loss may replace these exact bytes.
                break
            if lsn > self._applied_lsn:
                if lsn != self._applied_lsn + 1:
                    raise RetentionGapError(
                        f"replication gap: expected lsn "
                        f"{self._applied_lsn + 1}, found {lsn} in "
                        f"{cursor.segment.name}"
                    )
                self._operations_applied += apply_delta_log(
                    self.table, decode_delta_log(body)
                )
                self._applied_lsn = lsn
                self._batches_applied += 1
                batches += 1
            cursor.offset = end
            cursor.scan_lsn = lsn
            if limit is None:
                self._target_lsn = max(self._target_lsn, lsn)
        return batches

    @requires_lock("replica_apply")
    def _locate_segment(self) -> bool:
        """Point the cursor at the segment holding ``applied_lsn + 1``.

        The right segment is the one with the greatest first LSN at or
        below the next record we need.  No segments at all means the
        primary has not created one yet (wait); segments that all start
        *above* the next record mean the history was GC'd out from under
        an unpinned cursor (:class:`RetentionGapError`).
        """
        segments = self._segments()
        needed = self._applied_lsn + 1
        best = None
        for segment in segments:
            if segment_first_lsn(segment) <= needed:
                best = segment
            else:
                break
        if best is None:
            if segments:
                raise RetentionGapError(
                    f"records from lsn {needed} were garbage-collected "
                    f"(oldest surviving segment starts at "
                    f"{segment_first_lsn(segments[0])}); re-bootstrap the "
                    "follower from the latest snapshot"
                )
            return False
        self._cursor = ReplicationCursor(segment=best, offset=len(MAGIC))
        return True

    @requires_lock("replica_apply")
    def _handoff(self) -> bool:
        """Rotation handoff: at a cleanly-consumed segment end, move to
        the successor iff it continues exactly at ``applied_lsn + 1``."""
        current_first = segment_first_lsn(self._cursor.segment)
        for segment in self._segments():
            first = segment_first_lsn(segment)
            if first <= current_first:
                continue
            if first != self._applied_lsn + 1:
                # A successor that skips LSNs past a fully-consumed
                # predecessor means a rotated segment between them was
                # deleted under the cursor.
                raise RetentionGapError(
                    f"rotation handoff gap: consumed through "
                    f"{self._applied_lsn}, next segment starts at {first}"
                )
            self._cursor = ReplicationCursor(segment=segment, offset=len(MAGIC))
            return True
        return False

    @requires_lock("replica_apply")
    def _rotated(self) -> bool:
        """Whether the cursor's segment has a successor: a torn tail is
        legal only on the live (last) segment, where the writer's reopen
        truncation can still repair it."""
        segments = self._segments()
        return bool(segments) and self._cursor.segment != segments[-1]

    def _segments(self) -> list[Path]:
        return sorted(self.wal_dir.glob("wal-*.log"), key=segment_first_lsn)

    # ------------------------------------------------------------------ #
    # Background tailing
    # ------------------------------------------------------------------ #

    def start(self) -> "Follower":
        """Tail on a daemon thread until :meth:`stop` / :meth:`close`."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run,
                name=f"repro-{self.follower_id}",
                daemon=True,
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                applied = self.poll()
            except ReplicationError:
                raise  # gaps / corruption: die loudly, state is suspect
            except (ConnectionError, OSError):
                # Transport hiccup (primary restarting, socket reset):
                # count it and retry next tick.
                self.transport_errors += 1
                applied = 0
            if not applied:
                self._stop.wait(self.poll_interval)

    def stop(self) -> None:
        """Stop the background thread (idempotent; cursor state remains
        valid, :meth:`start` may be called again)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        """Stop tailing and release the retention pin (idempotent)."""
        self.stop()
        primary, self._primary = self._primary, None
        if primary is not None:
            try:
                primary.release(self.follower_id)
            except (ConnectionError, OSError, ReplicationError):
                pass  # primary already gone; its pins died with it
            closer = getattr(primary, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""The follower: a :class:`~repro.durability.recovery.LogTail` kept
current against a live primary.

A :class:`Follower` keeps a read-only replica
:class:`~repro.storage.table.Table` current against a primary's log
directory.  The tail does the reading -- snapshot bootstrap, cursor,
segment locate and rotation hand-off, the gap, successor and torn-tail
rules and the apply, the same code crash recovery runs to the end of the
log.  The follower adds what replication needs on top:

1. **register** -- announce the tail's applied LSN to the primary
   endpoint, which pins WAL retention there so checkpoint GC can never
   delete a segment the cursor still needs;
2. **durable gate** -- each :meth:`poll` exchanges watermarks with the
   primary and advances the tail only up to the primary's fsync-covered
   LSN;
3. **polling thread** -- :meth:`start` polls on a daemon thread.

The tail's errors keep replication's names: a gap is
:class:`RetentionGapError` (re-bootstrap the follower) and a torn rotated
segment or a bad segment file :class:`ReplicationError` -- never a silent
stop.

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

Threading: every table mutation happens under the tail's
``replica_apply`` lock, so read sessions on the replica table interleave
with application under the table's ordinary chunk-granular latches while
cursor state stays single-writer.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from ..durability.errors import RecoveryError, WalCorruptionError
from ..durability.recovery import LogTail
from .errors import ReplicationError, RetentionGapError

if TYPE_CHECKING:
    from ..storage.table import Table

_FOLLOWER_IDS = itertools.count(1)


def _default_follower_id() -> str:
    return f"follower-{os.getpid()}-{next(_FOLLOWER_IDS)}"


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
        self.follower_id = follower_id or _default_follower_id()
        self.poll_interval = float(poll_interval)
        try:
            self._tail = LogTail.bootstrap(self.root)
        except RecoveryError as exc:
            raise ReplicationError(
                f"{exc}; a follower bootstraps from the primary's baseline "
                "snapshot"
            ) from exc
        self.table: "Table" = self._tail.table
        self.snapshot_lsn = self._tail.base_lsn
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
            reply = primary.register(self.follower_id, self.applied_lsn)
            self._tail.raise_target(reply.durable_lsn)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    #: LSN of the last record applied to the replica table.
    applied_lsn = property(lambda self: self._tail.applied_lsn)
    #: Highest LSN the follower knows it should reach: the last exchanged
    #: durable watermark (or, without a primary endpoint, the highest LSN
    #: scanned from the log).
    target_lsn = property(lambda self: self._tail.target_lsn)
    #: WAL records (commit scopes) applied since bootstrap.
    batches_applied = property(lambda self: self._tail.batches_applied)
    #: Individual write operations applied since bootstrap.
    operations_applied = property(lambda self: self._tail.operations_applied)

    @property
    def lag_lsn(self) -> int:
        """How many commits the replica trails its known target by."""
        return max(0, self.target_lsn - self.applied_lsn)

    @property
    def caught_up(self) -> bool:
        """Whether the replica has applied everything it may apply."""
        return self.applied_lsn >= self.target_lsn

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
            reply = self._primary.exchange(self.follower_id, self.applied_lsn)
            limit = reply.durable_lsn
        try:
            return self._tail.advance(limit)
        except RecoveryError as exc:
            raise RetentionGapError(
                f"{exc}; re-bootstrap the follower from the latest snapshot"
            ) from exc
        except WalCorruptionError as exc:
            raise ReplicationError(f"{exc}; replication cannot continue") from exc

    def reconnect(self, primary) -> None:
        """Point the follower at a (re)started primary endpoint.

        Re-registers the retention pin at the current applied LSN -- a
        restarted primary's manager starts with no pins, so a follower
        that survives its primary must re-announce itself before the next
        checkpoint GC runs.
        """
        self._primary = primary
        if primary is not None:
            reply = primary.register(self.follower_id, self.applied_lsn)
            self._tail.raise_target(reply.durable_lsn)

    def catch_up(self) -> int:
        """Poll until one round applies nothing; returns total batches."""
        total = 0
        while True:
            applied = self.poll()
            total += applied
            if not applied:
                return total

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

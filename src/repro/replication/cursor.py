"""The cursor protocol: where a follower is in the primary's log.

The cursor itself -- one segment path, one byte offset, one LSN -- is a
:class:`~repro.durability.recovery.ReplicationCursor` owned by the
follower's :class:`~repro.durability.recovery.LogTail`, the log reader
crash recovery runs too.  It is deliberately minimal because the whole
tailing protocol rests on a single invariant the durability layer
already provides:

    **a follower never advances its cursor past a record it has not
    applied, and never applies a record above the primary's durable
    (fsync-covered) LSN.**

The second half is what makes the first half safe.  Bytes at or below the
primary's ``synced_offset`` are never rewritten: a process kill preserves
them verbatim and a power-loss crash loses only the bytes *above* them
(a new file is cut back to the synced offset, a recycled one holds its
old bytes there again; see ``WalWriter._die``).  Since every applied record is durable, the cursor's
offset always sits at or below the synced offset, so re-scanning from it
after any primary restart reads exactly the bytes it read before -- even
though the un-synced tail beyond it may have been truncated and replaced
with different records under the same LSNs.  Records a scan *returned*
but the durable gate withheld are intentionally forgotten; the next poll
re-reads them (or their replacements) from the unchanged offset.

:class:`CursorExchange` is the primary's half of the handshake: the
watermarks a follower needs to gate application (``durable_lsn``) and to
anticipate rotation (``checkpoint_lsn``), returned from every
``register`` / ``exchange`` call and small enough to serialize as a JSON
frame on the socket transport.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CursorExchange:
    """The primary's reply to a watermark exchange.

    ``durable_lsn`` is the fsync-covered high watermark -- the follower's
    application gate; ``checkpoint_lsn`` the newest committed snapshot's
    LSN, after which a rotation handoff to segment
    ``wal-<checkpoint_lsn + 1>.log`` is expected.
    """

    durable_lsn: int
    checkpoint_lsn: int

    def to_wire(self) -> dict:
        """JSON-safe form for the socket transport."""
        return {
            "durable_lsn": self.durable_lsn,
            "checkpoint_lsn": self.checkpoint_lsn,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "CursorExchange":
        return cls(
            durable_lsn=int(payload["durable_lsn"]),
            checkpoint_lsn=int(payload["checkpoint_lsn"]),
        )

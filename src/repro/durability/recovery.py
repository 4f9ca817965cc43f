"""One log reader: a :class:`LogTail` runs a table forward along the WAL.

``recover(root)`` is a tail run to the end of the log, and the
replication follower is a tail behind its primary's durable gate.  A
:class:`LogTail`

1. bootstraps from the newest snapshot that passes CRC validation
   (falling back to older ones -- a corrupt snapshot costs replay length,
   not data), rebuilt under the layout spec its manifest records (a table
   whose chunks a planner built records none and recovers under the
   sorted builder);
2. locates the segment holding ``applied + 1`` (the greatest first LSN
   at or below it), so segments wholly below the snapshot are never read;
3. re-scans that segment from its cursor's byte offset and runs each
   write record of every new WAL record as the batched operation it
   logged (:data:`repro.workload.operations.REPLAYED_AS`) through its
   ``run(table)`` -- never re-logged.  Move-protocol markers mutate
   nothing: a cross-shard move's delete/insert ride as ordinary records,
   and the markers only matter to the sharded dispatcher's
   move-resolution scan (:mod:`repro.sharding.database`);
4. hands off to the successor once it has applied the successor's first
   LSN - 1.

The log's rules, stated once for both readers:

* **gap** -- the next record applied is always ``applied + 1``; anything
  else is lost history: :class:`RecoveryError`;
* **successor** -- a rotated segment (one with a successor) ends at its
  successor's first LSN - 1, whatever bytes follow: a recycled file (see
  :mod:`repro.durability.wal`) keeps records of its previous life past
  its own, and :func:`~repro.durability.wal.scan_segment` stops at them
  because their LSNs lie below the segment's name.  A rotated segment's
  bytes are final, so one whose valid records stop earlier, torn or
  corrupt after one re-scan, is :class:`WalCorruptionError`;
* **torn tail** -- only the live (last) segment may end short or corrupt
  (an append in flight or cut off by a crash, or a recycled file's stale
  bytes, repaired by more bytes or the writer's truncation on reopen), so
  the tail stops there.

Records at or below the applied LSN are skipped, so a second run over
the same log applies nothing.  Two documented equivalences rather than
identities:

* global row ids are renumbered (rows reload in snapshot order), so
  recovery preserves the logical row multiset ``{(key, payload)}``, not
  physical rowid values;
* when a table holds *duplicate* copies of a deleted key, the live path
  deterministically removes the oldest copy (smallest row id -- see
  :meth:`repro.storage.column.PartitionedColumn.delete`), but the rebuild
  renumbers row ids in snapshot order, so a delete *replayed* across a
  recovery boundary can land on a different physical copy than its live
  execution did.  Recovered state therefore equals the oracle at the
  logical level whenever payload is a function of the key -- the regime
  the paper's HAP workloads (unique keys) and our property tests operate
  in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro import discipline
from repro.discipline import guarded_class, requires_lock

from ..storage.layouts import LayoutKind, LayoutSpec
from ..storage.table import Table, layout_chunk_builder
from ..workload.operations import REPLAYED_AS
from .errors import RecoveryError, WalCorruptionError
from .snapshot import LoadedSnapshot, load_latest_snapshot
from .wal import MAGIC, SegmentScan, decode_delta_log, scan_segment, segment_first_lsn


@dataclass(frozen=True)
class RecoveryReport:
    """What a ``recover`` call did, for logging and assertions."""

    base_lsn: int
    last_lsn: int
    batches_replayed: int
    operations_replayed: int
    #: Bytes past the valid record prefix of the live segment: the torn
    #: tail the reopened writer truncates.  After a clean close of a
    #: recycled live segment, also the stale bytes of its previous life
    #: past the last record, which that writer truncates too.
    truncated_bytes: int
    snapshot_path: Path
    #: WAL segments the replay read (none wholly below the snapshot).
    segments_scanned: int
    #: The recovered snapshot's manifest metadata (chunk size, payload
    #: names, layout spec), for the snapshots a reopened database takes.
    meta: dict


def meta_to_spec(meta: dict) -> LayoutSpec | None:
    """Reconstruct the manifest's :class:`LayoutSpec` (``None`` when the
    table was built with a custom chunk builder, e.g. a planner)."""
    raw = meta.get("layout_spec")
    if raw is None:
        return None
    raw = dict(raw)
    raw["kind"] = LayoutKind(raw["kind"])
    for field in ("boundaries", "ghost_allocation"):
        if raw.get(field) is not None:
            raw[field] = tuple(raw[field])
    return LayoutSpec(**raw)


def spec_to_meta(spec: LayoutSpec | None) -> dict | None:
    """Inverse of :func:`meta_to_spec` (JSON-safe)."""
    if spec is None:
        return None
    return {
        "kind": spec.kind.value,
        "partitions": spec.partitions,
        "ghost_fraction": spec.ghost_fraction,
        "boundaries": list(spec.boundaries) if spec.boundaries else None,
        "ghost_allocation": (
            list(spec.ghost_allocation) if spec.ghost_allocation else None
        ),
        "merge_threshold": spec.merge_threshold,
        "merge_entries": spec.merge_entries,
        "block_values": spec.block_values,
    }


def table_from_snapshot(snapshot: LoadedSnapshot) -> Table:
    """Rebuild a table from a loaded snapshot's rows and metadata."""
    meta = snapshot.meta
    spec = meta_to_spec(meta)
    chunk_builder = layout_chunk_builder(spec) if spec is not None else None
    payload_names = meta.get("payload_names") or None
    width = len(payload_names) if payload_names else 0
    payload = snapshot.payload
    if payload.shape[1] != width:
        raise RecoveryError(
            f"snapshot payload width {payload.shape[1]} does not match "
            f"manifest payload names {payload_names!r}"
        )
    return Table(
        snapshot.keys,
        payload if width else None,
        chunk_size=int(meta["chunk_size"]),
        chunk_builder=chunk_builder,
        payload_names=payload_names,
        block_values=int(meta.get("block_values", 4096)),
    )


@dataclass
class ReplicationCursor:
    """A log tail's position in the WAL.

    ``segment`` is the file currently being tailed (``None`` before the
    first locate and after the segment vanished), ``offset`` the absolute
    byte offset of the next unapplied record, and ``scan_lsn`` the LSN of
    the last record scanned *in this segment* -- the ``previous_lsn`` seed
    that carries the monotonicity check across incremental re-scans of a
    growing file (0 at a fresh segment start, where the segment name seeds
    it instead: the first record must carry the LSN the segment is named
    for, so a recycled file's stale records are never taken for it).
    """

    segment: Path | None = None
    offset: int = 0
    scan_lsn: int = 0


@guarded_class
class LogTail:
    """A table kept current along the WAL under log directory ``root``.

    ``table`` holds the state of every record up to ``lsn``; each
    :meth:`advance` applies the records after it.  :meth:`bootstrap`
    builds one from the newest intact snapshot.  Every advance runs under
    the tail's ``replica_apply`` lock (declared *outside* the chunk
    latches in :data:`repro.discipline.LOCK_ORDER`), so a follower's poll
    thread and direct catch-up callers share one tail while read sessions
    on the table interleave under its ordinary chunk latches.
    """

    def __init__(self, root: str | Path, table: Table, lsn: int) -> None:
        self.root = Path(root)
        self.table = table
        #: LSN of the snapshot (or given state) the tail started from.
        self.base_lsn = lsn
        #: Set by :meth:`bootstrap`: the loaded snapshot's directory and
        #: manifest metadata.
        self.snapshot_path: Path | None = None
        self.meta: dict = {}
        # Moved only by advances (see GUARDED_BY), read unlocked.
        #: LSN of the last record applied to the table.
        self.applied_lsn = lsn
        #: Highest LSN the tail knows it should reach: the largest
        #: ``limit`` it was given, or else the last LSN it applied.
        self.target_lsn = lsn
        #: WAL records (commit scopes) and write operations applied.
        self.batches_applied = 0
        self.operations_applied = 0
        #: Bytes past the valid record prefix in the last segment scan --
        #: after a run to the end of the log, the live segment's torn tail
        #: (or a recycled live segment's stale bytes).
        self.torn_bytes = 0
        #: Segments the cursor moved onto.
        self.segments_scanned = 0
        self._apply_lock = discipline.make_lock("replica_apply")
        self._cursor = ReplicationCursor()

    @classmethod
    def bootstrap(cls, root: str | Path) -> "LogTail":
        """A tail at the newest intact snapshot under ``root``."""
        root = Path(root)
        snapshot = load_latest_snapshot(root / "snapshots")
        if snapshot is None:
            raise RecoveryError(f"no intact snapshot under {root / 'snapshots'}")
        tail = cls(root, table_from_snapshot(snapshot), snapshot.lsn)
        tail.snapshot_path = snapshot.path
        tail.meta = dict(snapshot.meta)
        return tail

    def raise_target(self, lsn: int) -> None:
        """Note a watermark the tail should reach without applying."""
        with self._apply_lock:
            self.target_lsn = max(self.target_lsn, lsn)

    def advance(self, limit: int | None = None) -> int:
        """Apply the log's records up to ``limit`` (``None``: every valid
        record, to the end of the log); returns the batches applied."""
        with self._apply_lock:
            if limit is not None:
                self.target_lsn = max(self.target_lsn, limit)
            batches = self._advance(limit)
            self.target_lsn = max(self.target_lsn, self.applied_lsn)
            return batches

    @requires_lock("replica_apply")
    def _advance(self, limit: int | None) -> int:
        batches = 0
        relocations = 0
        rescanned = False
        while limit is None or self.applied_lsn < limit:
            cursor = self._cursor
            if cursor.segment is None or not cursor.segment.exists():
                if relocations > 2 or not self._locate():
                    break
                relocations += 1
                cursor = self._cursor
            try:
                if cursor.segment.stat().st_size < len(MAGIC):
                    # A segment file whose magic is still in flight: only
                    # the live segment can be one.
                    if self._successor_lsn() is not None:
                        raise WalCorruptionError(
                            f"rotated segment {cursor.segment.name} ends "
                            "inside its magic"
                        )
                    break
                scan = scan_segment(
                    cursor.segment,
                    start_offset=cursor.offset,
                    previous_lsn=cursor.scan_lsn,
                )
            except FileNotFoundError:
                # Vanished between locate and scan -- checkpoint GC took it
                # (a follower's retention pin makes this rare): relocate.
                self._cursor = ReplicationCursor()
                continue
            self.torn_bytes = scan.file_bytes - scan.valid_bytes
            progressed = self._apply(scan, limit)
            batches += progressed
            successor = self._successor_lsn()
            if successor is not None and self.applied_lsn + 1 >= successor:
                # Applied through the successor's first LSN - 1: whatever
                # bytes follow (a recycled file's stale records) are not
                # this segment's.  Hand off.
                self._locate()
                continue
            if progressed:
                continue
            if successor is None:
                # The live segment: a torn tail waits for more bytes or the
                # writer's reopen truncation, a clean one is the log's end.
                break
            if scan.tail_status == "clean":
                raise RecoveryError(
                    f"WAL gap: consumed {cursor.segment.name} through lsn "
                    f"{self.applied_lsn}, the next segment starts at {successor}"
                )
            # The writer closed this segment, so its bytes are final: one
            # re-scan covers a scan that raced its last append, and a torn
            # tail that survives it is lost history.
            if not rescanned:
                rescanned = True
                continue
            raise WalCorruptionError(
                f"rotated segment {cursor.segment.name} has a "
                f"{scan.tail_status} tail mid-history (only the live "
                "segment may be torn)"
            )
        return batches

    @requires_lock("replica_apply")
    def _apply(self, scan: SegmentScan, limit: int | None) -> int:
        """Apply a scan's records up to ``limit``; advance the cursor only
        over records applied or already covered."""
        cursor = self._cursor
        batches = 0
        for (lsn, body), end in zip(scan.records, scan.ends):
            if limit is not None and lsn > limit:
                # Withheld: do NOT advance the cursor -- a primary power
                # loss may replace these exact bytes.
                break
            if lsn > self.applied_lsn:
                if lsn != self.applied_lsn + 1:
                    raise RecoveryError(
                        f"WAL gap: expected lsn {self.applied_lsn + 1}, "
                        f"found {lsn} in {cursor.segment.name}"
                    )
                for record in decode_delta_log(body).records:
                    replay = REPLAYED_AS.get(record.kind)
                    if replay is not None:  # markers mutate nothing
                        replay(record, self.table.payload_names).run(self.table)
                    self.operations_applied += record.operations
                self.applied_lsn = lsn
                self.batches_applied += 1
                batches += 1
            cursor.offset = end
            cursor.scan_lsn = lsn
        return batches

    @requires_lock("replica_apply")
    def _locate(self) -> bool:
        """Point the cursor at the segment holding ``applied + 1``: the one
        with the greatest first LSN at or below it.  No segment at all
        means none was created yet (stop); segments that all start above
        it mean the records in between are gone."""
        segments = self._segments()
        needed = self.applied_lsn + 1
        best = None
        for segment in segments:
            if segment_first_lsn(segment) > needed:
                break
            best = segment
        if best is None:
            if segments:
                raise RecoveryError(
                    f"WAL gap: records from lsn {needed} are gone (the oldest "
                    f"surviving segment starts at "
                    f"{segment_first_lsn(segments[0])})"
                )
            return False
        self._cursor = ReplicationCursor(segment=best, offset=len(MAGIC))
        self.segments_scanned += 1
        return True

    @requires_lock("replica_apply")
    def _successor_lsn(self) -> int | None:
        """First LSN of the segment after the cursor's (``None``: the
        cursor's segment is the live one)."""
        first = segment_first_lsn(self._cursor.segment)
        for segment in self._segments():
            lsn = segment_first_lsn(segment)
            if lsn > first:
                return lsn
        return None

    def _segments(self) -> list[Path]:
        return sorted((self.root / "wal").glob("wal-*.log"), key=segment_first_lsn)


def recover(root: str | Path) -> tuple[Table, RecoveryReport]:
    """Rebuild the table stored under log directory ``root``: the newest
    intact snapshot, advanced to the end of the log."""
    tail = LogTail.bootstrap(root)
    tail.advance()
    report = RecoveryReport(
        base_lsn=tail.base_lsn,
        last_lsn=tail.applied_lsn,
        batches_replayed=tail.batches_applied,
        operations_replayed=tail.operations_applied,
        truncated_bytes=tail.torn_bytes,
        snapshot_path=tail.snapshot_path,
        segments_scanned=tail.segments_scanned,
        meta=tail.meta,
    )
    return tail.table, report

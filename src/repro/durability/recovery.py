"""Recovery: latest intact snapshot + WAL replay to an oracle-equal state.

``recover(root)`` rebuilds a :class:`~repro.storage.table.Table` from a
log directory:

1. load the newest snapshot that passes CRC validation (falling back to
   older ones -- a corrupt snapshot costs replay length, not data);
2. rebuild the table from the concatenated chunk rows, using the layout
   spec recorded in the manifest (a table whose chunks a planner built
   records none and recovers under the sorted builder);
3. scan every WAL segment in LSN order, truncate a CRC-rejected torn
   tail off the *last* segment, decode each record with
   ``lsn > snapshot lsn`` into the engine's per-call log type
   (:class:`~repro.storage.access_log.CallLog`, the same records the
   live write path logged) and replay it through the table's bulk-write
   paths.

Replay is **idempotent below the watermark**: records at or below the
snapshot LSN are skipped, so replaying a prefix twice is a no-op past the
snapshot -- the property test in ``tests/durability`` pins this down.

Two documented equivalences rather than identities:

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
from typing import Sequence

import numpy as np

from ..storage.access_log import MOVE_MARKER_KINDS, CallLog
from ..storage.layouts import LayoutKind, LayoutSpec
from ..storage.table import Table, layout_chunk_builder
from .errors import RecoveryError, WalCorruptionError
from .snapshot import LoadedSnapshot, load_latest_snapshot
from .wal import decode_delta_log, scan_segment, segment_first_lsn


@dataclass(frozen=True)
class RecoveryReport:
    """What a ``recover`` call did, for logging and assertions."""

    base_lsn: int
    last_lsn: int
    batches_replayed: int
    operations_replayed: int
    truncated_bytes: int
    snapshot_path: Path
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


def apply_delta_log(table: Table, deltas: CallLog) -> int:
    """Apply one decoded call log through the bulk-write paths; returns
    the number of operations applied.  Never touches the WAL -- replay
    must not re-log what it replays.  Move-protocol markers
    (``move_intent`` / ``move_commit`` / ``move_forget``) mutate nothing:
    the delete/insert a cross-shard move performs ride as ordinary records
    in the same bodies, and the markers only matter to the sharded
    dispatcher's move-resolution scan (:mod:`repro.sharding.database`)."""
    applied = 0
    for record in deltas.records:
        if record.kind == "insert":
            table.bulk_insert(record.keys, record.payloads)
        elif record.kind == "delete":
            table.bulk_delete(record.keys)
        elif record.kind == "update":
            pairs = np.stack([record.keys, record.highs], axis=1)
            table.bulk_update(pairs)
        elif record.kind not in MOVE_MARKER_KINDS:
            raise RecoveryError(f"unreplayable delta kind {record.kind!r}")
        applied += record.operations
    return applied


def replay(
    table: Table,
    records: Sequence[tuple[int, bytes]],
    *,
    after_lsn: int,
) -> tuple[int, int, int]:
    """Replay scanned ``(lsn, body)`` records with ``lsn > after_lsn``.

    Returns ``(batches, operations, last_lsn)``.  Records at or below the
    watermark are skipped -- the idempotence contract -- and a gap above
    it raises :class:`RecoveryError` (a missing segment means lost
    history, not a torn tail).
    """
    batches = operations = 0
    last = after_lsn
    for lsn, body in records:
        if lsn <= last:
            continue
        if lsn != last + 1:
            raise RecoveryError(
                f"WAL gap: expected lsn {last + 1}, found {lsn} "
                "(a segment between them is missing or corrupt)"
            )
        operations += apply_delta_log(table, decode_delta_log(body))
        batches += 1
        last = lsn
    return batches, operations, last


def recover(root: str | Path) -> tuple[Table, RecoveryReport]:
    """Rebuild the table stored under log directory ``root``."""
    root = Path(root)
    snapshot = load_latest_snapshot(root / "snapshots")
    if snapshot is None:
        raise RecoveryError(
            f"no intact snapshot under {root / 'snapshots'}; cannot recover"
        )
    table = table_from_snapshot(snapshot)
    segments = sorted((root / "wal").glob("wal-*.log"), key=segment_first_lsn)
    batches = operations = truncated = 0
    last = snapshot.lsn
    for index, segment in enumerate(segments):
        scan = scan_segment(segment)
        if scan.torn:
            if index != len(segments) - 1:
                raise WalCorruptionError(
                    f"segment {segment.name} is corrupt mid-history "
                    "(only the final segment may have a torn tail)"
                )
            truncated = scan.file_bytes - scan.valid_bytes
        replayed, ops, last = replay(table, scan.records, after_lsn=last)
        batches += replayed
        operations += ops
    report = RecoveryReport(
        base_lsn=snapshot.lsn,
        last_lsn=last,
        batches_replayed=batches,
        operations_replayed=operations,
        truncated_bytes=truncated,
        snapshot_path=snapshot.path,
        segments_scanned=len(segments),
        meta=dict(snapshot.meta),
    )
    return table, report

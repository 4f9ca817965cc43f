"""Durability subsystem: batch-delta WAL, chunk snapshots, crash recovery.

Layered bottom-up:

* :mod:`~repro.durability.faults` -- injectable crash points, transient
  I/O errors and the :func:`retry_io` bounded-backoff helper;
* :mod:`~repro.durability.wal` -- LSN-prefixed, CRC-checksummed segments
  of encoded batch deltas with group-commit fsync and torn-tail
  truncation on open;
* :mod:`~repro.durability.snapshot` -- chunk-level snapshots (consistent
  ``Table.snapshot_chunk`` copies) over immutable payload segments,
  committed by atomic directory rename;
* :mod:`~repro.durability.manager` -- the commit lock, fsync policies,
  checkpoints, segment rotation/GC and read-only degradation;
* :mod:`~repro.durability.recovery` -- the one log reader,
  :class:`LogTail`: latest snapshot + idempotent WAL replay back to an
  oracle-equal table, run to the end of the log by :func:`recover` and
  tailed by the replication follower.

The storage engine integrates through
:meth:`StorageEngine.attach_durability`; most callers go through
``Database.from_rows(..., durability=...)`` / ``Database.open(...)``.
"""

from .errors import (
    DurabilityError,
    ReadOnlyError,
    RecoveryError,
    SnapshotCorruptionError,
    WalCorruptionError,
    WalUnavailableError,
)
from .faults import CRASH_POINTS, FaultInjector, InjectedCrash, retry_io
from .manager import FSYNC_POLICIES, DurabilityConfig, DurabilityManager
from .recovery import (
    LogTail,
    RecoveryReport,
    recover,
    spec_to_meta,
    table_from_snapshot,
)
from .snapshot import (
    LoadedSnapshot,
    SnapshotInfo,
    list_snapshots,
    load_latest_snapshot,
    load_snapshot,
    write_snapshot,
)
from .wal import (
    SegmentScan,
    WalWriter,
    decode_delta_log,
    encode_delta_log,
    scan_segment,
)

__all__ = [
    "CRASH_POINTS",
    "FSYNC_POLICIES",
    "DurabilityConfig",
    "DurabilityError",
    "DurabilityManager",
    "FaultInjector",
    "InjectedCrash",
    "LoadedSnapshot",
    "LogTail",
    "ReadOnlyError",
    "RecoveryError",
    "RecoveryReport",
    "SegmentScan",
    "SnapshotCorruptionError",
    "SnapshotInfo",
    "WalCorruptionError",
    "WalUnavailableError",
    "WalWriter",
    "decode_delta_log",
    "encode_delta_log",
    "list_snapshots",
    "load_latest_snapshot",
    "load_snapshot",
    "recover",
    "retry_io",
    "scan_segment",
    "spec_to_meta",
    "table_from_snapshot",
    "write_snapshot",
]

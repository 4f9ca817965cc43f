"""The per-call log: one record type that the workload monitor and the WAL
both read.

Every dispatch the storage engine runs records its submitted keys once, as
one :class:`LogRecord`, into the :class:`CallLog` of the call's commit scope
(:meth:`repro.storage.engine.StorageEngine.commit_scope`) -- for a session
call, the one scope :meth:`repro.api.session.Session.execute` opens around
every operation and slice its policy dispatches.  Two consumers read that
same log:

* the workload monitor (:meth:`repro.core.monitor.WorkloadMonitor.observe_batch`)
  attributes every record it has a kind for -- reads and writes, one
  vectorized pass per kind instead of one Python call per operation -- and
  skips the move-protocol markers;
* the write-ahead log (:func:`repro.durability.wal.encode_delta_log`) encodes
  the write and marker records of the log as one WAL body; reads never reach
  it.  Recovery, followers and the sharded move scan decode a body back into
  a :class:`CallLog`.

A write is therefore one record in Z-set form (insert = +1, delete = -1,
update = -1/+1 on the key column), whichever consumer reads it.

Records carry *attribution kinds*, which split updates into their two
routed sides (``update_source`` probes the full candidate-chunk span of the
old key; ``update_target`` lands in the insert route of the new key) so one
update does not inflate a single ``"update"`` count in two chunks' mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Attribution kinds in stable order; sample ring buffers store the index
#: into this tuple as a compact per-operation kind code.
ATTRIBUTION_KINDS = (
    "point_query",
    "range_count",
    "range_sum",
    "insert",
    "delete",
    "update_source",
    "update_target",
)

KIND_CODES = {kind: code for code, kind in enumerate(ATTRIBUTION_KINDS)}

#: Kind of a *paired* update record: ``keys`` carries the source keys and
#: ``highs`` the aligned target keys of a whole update run.  The monitor
#: attributes it as interleaved ``update_source``/``update_target`` entries
#: in submission order (source_i before target_i), exactly as serial
#: per-pair dispatch records them -- so bounded samples retain the same
#: window on both paths even when a run overflows the sample limit.
PAIRED_UPDATE_KIND = "update"

#: Kinds routed by the insert rule: they land in the *first* candidate chunk
#: only, so attribution must not spread over the full candidate span.
FIRST_CANDIDATE_KINDS = frozenset({"insert", "update_target"})

#: Kinds whose records carry a ``highs`` bound array (inclusive ranges).
RANGE_KINDS = frozenset({"range_count", "range_sum"})

#: Kinds the WAL stores, in stable order; the codec stores the index into
#: this tuple as a one-byte kind code, so the order is part of the on-disk
#: format -- append only, never reorder.  The ``move_*`` kinds are the
#: two-phase cross-shard move protocol markers (see
#: :mod:`repro.sharding.database`): they carry bookkeeping for recovery,
#: not table mutations -- the delete/insert the move performs ride as
#: ordinary records in the same WAL bodies.
DELTA_KINDS = (
    "insert",
    "delete",
    "update",
    "move_intent",
    "move_commit",
    "move_forget",
)

DELTA_KIND_CODES = {kind: code for code, kind in enumerate(DELTA_KINDS)}

#: Kinds that mark move-protocol state rather than table mutations.
MOVE_MARKER_KINDS = frozenset({"move_intent", "move_commit", "move_forget"})


@dataclass(frozen=True)
class LogRecord:
    """One dispatched operation run, or one move-protocol marker.

    ``keys`` holds the submitted keys of the run in submission order: the
    keys of the point kinds, the low bounds of the range kinds, the source
    keys of a paired ``"update"`` run.  ``highs`` is aligned with it: the
    inclusive high bounds of a range run, the target keys of an update run,
    ``None`` otherwise.  ``payloads`` holds an insert run's ``(n, width)``
    payload rows (zero-width when the table has no payload columns); the
    engine fills it only when a durability manager will encode it.

    The markers reuse the fields: a ``move_intent`` carries ``keys =
    [move_id, old_key, new_key]`` and the taken row as a one-row
    ``payloads``; ``move_commit`` / ``move_forget`` carry ``keys =
    [move_id]``.  Markers mutate nothing on replay and the monitor skips
    them; recovery uses them to resolve moves a crash left half-done.

    ``positions`` places the run's operations in their call when a batch
    dispatched its groups out of submission order (grouped by
    commutation): one submission position per operation, or a single one
    for a ``Multi*`` operation dispatched whole, counted from the log's
    first operation.  The monitor orders its samples by them; ``None``
    means the operations follow those of the record before, in order.
    """

    kind: str
    keys: np.ndarray
    highs: np.ndarray | None = None
    payloads: np.ndarray | None = None
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_CODES and self.kind not in DELTA_KIND_CODES:
            raise ValueError(f"unknown record kind: {self.kind!r}")

    @property
    def operations(self) -> int:
        """Number of write operations the record covers (0 for reads and
        markers)."""
        if self.kind not in DELTA_KIND_CODES or self.kind in MOVE_MARKER_KINDS:
            return 0
        return int(self.keys.shape[0])


class CallLog:
    """The records of one engine call, in dispatch order.

    The outermost commit scope of a call owns one log and every dispatch
    inside appends its record to it; the scope hands the write and marker
    records to the WAL as one record and the whole log to the monitor.  A
    batch that dispatches out of submission order sets :attr:`positions`
    before each dispatch; the next record takes them.  A call may run
    several batches into one log (a sliced session call): each batch's
    positions follow the :attr:`submitted` operations of the batches
    before it, so the monitor still sees the call in submission order.

    ``atomic`` marks the log as one all-or-nothing commit unit (an MVCC
    transaction's write set): the flag rides in the WAL body so recovery
    and followers can tell a transactional record apart from an ordinary
    batch.  Either way one WAL body replays whole or not at all (the frame
    CRC covers it), which is what makes transactional commits atomic under
    crash.  ``lsn`` is the WAL record the log was appended as, set by the
    commit scope (``None`` until then, and for a log with no write).
    """

    __slots__ = ("records", "positions", "submitted", "atomic", "lsn")

    def __init__(self, *, atomic: bool = False) -> None:
        self.records: list[LogRecord] = []
        #: Submission positions of the operations the next record covers.
        self.positions: Sequence[int] | None = None
        #: Operations the log's batches submitted so far: a later batch's
        #: positions start here.
        self.submitted = 0
        self.atomic = bool(atomic)
        self.lsn: int | None = None

    @property
    def operations(self) -> int:
        """Total write operations covered by the buffered records."""
        return sum(record.operations for record in self.records)

    def record(
        self,
        kind: str,
        keys: np.ndarray | Sequence[int],
        highs: np.ndarray | Sequence[int] | None = None,
        payloads: np.ndarray | Sequence[Sequence[int]] | None = None,
    ) -> None:
        """Append one record, coercing its arrays to ``int64`` (``payloads``
        holds one row per key)."""
        keys = np.asarray(keys, dtype=np.int64)
        if highs is not None:
            highs = np.asarray(highs, dtype=np.int64)
            if highs.shape != keys.shape:
                raise ValueError("highs must be aligned with keys")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64)
        positions, self.positions = self.positions, None
        if positions is not None:
            positions = np.asarray(positions, dtype=np.int64)
        self.records.append(LogRecord(kind, keys, highs, payloads, positions))

    def record_move_intent(
        self,
        move_id: int,
        old_key: int,
        new_key: int,
        payload: np.ndarray | Sequence[int] | None,
    ) -> None:
        """Append a cross-shard move intent (source shard, before the ack).

        Carries everything recovery needs to re-drive the insert half of
        the move: the taken row's payload and the target key.
        """
        row = np.asarray(
            payload if payload is not None else (), dtype=np.int64
        ).reshape(1, -1)
        self.records.append(
            LogRecord(
                "move_intent",
                np.asarray([move_id, old_key, new_key], dtype=np.int64),
                payloads=row,
            )
        )

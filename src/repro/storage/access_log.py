"""Compact per-batch access records: the engine -> monitor observation pipe.

Attaching a :class:`~repro.core.monitor.WorkloadMonitor` used to tax exactly
the hot path the batch executor vectorizes: every element of a ``Multi*``
dispatch made one per-key Python ``observe`` call (a binary search against
the chunk fences plus a loop over the chunk span).  The engine now appends
one :class:`AccessRecord` per dispatch -- the operation kind and the key (or
range-bound) arrays -- to an :class:`AccessLog`, and the monitor ingests the
whole log with one vectorized attribution pass per kind
(:meth:`WorkloadMonitor.observe_batch`).  The log is the only way in: a
serial dispatch outside a batch hands over a log of one record.

Records carry *attribution kinds*, which split updates into their two
routed sides (``update_source`` probes the full candidate-chunk span of the
old key; ``update_target`` lands in the insert route of the new key) so one
update no longer inflates a single ``"update"`` count in two chunks' mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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

#: Pseudo-kind for a *paired* update record: ``lows`` carries the source
#: keys and ``highs`` the aligned target keys of a whole update run.  The
#: monitor attributes it as interleaved ``update_source``/``update_target``
#: entries in submission order (source_i before target_i), exactly as
#: serial per-pair dispatch records them -- so bounded samples retain the
#: same window on both paths even when a run overflows the sample limit.
PAIRED_UPDATE_KIND = "update"

#: Kinds routed by the insert rule: they land in the *first* candidate chunk
#: only, so attribution must not spread over the full candidate span.
FIRST_CANDIDATE_KINDS = frozenset({"insert", "update_target"})

#: Kinds whose records carry a ``highs`` bound array (inclusive ranges).
RANGE_KINDS = frozenset({"range_count", "range_sum"})


@dataclass(frozen=True)
class AccessRecord:
    """One dispatched operation run, in attribution-ready form.

    ``lows`` holds the keys (point kinds) or the low bounds (range kinds) of
    every operation in the run, in submission order; ``highs`` is the
    aligned high-bound array for range kinds and ``None`` otherwise.
    Whether the run lands in the first candidate chunk only (the table's
    insert routing rule) follows from its kind
    (:data:`FIRST_CANDIDATE_KINDS`).  ``positions`` places the run's
    operations in their batch when the batch dispatched its groups out of
    submission order (grouped by commutation): one submission position per
    operation, or a single one for a ``Multi*`` operation dispatched whole.
    The monitor orders its samples by them; ``None`` means the operations
    follow those of the record before, in order.
    """

    kind: str
    lows: np.ndarray
    highs: np.ndarray | None = None
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_CODES and self.kind != PAIRED_UPDATE_KIND:
            raise ValueError(f"unknown attribution kind: {self.kind!r}")


class AccessLog:
    """An append-only buffer of :class:`AccessRecord` entries.

    The storage engine keeps one log per ``execute_batch`` call (and a
    throwaway single-record log per serial dispatch), appending one record
    per dispatched run instead of one monitor call per operation; the
    monitor drains the log in one vectorized pass per kind.  A batch that
    dispatches out of submission order sets :attr:`positions` before each
    dispatch; the next record takes them.
    """

    __slots__ = ("records", "positions")

    def __init__(self) -> None:
        self.records: list[AccessRecord] = []
        #: Submission positions of the operations the next record covers.
        self.positions: Sequence[int] | None = None

    def record(
        self,
        kind: str,
        lows: np.ndarray | Sequence[int],
        highs: np.ndarray | Sequence[int] | None = None,
    ) -> None:
        """Append one record, coercing the bound arrays to ``int64``."""
        lows = np.asarray(lows, dtype=np.int64)
        if highs is not None:
            highs = np.asarray(highs, dtype=np.int64)
            if highs.shape != lows.shape:
                raise ValueError("highs must be aligned with lows")
        positions, self.positions = self.positions, None
        if positions is not None:
            positions = np.asarray(positions, dtype=np.int64)
        self.records.append(
            AccessRecord(kind=kind, lows=lows, highs=highs, positions=positions)
        )


# --------------------------------------------------------------------- #
# Write deltas: the WAL's record source
# --------------------------------------------------------------------- #

#: Delta kinds in stable order; the WAL codec stores the index into this
#: tuple as a one-byte kind code, so the order is part of the on-disk
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
class DeltaRecord:
    """One applied write run in Z-set form (insert = +1, delete = -1,
    update = -1/+1 on the key column).

    ``keys`` holds the submitted keys of the run in submission order
    (the *old* keys for an update run); ``payloads`` is the aligned
    ``(n, width)`` payload-row array for inserts (zero-width when the table
    has no payload columns) and ``None`` otherwise; ``new_keys`` is the
    aligned target-key array for updates and ``None`` otherwise.  Replaying
    the records of a batch in order through the table's bulk-write paths
    reproduces the batch's logical effect.

    The move-protocol markers reuse the fields: a ``move_intent`` carries
    ``keys = [move_id, old_key, new_key]`` plus the taken row's payload as
    a one-row ``payloads`` array; ``move_commit`` / ``move_forget`` carry
    ``keys = [move_id]``.  Markers mutate nothing on replay (their
    :attr:`operations` count is 0); recovery uses them to resolve moves a
    crash left half-done.
    """

    kind: str
    keys: np.ndarray
    payloads: np.ndarray | None = None
    new_keys: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KIND_CODES:
            raise ValueError(f"unknown delta kind: {self.kind!r}")

    @property
    def operations(self) -> int:
        """Number of write operations the record covers."""
        if self.kind in MOVE_MARKER_KINDS:
            return 0
        return int(self.keys.shape[0])


class DeltaLog:
    """An append-only buffer of :class:`DeltaRecord` entries.

    The engine keeps one log per durable commit scope (an ``execute_batch``
    call, or one serial write), appending one record per *applied* write
    run -- records are added after the table mutation succeeds, so the log
    always describes exactly what the in-memory state absorbed, even when a
    batch dies part-way through.  The durability manager encodes the whole
    log as one checksummed WAL record.

    ``atomic`` marks the log as one all-or-nothing commit unit (an MVCC
    transaction's write set): the flag rides in the WAL body so recovery
    and followers can tell a transactional record apart from an ordinary
    batch.  Either way one WAL body replays whole or not at all (the frame
    CRC covers it), which is what makes transactional commits atomic under
    crash.  ``lsn`` is the WAL record the log was appended as, set by the
    commit scope (``None`` until then, and for a log that stayed empty).
    """

    __slots__ = ("records", "atomic", "lsn")

    def __init__(self, *, atomic: bool = False) -> None:
        self.records: list[DeltaRecord] = []
        self.atomic = bool(atomic)
        self.lsn: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DeltaRecord]:
        return iter(self.records)

    @property
    def operations(self) -> int:
        """Total write operations covered by the buffered records."""
        return sum(record.operations for record in self.records)

    def record_insert(
        self,
        keys: np.ndarray | Sequence[int],
        payloads: np.ndarray | Sequence[Sequence[int]],
    ) -> None:
        """Append an applied insert run with its payload rows."""
        keys = np.asarray(keys, dtype=np.int64)
        rows = np.asarray(payloads, dtype=np.int64).reshape(keys.shape[0], -1)
        self.records.append(DeltaRecord(kind="insert", keys=keys, payloads=rows))

    def record_delete(self, keys: np.ndarray | Sequence[int]) -> None:
        """Append an applied delete run (submitted keys, hits and misses)."""
        self.records.append(
            DeltaRecord(kind="delete", keys=np.asarray(keys, dtype=np.int64))
        )

    def record_update(
        self, pairs: np.ndarray | Sequence[tuple[int, int]]
    ) -> None:
        """Append an applied ``old_key -> new_key`` update run."""
        pairs_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.records.append(
            DeltaRecord(
                kind="update",
                keys=pairs_arr[:, 0].copy(),
                new_keys=pairs_arr[:, 1].copy(),
            )
        )

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
            DeltaRecord(
                kind="move_intent",
                keys=np.asarray([move_id, old_key, new_key], dtype=np.int64),
                payloads=row,
            )
        )

    def record_move_commit(self, move_id: int) -> None:
        """Append the target shard's applied-the-insert marker."""
        self.records.append(
            DeltaRecord(
                kind="move_commit", keys=np.asarray([move_id], dtype=np.int64)
            )
        )

    def record_move_forget(self, move_id: int) -> None:
        """Append the source shard's move-resolved marker."""
        self.records.append(
            DeltaRecord(
                kind="move_forget", keys=np.asarray([move_id], dtype=np.int64)
            )
        )

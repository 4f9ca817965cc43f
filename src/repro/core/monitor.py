"""Online workload monitor: close the Fig. 10 A->C loop at runtime.

The paper's architecture learns a Frequency Model from an *offline* workload
sample, optimizes per-chunk layouts and applies them.  Production systems see
workloads drift, so the reproduction adds the online counterpart: a
:class:`WorkloadMonitor` attached to a
:class:`~repro.storage.engine.StorageEngine` records the per-chunk operation
mix as operations execute -- a kind-by-chunk count matrix plus one bounded
:class:`RecentSample` per chunk -- and hands a drifted chunk's recorded
window back, as the ``(code, low, high)`` columns it is kept in, for a
:class:`~repro.core.planner.CasperPlanner` to replan the chunk from (the
loop itself is driven by :class:`~repro.api.reorganizer.Reorganizer`).  No
operation object is built on the way: the Frequency Model is a function of
those three columns.

Observation is *batch-native* and has one way in: the monitor reads the
same per-call log the WAL encodes.  The engine records one
:class:`~repro.storage.access_log.LogRecord` per dispatched run (kind,
key/bound arrays) into the call's
:class:`~repro.storage.access_log.CallLog`, and when the call's scope closes
:meth:`observe_batch` gathers the log's records by kind -- skipping the
cross-shard move markers, which are WAL bookkeeping -- and attributes each
kind's whole key array with a single ``searchsorted`` pass against the
table's chunk fences, bulk-updating the count matrix (one ``np.bincount``
per kind) and, once per log, the bounded ring-buffer samples in
*submission* order (records carry their operations' batch positions when
the engine dispatched groups out of order) -- no per-operation Python on
the hot path, and no simulated accesses charged (monitoring is bookkeeping,
not storage work).  A dispatch outside a batch, the per-operation
:meth:`observe` and the offline :meth:`observe_workload` seeding all hand
:meth:`observe_batch` a log (of one record, for the first two), so engine
dispatch and baseline seeding cannot drift apart.

Updates are attributed as two distinct kinds: ``update_source`` (the old
key's full candidate-chunk span) and ``update_target`` (the new key's
insert route).  A single update therefore contributes one count to each
side's kind instead of inflating a shared ``"update"`` fraction in both
chunks' mixes.
"""

from __future__ import annotations

import numpy as np

from repro import discipline
from repro.discipline import guarded_class, requires_lock

from ..storage.access_log import (
    ATTRIBUTION_KINDS,
    FIRST_CANDIDATE_KINDS,
    KIND_CODES,
    MOVE_MARKER_KINDS,
    PAIRED_UPDATE_KIND,
    RANGE_KINDS,
    CallLog,
)
from ..storage.column import expand_ranges
from .frequency_model import SampleColumns

#: Default bound on the per-chunk operation sample retained for replans.
DEFAULT_SAMPLE_LIMIT = 4_096

#: Sample sequence numbers per submission position: room for every element
#: of a ``Multi*`` operation dispatched whole (one position, many entries).
_SLOT = 1 << 32

_SOURCE_CODE = KIND_CODES["update_source"]
_TARGET_CODE = KIND_CODES["update_target"]
_FIRST_CANDIDATE_CODES = frozenset(KIND_CODES[kind] for kind in FIRST_CANDIDATE_KINDS)


def _kind_order(kind: str) -> tuple[int, str]:
    return KIND_CODES.get(kind, len(KIND_CODES)), kind


def mix_distance(a: dict[str, float], b: dict[str, float]) -> float:
    """Total-variation distance between two operation-mix dictionaries.

    Both arguments map operation kinds to fractions (as returned by
    :meth:`WorkloadMonitor.chunk_mix`); missing kinds count as zero.  The
    result lies in ``[0, 1]``: 0 for identical mixes, 1 for disjoint ones.
    This is the drift metric the session reorganization policy thresholds.
    Terms are added in :data:`ATTRIBUTION_KINDS` order (any other key
    sorted after), so the float result is a pure function of the two
    mixes -- not of the process's string-hash seed.
    """
    kinds = sorted(a.keys() | b.keys(), key=_kind_order)
    return 0.5 * sum(abs(a.get(kind, 0.0) - b.get(kind, 0.0)) for kind in kinds)


class RecentSample:
    """Bounded sliding window over the most recent attributed operations.

    Semantically a ``deque(maxlen=limit)`` of operations, stored columnar --
    ring buffers of kind codes and key bounds -- so the batched observation
    path appends whole arrays, and :meth:`columns` hands the window to a
    replan, without materializing operation objects.
    """

    __slots__ = ("limit", "_codes", "_lows", "_highs", "_size", "_cursor")

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("sample limit must be non-negative")
        self.limit = int(limit)
        self._codes = np.empty(self.limit, dtype=np.int8)
        self._lows = np.empty(self.limit, dtype=np.int64)
        self._highs = np.empty(self.limit, dtype=np.int64)
        self._size = 0
        self._cursor = 0

    def extend(self, codes: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> None:
        """Append ``lows.size`` operations (aligned kind-code, low and high
        arrays, oldest first), evicting the oldest retained ones."""
        limit = self.limit
        count = int(lows.shape[0])
        if limit == 0 or count == 0:
            return
        cursor = self._cursor
        end = cursor + count
        if end <= limit:
            # Contiguous write: plain slice assignment, no index arrays.
            self._codes[cursor:end] = codes
            self._lows[cursor:end] = lows
            self._highs[cursor:end] = highs
        elif count >= limit:
            # The whole window is replaced by the run's most recent entries.
            self._codes[:] = codes[count - limit :]
            self._lows[:] = lows[count - limit :]
            self._highs[:] = highs[count - limit :]
            end = 0
        else:
            head = limit - cursor
            for ring, values in (
                (self._codes, codes), (self._lows, lows), (self._highs, highs)
            ):
                ring[cursor:] = values[:head]
                ring[: count - head] = values[head:]
        self._cursor = end % limit
        self._size = min(self._size + count, limit)

    def columns(self) -> SampleColumns:
        """The retained window as columns, oldest first (copies)."""
        # A window that is not full yet starts at slot 0 with the cursor at
        # its end; a full one starts at the cursor.  One rotation does both.
        return SampleColumns(
            *(
                np.roll(column[: self._size], -self._cursor)
                for column in (self._codes, self._lows, self._highs)
            )
        )


@guarded_class
class WorkloadMonitor:
    """Records per-chunk operation mixes and replan samples.

    Parameters
    ----------
    sample_limit:
        Maximum number of operations retained per chunk as the replan
        workload sample.  The sample is a sliding window of the *most
        recent* operations, so a replan reflects the drifted mix rather
        than startup traffic; counts keep accumulating beyond the limit.
        Pass 0 to disable sampling entirely (drift counts only), which
        also skips the per-chunk grouping work on the batched ingest path.
    """

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        if sample_limit < 0:
            raise ValueError("sample_limit must be non-negative")
        self.sample_limit = int(sample_limit)
        # Operation counts, kind code x chunk index; widened to the table's
        # chunk count on first sight (``_counts_for``).
        self._counts = np.zeros((len(ATTRIBUTION_KINDS), 0), dtype=np.int64)
        self._samples: dict[int, RecentSample] = {}
        # Concurrent sessions flush their per-call logs against one
        # monitor; the re-entrant ingest lock serializes whole-record
        # ingestion, so count updates never lose a racing increment and a
        # ring-buffer window is only ever extended by one record at a time
        # -- which is what preserves the paired-update source_i/target_i
        # interleave (and every record's submission order) even when two
        # flushes truncate the same window concurrently.  Introspection
        # snapshots (counts, mixes, recorded windows) take the same lock so
        # a reorganization decision never reads a half-ingested record.
        self._lock = discipline.make_rlock("monitor")

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    @requires_lock("monitor")
    def _counts_for(self, table) -> np.ndarray:
        """The count matrix, at least ``table.num_chunks`` columns wide."""
        missing = table.num_chunks - self._counts.shape[1]
        if missing > 0:
            self._counts = np.pad(self._counts, ((0, 0), (0, missing)))
        return self._counts

    @requires_lock("monitor")
    def _sample_for(self, chunk_index: int) -> RecentSample:
        sample = self._samples.get(chunk_index)
        if sample is None:
            sample = self._samples[chunk_index] = RecentSample(self.sample_limit)
        return sample

    def observe_batch(self, table, log: CallLog) -> None:
        """Attribute every record of ``log``, one vectorized pass per kind.

        The records' keys are gathered by kind code (a paired update record
        is its sources and its targets; move markers are skipped) and each
        kind attributed once
        (:meth:`_attribute`): attribution is a function of the kind, the
        bounds and the sample sequence number of each operation, not of the
        record that carried it.

        Bounded samples are extended once per log, every chunk's entries in
        *submission* order, exactly as per-operation appends would retain
        them: a record that carries ``positions`` (a batch dispatched its
        groups out of submission order) is placed by them, a record that
        does not follows the records before it.
        """
        gathered: dict[int, list[tuple]] = {}
        following = 0
        for record in log.records:
            lows = record.keys
            size = int(lows.shape[0])
            if size == 0 or record.kind in MOVE_MARKER_KINDS:
                continue
            if record.positions is None:
                sequence = np.arange(following, following + size, dtype=np.int64)
                sequence *= _SLOT
                following += size
            else:
                sequence = record.positions * _SLOT
                if sequence.shape[0] != size:
                    # One position for a ``Multi*`` operation dispatched whole.
                    sequence = np.repeat(sequence, size)
            if record.kind == PAIRED_UPDATE_KIND:
                # source_i before target_i (``2i`` and ``2i + 1`` within
                # their positions' slots), exactly as per-pair serial
                # dispatch appends them, so the bounded window is
                # identical on both paths even under truncation.
                sequence = sequence + 2 * np.arange(size, dtype=np.int64)
                gathered.setdefault(_SOURCE_CODE, []).append((lows, None, sequence))
                gathered.setdefault(_TARGET_CODE, []).append(
                    (record.highs, None, sequence + 1)
                )
                continue
            highs = None
            if record.kind in RANGE_KINDS:
                highs = lows if record.highs is None else record.highs
            gathered.setdefault(KIND_CODES[record.kind], []).append(
                (lows, highs, sequence)
            )
        if not gathered:
            return
        with self._lock:
            counts = self._counts_for(table)
            # Sample entries as (chunks, sequence, codes, lows, highs) columns.
            entries: list[tuple] | None = [] if self.sample_limit else None
            for code, parts in gathered.items():
                if len(parts) == 1:
                    ((lows, highs, sequence),) = parts
                else:
                    lows, highs, sequence = (
                        None if column[0] is None else np.concatenate(column)
                        for column in zip(*parts, strict=True)
                    )
                self._attribute(table, code, lows, highs, sequence, counts, entries)
            if entries:
                self._extend_samples(entries)

    @requires_lock("monitor")
    def _extend_samples(self, entries: list[tuple]) -> None:
        """Hand one log's sample entries to the per-chunk windows, each
        chunk's in sequence order (the stable sort keeps ties as ingested)."""
        chunks, sequence, codes, lows, highs = (
            np.concatenate(column) for column in zip(*entries, strict=True)
        )
        sel = np.lexsort((sequence, chunks))
        codes, lows, highs = codes[sel], lows[sel], highs[sel]
        sizes = np.bincount(chunks)
        ends = np.cumsum(sizes).tolist()
        for chunk_id in np.flatnonzero(sizes).tolist():
            group = slice(ends[chunk_id] - sizes[chunk_id], ends[chunk_id])
            self._sample_for(chunk_id).extend(
                codes[group], lows[group], highs[group]
            )

    @requires_lock("monitor")
    def _attribute(
        self,
        table,
        code: int,
        lows: np.ndarray,
        highs: np.ndarray | None,
        sequence: np.ndarray,
        counts: np.ndarray,
        entries: list | None,
    ) -> None:
        """The one attribution routine: count ``lows.size`` operations of
        kind ``code`` in every chunk of their spans and queue their sample
        entries at ``sequence``.

        Keys route through one ``searchsorted`` against the chunk fences
        (:meth:`Table.chunk_span_batch`, which charges no accesses): the
        range kinds span the chunks of ``[lows, highs]``, the point kinds
        (``highs`` is ``None``) the full candidate span of their key, and
        the insert-routed kinds the first candidate only.
        """
        first, last = table.chunk_span_batch(lows, highs)
        if highs is None:
            highs = lows
        if code in _FIRST_CANDIDATE_CODES:
            last = first
        spans = last - first + 1
        if int(spans.max()) == 1:
            chunks = first
        else:
            expanded = np.repeat(np.arange(lows.shape[0], dtype=np.int64), spans)
            chunks = expand_ranges(first, spans)
            sequence, lows, highs = sequence[expanded], lows[expanded], highs[expanded]
        counts[code] += np.bincount(chunks, minlength=counts.shape[1])
        if entries is not None:
            entries.append(
                (chunks, sequence, np.full(chunks.shape[0], code), lows, highs)
            )

    def observe(self, table, kind: str, low: int, high: int | None = None) -> None:
        """Attribute one operation to the chunk span it touches: a log of
        one record through :meth:`observe_batch` (``high`` is the inclusive
        bound of a range kind, and ignored otherwise)."""
        if kind not in KIND_CODES:
            raise ValueError(f"unknown attribution kind: {kind!r}")
        log = CallLog()
        log.record(kind, (low,), None if high is None else (high,))
        self.observe_batch(table, log)

    def observe_workload(self, table, workload) -> None:
        """Attribute every operation of ``workload`` as the engine would.

        Records each operation's own attribution
        (:mod:`repro.workload.operations`) -- the record the engine's
        dispatch methods append for it, ``Multi*`` batch forms and
        paired updates included -- and ingests the log through
        :meth:`observe_batch`.  Useful for seeding baseline
        chunk mixes from an offline training sample without executing it.
        """
        log = CallLog()
        for operation in workload:
            log.record(*operation.attribution())
        self.observe_batch(table, log)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def observed_chunks(self) -> list[int]:
        """Chunk indices with any recorded activity, ascending."""
        with self._lock:
            return np.flatnonzero(self._counts.any(axis=0)).tolist()

    def operation_counts(self, chunk_index: int) -> dict[str, int]:
        """Raw per-kind operation counts for one chunk."""
        with self._lock:
            if not 0 <= chunk_index < self._counts.shape[1]:
                return {}
            column = self._counts[:, chunk_index].tolist()
        return {
            kind: count
            for kind, count in zip(ATTRIBUTION_KINDS, column, strict=True)
            if count
        }

    def chunk_mix(self, chunk_index: int) -> dict[str, float]:
        """Operation-mix fractions for one chunk (empty when unobserved)."""
        counts = self.operation_counts(chunk_index)
        total = sum(counts.values())
        return {kind: count / total for kind, count in counts.items()}

    def hot_chunks(self, top: int | None = None) -> list[int]:
        """Chunk indices ordered by recorded operation volume, hottest first."""
        with self._lock:
            totals = self._counts.sum(axis=0)
        ranked = [
            chunk
            for chunk in np.argsort(-totals, kind="stable").tolist()
            if totals[chunk]
        ]
        return ranked[:top] if top is not None else ranked

    def recorded_sample(self, chunk_index: int) -> SampleColumns:
        """One chunk's retained window as ordered columns, oldest first."""
        with self._lock:
            sample = self._samples.get(chunk_index)
            if sample is None:
                sample = RecentSample(0)
            return sample.columns()

    def reset_chunk(self, chunk_index: int) -> None:
        """Forget one chunk's recorded activity (after a replan)."""
        with self._lock:
            if 0 <= chunk_index < self._counts.shape[1]:
                self._counts[:, chunk_index] = 0
            self._samples.pop(chunk_index, None)

    def reset(self) -> None:
        """Forget all recorded activity."""
        with self._lock:
            self._counts[:] = 0
            self._samples.clear()

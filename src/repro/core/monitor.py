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

Observation is *batch-native*: the engine appends one compact
:class:`~repro.storage.access_log.AccessRecord` per dispatched run (kind,
key/bound arrays, write-target flag) and :meth:`observe_batch` attributes
each record's whole key array with a single ``searchsorted`` pass against
the table's chunk fences, bulk-updating the count matrix (one
``np.bincount`` per record) and, once per log, the bounded ring-buffer
samples in *submission* order (records carry their operations'
batch positions when the engine dispatched groups out of order) -- no
per-operation Python on the hot path, and no simulated accesses charged
(monitoring is bookkeeping, not storage work).  The per-operation
:meth:`observe` and the offline :meth:`observe_workload` seeding are thin
wrappers over the same attribution routine, so engine dispatch and baseline
seeding cannot drift apart.

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
    PAIRED_UPDATE_KIND,
    RANGE_KINDS,
    AccessLog,
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

    def append(self, code: int, low: int, high: int) -> None:
        """Append one operation (the scalar fast path's entry point)."""
        limit = self.limit
        if limit == 0:
            return
        cursor = self._cursor
        self._codes[cursor] = code
        self._lows[cursor] = low
        self._highs[cursor] = high
        self._cursor = (cursor + 1) % limit
        if self._size < limit:
            self._size += 1

    def extend(
        self,
        code: int | np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray | None = None,
    ) -> None:
        """Append ``lows.size`` operations, oldest evicted first.

        ``code`` is a single kind code, or an aligned code array for runs
        that mix kinds (paired update records interleave source and target
        entries).
        """
        limit = self.limit
        count = int(lows.shape[0])
        if limit == 0 or count == 0:
            return
        if highs is None:
            highs = lows
        scalar_code = not isinstance(code, np.ndarray)
        if count >= limit:
            # The whole window is replaced by the run's most recent entries.
            self._codes[:] = code if scalar_code else code[count - limit :]
            self._lows[:] = lows[count - limit :]
            self._highs[:] = highs[count - limit :]
            self._size = limit
            self._cursor = 0
            return
        cursor = self._cursor
        end = cursor + count
        if end <= limit:
            # Contiguous write: plain slice assignment, no index arrays.
            self._codes[cursor:end] = code
            self._lows[cursor:end] = lows
            self._highs[cursor:end] = highs
        else:
            head = limit - cursor
            self._codes[cursor:] = code if scalar_code else code[:head]
            self._lows[cursor:] = lows[:head]
            self._highs[cursor:] = highs[:head]
            tail = count - head
            self._codes[:tail] = code if scalar_code else code[head:]
            self._lows[:tail] = lows[head:]
            self._highs[:tail] = highs[head:]
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
        # Concurrent sessions flush their per-batch access logs against one
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

    def observe_batch(self, table, log: AccessLog) -> None:
        """Attribute every record of ``log`` in one vectorized pass each.

        Point-kind keys route through one ``searchsorted`` against the
        chunk fences (:meth:`Table.chunk_span_batch`, which charges no
        accesses); reads, deletes and update sources are attributed to the
        full candidate-chunk span, while write-target records (inserts,
        update targets) land in the first candidate chunk only.  A paired
        update record is two such passes: its sources, then its targets.

        Bounded samples are extended once per log, every chunk's entries in
        *submission* order, exactly as per-operation appends would retain
        them: a record that carries ``positions`` (a batch dispatched its
        groups out of submission order) is placed by them, a record that
        does not follows the records before it.
        """
        records = log.records if isinstance(log, AccessLog) else list(log)
        if not records:
            return
        with self._lock:
            counts = self._counts_for(table)
            # Sample entries as (chunks, sequence, codes, lows, highs)
            # columns; single-operation records share one row list.
            entries: list[tuple] | None = [] if self.sample_limit else None
            rows: list[tuple] | None = [] if self.sample_limit else None
            following = 0
            for record in records:
                size = int(record.lows.shape[0])
                if size == 0:
                    continue
                positions = record.positions
                if positions is None:
                    first, following = following, following + size
                if size == 1:
                    # Scalar fast path: the vectorized machinery's fixed
                    # per-record overhead (span arrays, ``bincount``) would
                    # dominate a single operation.
                    order = first if positions is None else int(positions[0])
                    self._ingest_scalar(
                        table,
                        record.kind,
                        int(record.lows[0]),
                        None if record.highs is None else int(record.highs[0]),
                        record.write_target,
                        order * _SLOT,
                        rows,
                    )
                    continue
                if positions is None:
                    sequence = np.arange(first, following, dtype=np.int64) * _SLOT
                else:
                    sequence = np.broadcast_to(positions * _SLOT, (size,))
                if record.kind == PAIRED_UPDATE_KIND:
                    # source_i before target_i (``2i`` and ``2i + 1`` within
                    # their positions' slots), exactly as per-pair serial
                    # dispatch appends them, so the bounded window is
                    # identical on both paths even under truncation.
                    sequence = sequence + 2 * np.arange(size, dtype=np.int64)
                    self._attribute(
                        table, _SOURCE_CODE, record.lows, None, False,
                        sequence, counts, entries,
                    )
                    self._attribute(
                        table, _TARGET_CODE, record.highs, None, True,
                        sequence + 1, counts, entries,
                    )
                else:
                    highs = None
                    if record.kind in RANGE_KINDS:
                        highs = record.lows if record.highs is None else record.highs
                    self._attribute(
                        table, KIND_CODES[record.kind], record.lows, highs,
                        record.write_target, sequence, counts, entries,
                    )
            if rows:
                entries.append(tuple(np.array(rows, dtype=np.int64).T))
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
        first_only: bool,
        sequence: np.ndarray,
        counts: np.ndarray,
        entries: list | None,
    ) -> None:
        """The one vectorized attribution routine: count ``lows.size``
        operations of kind ``code`` in every chunk of their spans (ranges
        when ``highs`` is given; the first candidate only for
        ``first_only``) and queue their sample entries at ``sequence``."""
        first, last = table.chunk_span_batch(lows, highs)
        if highs is None:
            highs = lows
        if first_only:
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

    @requires_lock("monitor")
    def _attribute_scalar(
        self,
        table,
        code: int,
        low: int,
        high: int | None,
        first_only: bool,
        sequence: int,
        rows: list | None,
    ) -> None:
        """:meth:`_attribute` for one operation.  Its sample entry goes to
        ``rows`` (a log being ingested: placed at ``sequence`` when the log
        is done) or, without one, straight into the windows."""
        first, last = table.chunk_span(low, high)
        if high is None:
            high = low
        if first_only:
            last = first
        for chunk_index in range(first, last + 1):
            self._counts[code, chunk_index] += 1
            if rows is not None:
                rows.append((chunk_index, sequence, code, low, high))
            elif self.sample_limit:
                self._sample_for(chunk_index).append(code, low, high)

    @requires_lock("monitor")
    def _ingest_scalar(
        self,
        table,
        kind: str,
        low: int,
        high: int | None,
        first_only: bool,
        sequence: int = 0,
        rows: list | None = None,
    ) -> None:
        """Single-operation attribution without the vectorized machinery
        (``high`` is the target key of a paired update, the inclusive bound
        of a range kind, and ignored otherwise)."""
        if kind == PAIRED_UPDATE_KIND:
            self._attribute_scalar(
                table, _SOURCE_CODE, low, None, False, sequence, rows
            )
            self._attribute_scalar(
                table, _TARGET_CODE, high, None, True, sequence + 1, rows
            )
        elif kind in RANGE_KINDS:
            self._attribute_scalar(
                table, KIND_CODES[kind], low, low if high is None else high,
                False, sequence, rows,
            )
        else:
            self._attribute_scalar(
                table, KIND_CODES[kind], low, None, first_only, sequence, rows
            )

    def observe(
        self,
        table,
        kind: str,
        low: int,
        high: int | None = None,
        *,
        write_target: bool = False,
    ) -> None:
        """Attribute one operation to the chunk span it touches.

        The scalar entry point of the same attribution routine
        :meth:`observe_batch` vectorizes (single-op records take this path
        too), so the per-operation and batched paths cannot drift apart.
        """
        if kind not in KIND_CODES:
            raise ValueError(f"unknown attribution kind: {kind!r}")
        with self._lock:
            self._counts_for(table)
            self._ingest_scalar(
                table,
                kind,
                int(low),
                None if high is None else int(high),
                write_target or kind in FIRST_CANDIDATE_KINDS,
            )

    def observe_workload(self, table, workload) -> None:
        """Attribute every operation of ``workload`` as the engine would.

        Records each operation's own attribution
        (:mod:`repro.workload.operations`) -- the access record the
        engine's dispatch methods append for it, ``Multi*`` batch forms and
        paired updates included -- and ingests the log through
        :meth:`observe_batch`.  Useful for seeding baseline
        chunk mixes from an offline training sample without executing it.
        """
        log = AccessLog()
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

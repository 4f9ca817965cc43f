"""Online workload monitor: close the Fig. 10 A->C loop at runtime.

The paper's architecture learns a Frequency Model from an *offline* workload
sample, optimizes per-chunk layouts and applies them.  Production systems see
workloads drift, so the reproduction adds the online counterpart: a
:class:`WorkloadMonitor` attached to a
:class:`~repro.storage.engine.StorageEngine` records the per-chunk operation
mix as operations execute and can re-lay-out a drifted chunk in place via
:meth:`replan_chunk`, feeding the recorded operations back through a
:class:`~repro.core.planner.CasperPlanner` as the fresh workload sample.

Observation is *batch-native*: the engine appends one compact
:class:`~repro.storage.access_log.AccessRecord` per dispatched run (kind,
key/bound arrays, write-target flag) and :meth:`observe_batch` attributes
each record's whole key array with a single ``searchsorted`` pass against
the table's chunk fences, bulk-updating per-chunk counts (``np.bincount``
into a kind-by-chunk count matrix) and, once per log, the bounded
ring-buffer samples in *submission* order (records carry their operations'
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

from dataclasses import dataclass, field
from typing import Iterator

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
    AccessRecord,
)
from ..storage.column import expand_ranges
from ..workload.operations import (
    Aggregate,
    Delete,
    Insert,
    Operation,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)

#: Default bound on the per-chunk operation sample retained for replans.
DEFAULT_SAMPLE_LIMIT = 4_096

#: Sample sequence numbers per submission position: room for every element
#: of a ``Multi*`` operation dispatched whole (one position, many entries).
_SLOT = 1 << 32

_SOURCE_CODE = KIND_CODES["update_source"]
_TARGET_CODE = KIND_CODES["update_target"]


def mix_distance(a: dict[str, float], b: dict[str, float]) -> float:
    """Total-variation distance between two operation-mix dictionaries.

    Both arguments map operation kinds to fractions (as returned by
    :meth:`ChunkActivity.mix`); missing kinds count as zero.  The result lies
    in ``[0, 1]``: 0 for identical mixes, 1 for disjoint ones.  This is the
    drift metric the session reorganization policy thresholds.
    """
    kinds = set(a) | set(b)
    return 0.5 * sum(abs(a.get(kind, 0.0) - b.get(kind, 0.0)) for kind in kinds)


def synthesize_operation(kind: str, low: int, high: int) -> Operation | None:
    """Reconstruct a workload operation object for the replan sample.

    Both update sides are modelled as in-place corrections so the Frequency
    Model sees update pressure at the routed location.
    """
    if kind == "point_query":
        return PointQuery(key=low)
    if kind == "range_count":
        return RangeQuery(low=low, high=high)
    if kind == "range_sum":
        return RangeQuery(low=low, high=high, aggregate=Aggregate.SUM)
    if kind == "insert":
        return Insert(key=low)
    if kind == "delete":
        return Delete(key=low)
    if kind in ("update_source", "update_target"):
        return Update(old_key=low, new_key=low)
    return None


class RecentSample:
    """Bounded sliding window over the most recent attributed operations.

    Semantically a ``deque(maxlen=limit)`` of operations, stored columnar --
    ring buffers of kind codes and key bounds -- so the batched observation
    path appends whole arrays without materializing operation objects.
    Operation objects are synthesized lazily by :meth:`operations` (replans
    are rare; observations are not).
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

    def __len__(self) -> int:
        return self._size

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

    def _ordered_indices(self) -> np.ndarray:
        if self._size < self.limit:
            return np.arange(self._size)
        return (self._cursor + np.arange(self.limit)) % self.limit

    def operations(self) -> list[Operation]:
        """The retained window as operation objects, oldest first."""
        indices = self._ordered_indices()
        out: list[Operation] = []
        for code, low, high in zip(
            self._codes[indices].tolist(),
            self._lows[indices].tolist(),
            self._highs[indices].tolist(),
            strict=True,
        ):
            operation = synthesize_operation(ATTRIBUTION_KINDS[code], low, high)
            if operation is not None:
                out.append(operation)
        return out

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations())


@dataclass
class ChunkActivity:
    """Recorded activity of one chunk: kind counts plus a bounded op sample.

    ``sample_limit`` bounds the retained operation window; the default
    matches :data:`DEFAULT_SAMPLE_LIMIT`, and a monitor constructs
    activities with its *configured* limit (directly-constructed activities
    honour whatever limit they are given, rather than silently falling back
    to the module default as the old hardcoded deque factory did).
    """

    counts: dict[str, int] = field(default_factory=dict)
    sample_limit: int = DEFAULT_SAMPLE_LIMIT
    sample: RecentSample | None = None

    def __post_init__(self) -> None:
        if self.sample is None:
            self.sample = RecentSample(self.sample_limit)
        else:
            self.sample_limit = self.sample.limit

    @property
    def total(self) -> int:
        """Total operations attributed to the chunk."""
        return sum(self.counts.values())

    def mix(self) -> dict[str, float]:
        """Fraction of operations of each kind."""
        total = self.total
        if total == 0:
            return {}
        return {kind: count / total for kind, count in self.counts.items()}


@guarded_class
class WorkloadMonitor:
    """Records per-chunk operation mixes and drives online re-planning.

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
        self._activity: dict[int, ChunkActivity] = {}
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
    def _activity_for(self, chunk_index: int) -> ChunkActivity:
        activity = self._activity.get(chunk_index)
        if activity is None:
            activity = ChunkActivity(sample_limit=self.sample_limit)
            self._activity[chunk_index] = activity
        return activity

    def observe_batch(self, table, log: AccessLog) -> None:
        """Attribute every record of ``log`` in one vectorized pass each.

        Point-kind keys route through one ``searchsorted`` against the
        chunk fences (:meth:`Table.chunk_span_batch`, which charges no
        accesses); reads, deletes and update sources are attributed to the
        full candidate-chunk span, while write-target records (inserts,
        update targets) land in the first candidate chunk only.  Per-chunk
        counts accumulate on a kind-by-chunk matrix merged once per log.

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
            counts = None
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
                    self._ingest_scalar(
                        table,
                        record,
                        first if positions is None else int(positions[0]),
                        rows,
                    )
                    continue
                if positions is None:
                    order = np.arange(first, following, dtype=np.int64)
                else:
                    order = np.broadcast_to(positions, (size,))
                if counts is None:
                    counts = np.zeros(
                        (len(ATTRIBUTION_KINDS), table.num_chunks),
                        dtype=np.int64,
                    )
                if record.kind == PAIRED_UPDATE_KIND:
                    self._ingest_update(table, record, counts, order, entries)
                else:
                    self._ingest(table, record, counts, order, entries)
            if rows:
                entries.append(tuple(np.array(rows, dtype=np.int64).T))
            if entries:
                self._extend_samples(entries)
            if counts is None:
                return
            kind_ids, chunk_ids = np.nonzero(counts)
            for kind_id, chunk_id in zip(kind_ids.tolist(), chunk_ids.tolist(), strict=True):
                activity = self._activity_for(chunk_id)
                kind = ATTRIBUTION_KINDS[kind_id]
                activity.counts[kind] = activity.counts.get(kind, 0) + int(
                    counts[kind_id, chunk_id]
                )

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
            self._activity_for(chunk_id).sample.extend(
                codes[group], lows[group], highs[group]
            )

    @requires_lock("monitor")
    def _attribute_scalar(
        self,
        table,
        kind: str,
        low: int,
        high: int,
        sequence: int = 0,
        rows: list | None = None,
        *,
        range_kind: bool = False,
        first_only: bool = False,
    ) -> None:
        """Count one operation in every chunk of its span; its sample entry
        goes to ``rows`` (a log being ingested: placed at ``sequence`` when
        the log is done) or, without one, straight into the windows."""
        if range_kind:
            first, last = table.chunk_span(low, high)
        else:
            first, last = table.chunk_span(low)
            if first_only:
                last = first
        code = KIND_CODES[kind]
        for chunk_index in range(first, last + 1):
            activity = self._activity_for(chunk_index)
            activity.counts[kind] = activity.counts.get(kind, 0) + 1
            if rows is not None:
                rows.append((chunk_index, sequence, code, low, high))
            elif self.sample_limit:
                activity.sample.append(code, low, high)

    @requires_lock("monitor")
    def _ingest_scalar(
        self, table, record: AccessRecord, order: int, rows: list | None
    ) -> None:
        """Single-operation attribution without the vectorized machinery."""
        low = int(record.lows[0])
        sequence = order * _SLOT
        if record.kind == PAIRED_UPDATE_KIND:
            target = int(record.highs[0])
            self._attribute_scalar(table, "update_source", low, low, sequence, rows)
            self._attribute_scalar(
                table, "update_target", target, target, sequence + 1, rows,
                first_only=True,
            )
        elif record.kind in RANGE_KINDS:
            high = int(record.highs[0]) if record.highs is not None else low
            self._attribute_scalar(
                table, record.kind, low, high, sequence, rows, range_kind=True
            )
        else:
            self._attribute_scalar(
                table, record.kind, low, low, sequence, rows,
                first_only=record.write_target,
            )

    @requires_lock("monitor")
    def _ingest_update(
        self,
        table,
        record: AccessRecord,
        counts: np.ndarray,
        order: np.ndarray,
        entries: list | None,
    ) -> None:
        """Attribute one paired update record (sources + aligned targets).

        Counts split into ``update_source`` (full candidate span of each
        old key) and ``update_target`` (insert route of each new key);
        sample entries interleave source_i before target_i (``2i`` and
        ``2i + 1`` within their positions' slots), exactly as per-pair serial
        dispatch appends them, so the bounded window is identical on both
        paths even under truncation.
        """
        sources = record.lows
        targets = record.highs
        m = int(sources.shape[0])
        source_first, source_last = table.chunk_span_batch(sources)
        target_first, _ = table.chunk_span_batch(targets)
        spans = source_last - source_first + 1
        source_positions = np.repeat(np.arange(m, dtype=np.int64), spans)
        source_chunks = expand_ranges(source_first, spans)
        counts[_SOURCE_CODE] += np.bincount(source_chunks, minlength=counts.shape[1])
        counts[_TARGET_CODE] += np.bincount(target_first, minlength=counts.shape[1])
        if entries is None:
            return
        source_keys = sources[source_positions]
        sequence = order * _SLOT + 2 * np.arange(m, dtype=np.int64)
        entries.append(
            (
                source_chunks,
                sequence[source_positions],
                np.full(source_chunks.shape[0], _SOURCE_CODE),
                source_keys,
                source_keys,
            )
        )
        entries.append(
            (target_first, sequence + 1, np.full(m, _TARGET_CODE), targets, targets)
        )

    @requires_lock("monitor")
    def _ingest(
        self,
        table,
        record: AccessRecord,
        counts: np.ndarray,
        order: np.ndarray,
        entries: list | None,
    ) -> None:
        """Attribute one record: count-matrix update plus sample entries."""
        lows = record.lows
        code = KIND_CODES[record.kind]
        if record.kind in RANGE_KINDS:
            highs = record.highs if record.highs is not None else lows
            first, last = table.chunk_span_batch(lows, highs)
        else:
            highs = lows
            first, last = table.chunk_span_batch(lows)
            if record.write_target:
                last = first
        spans = last - first + 1
        if int(spans.max()) == 1:
            expanded_chunks = first
        else:
            positions = np.repeat(
                np.arange(lows.shape[0], dtype=np.int64), spans
            )
            expanded_chunks = expand_ranges(first, spans)
            order, lows, highs = order[positions], lows[positions], highs[positions]
        counts[code] += np.bincount(expanded_chunks, minlength=counts.shape[1])
        if entries is not None:
            entries.append(
                (
                    expanded_chunks,
                    order * _SLOT,
                    np.full(expanded_chunks.shape[0], code),
                    lows,
                    highs,
                )
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
        The legacy ``"update"`` kind is accepted and resolved to
        ``update_source`` / ``update_target`` via ``write_target``.
        """
        if kind == "update":
            kind = "update_target" if write_target else "update_source"
        if kind not in KIND_CODES:
            raise ValueError(f"unknown attribution kind: {kind!r}")
        low = int(low)
        with self._lock:
            if kind in RANGE_KINDS:
                self._attribute_scalar(
                    table,
                    kind,
                    low,
                    int(high) if high is not None else low,
                    range_kind=True,
                )
            else:
                self._attribute_scalar(
                    table,
                    kind,
                    low,
                    low,
                    first_only=write_target or kind in FIRST_CANDIDATE_KINDS,
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
            return sorted(self._activity)

    def operation_counts(self, chunk_index: int) -> dict[str, int]:
        """Raw per-kind operation counts for one chunk."""
        with self._lock:
            activity = self._activity.get(chunk_index)
            return dict(activity.counts) if activity is not None else {}

    def chunk_mix(self, chunk_index: int) -> dict[str, float]:
        """Operation-mix fractions for one chunk (empty when unobserved)."""
        with self._lock:
            activity = self._activity.get(chunk_index)
            return activity.mix() if activity is not None else {}

    def hot_chunks(self, top: int | None = None) -> list[int]:
        """Chunk indices ordered by recorded operation volume, hottest first."""
        with self._lock:
            ranked = sorted(
                self._activity,
                key=lambda chunk: self._activity[chunk].total,
                reverse=True,
            )
        return ranked[:top] if top is not None else ranked

    def recorded_workload(self, chunk_index: int) -> Workload:
        """The retained operation sample for one chunk as a ``Workload``."""
        with self._lock:
            activity = self._activity.get(chunk_index)
            operations = (
                activity.sample.operations() if activity is not None else []
            )
        return Workload(operations=operations, name=f"monitor[chunk={chunk_index}]")

    def reset_chunk(self, chunk_index: int) -> None:
        """Forget one chunk's recorded activity (after a replan)."""
        with self._lock:
            self._activity.pop(chunk_index, None)

    def reset(self) -> None:
        """Forget all recorded activity."""
        with self._lock:
            self._activity.clear()

    # ------------------------------------------------------------------ #
    # Online reorganization
    # ------------------------------------------------------------------ #

    def replan_chunk(self, table, chunk_index: int, planner):
        """Re-lay-out ``chunk_index`` of ``table`` in place via ``planner``.

        When the monitor holds a recorded sample for the chunk, the planner
        is re-targeted at it (:meth:`CasperPlanner.with_sample`), so the new
        layout reflects the observed -- possibly drifted -- mix rather than
        the offline training sample.  The chunk's recorded activity is reset
        afterwards so the next drift decision starts fresh.  Returns the
        rebuilt chunk.
        """
        sample = self.recorded_workload(chunk_index)
        if len(sample) and hasattr(planner, "with_sample"):
            planner = planner.with_sample(sample)
        rebuilt = table.rebuild_chunk(chunk_index, planner.build_chunk)
        self.reset_chunk(chunk_index)
        return rebuilt

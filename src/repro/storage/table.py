"""Multi-column tables over partitioned key columns.

A :class:`Table` stores a primary-key column (``a0`` in the HAP benchmark)
under one of the Casper column layouts, chunked into column chunks of a fixed
number of values (the paper uses 1M-value chunks).  Payload columns
(``a1..ap``) are kept in insertion order and addressed through global row
ids, so data movement inside the key column (ripples, delta merges) never has
to touch the payload -- this mirrors the paper's positioning that Casper
controls the layout of individual columns/column groups and is orthogonal to
the rest of the table layout.

Routing across chunks goes through a chunk-level
:class:`~repro.storage.partition_index.PartitionIndex` whose fences are the
chunk upper bounds (the last chunk's fence is ``int64 max`` so inserts of new
maxima route there without fence maintenance).  Because the chunking of the
loaded key column simply slices the sorted keys, a duplicate run may straddle
a chunk boundary; point operations therefore probe the *span* of candidate
chunks returned by :meth:`PartitionIndex.locate_all`, never just one chunk.
Every routing decision is charged through ``AccessCounter.index_probe``.

Concurrency model (chunk-granular)
----------------------------------

A table may be shared by multiple sessions on concurrent threads.  Isolation
is *chunk-granular*: every chunk visit is bracketed by that chunk's
:class:`~repro.storage.latches.RWLatch` -- shared for reads, exclusive for
writes -- so reads share chunks freely, writes to different chunks run in
parallel, and only writers (or a publish) targeting the *same* chunk
serialize.  Operations spanning several chunks latch them one at a time (or,
for cross-chunk key moves, all at once in ascending order), so a multi-chunk
read observes each chunk atomically but not the whole span -- the documented
unit of read consistency is the chunk.

Online reorganization is copy-on-write: :meth:`Table.snapshot_chunk` pins a
consistent (values, rowids, generation) snapshot under the shared latch, the
replacement chunk is built entirely off to the side
(:meth:`Table.build_chunk_replacement`, no latch held), and
:meth:`Table.publish_chunk` swaps it in with a single generation-checked
exchange under the exclusive latch.  Readers therefore stall on a replan
only for the O(1) publish of one chunk, never for the solve or the rebuild;
in-flight reads that already fetched the prior chunk object keep reading it
(Python reference counting reclaims the snapshot when the last reader
drops it).  A write that lands between snapshot and publish bumps the
chunk's generation, so the publish detects the race and refuses the stale
replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import discipline
from repro.discipline import requires_latch, requires_lock

from .cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    AccessCounter,
    blocks_spanned,
)
from .column import expand_ranges
from .errors import LayoutError, ValueNotFoundError
from .latches import ChunkLatches
from .layouts import ColumnLike, LayoutKind, LayoutSpec, build_column
from .partition_index import PartitionIndex

#: Per-chunk column builder: (sorted chunk keys, global rowids, counter) -> chunk.
ChunkBuilder = Callable[[np.ndarray, np.ndarray, AccessCounter], ColumnLike]

#: Below this many probes per chunk, batched point/range resolution falls
#: back to per-value dispatch: the vectorized machinery's fixed per-call
#: overhead (partition grouping, expansion arrays) only amortizes once a
#: chunk receives a reasonable number of probes.  Both paths charge
#: identical simulated accesses, so the cutover is invisible to the cost
#: model -- it is purely a wall-clock adaptation for batches that scatter
#: thinly across many chunks.
SMALL_PROBE_FALLBACK = 16


def layout_chunk_builder(spec: LayoutSpec) -> ChunkBuilder:
    """Build chunks with a fixed :class:`LayoutSpec` (non-Casper modes)."""

    def builder(
        sorted_keys: np.ndarray, rowids: np.ndarray, counter: AccessCounter
    ) -> ColumnLike:
        return build_column(
            spec, sorted_keys, counter=counter, track_rowids=True, rowids=rowids
        )

    return builder


@dataclass
class Row:
    """A materialized row: the key plus the requested payload attributes."""

    key: int
    rowid: int
    payload: dict[str, int]


@dataclass(frozen=True)
class ChunkSnapshot:
    """A pinned, consistent view of one chunk's live data.

    Taken under the chunk's shared latch by :meth:`Table.snapshot_chunk`:
    ``values``/``rowids`` are aligned copies in ascending key order,
    ``generation`` is the chunk's data generation *at snapshot time* --
    the staleness token a copy-on-write :meth:`Table.publish_chunk`
    re-checks -- and ``partition_offsets`` describes the chunk's *current*
    physical layout (exclusive value end offsets of its partitions; a
    single ``[size]`` partition for layouts that do not expose counts,
    e.g. delta-store chunks) so a cost gate can price the live layout
    against the same data the plan is solved for.
    """

    chunk_index: int
    values: np.ndarray
    rowids: np.ndarray
    generation: int
    partition_offsets: np.ndarray


class Table:
    """A table with a partitioned key column and row-id addressed payload.

    Parameters
    ----------
    keys:
        Primary-key values (need not be sorted; they are sorted per chunk).
    payload:
        2-D array of shape ``(len(keys), num_payload_columns)`` or ``None``.
    chunk_size:
        Number of key values per column chunk (1M in the paper).
    chunk_builder:
        Callable that builds the key-column chunk from sorted keys, aligned
        global row ids and the shared access counter.  Defaults to a sorted
        layout.
    payload_names:
        Optional payload column names; defaults to ``a1..ap``.
    """

    def __init__(
        self,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | None = None,
        *,
        chunk_size: int = 1_000_000,
        chunk_builder: ChunkBuilder | None = None,
        payload_names: Sequence[str] | None = None,
        block_values: int = DEFAULT_BLOCK_VALUES,
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise LayoutError("keys must be one-dimensional")
        if chunk_size <= 0:
            raise LayoutError("chunk_size must be positive")
        self.chunk_size = int(chunk_size)
        self.block_values = int(block_values)
        self.counter = AccessCounter()
        if chunk_builder is None:
            chunk_builder = layout_chunk_builder(
                LayoutSpec(kind=LayoutKind.SORTED, block_values=block_values)
            )
        self._chunk_builder = chunk_builder

        if payload is None:
            payload = np.empty((keys.shape[0], 0), dtype=np.int64)
        payload = np.asarray(payload, dtype=np.int64)
        if payload.ndim != 2 or payload.shape[0] != keys.shape[0]:
            raise LayoutError("payload must have one row per key")
        num_payload = payload.shape[1]
        if payload_names is None:
            payload_names = [f"a{i + 1}" for i in range(num_payload)]
        if len(payload_names) != num_payload:
            raise LayoutError("payload_names must match payload width")
        self.payload_names = list(payload_names)

        # Global row id i refers to the i-th row in key-sorted load order;
        # the payload array is stored in that same order.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self._payload = payload[order].copy()
        self._payload_capacity = self._payload.shape[0]
        self._next_rowid = int(keys.shape[0])

        self._chunks: list[ColumnLike] = []
        self._chunk_bounds: list[int] = []
        n = sorted_keys.shape[0]
        start = 0
        while True:
            end = min(start + self.chunk_size, n)
            chunk_keys = sorted_keys[start:end]
            rowids = np.arange(start, end, dtype=np.int64)
            chunk = self._chunk_builder(chunk_keys, rowids, self.counter)
            self._chunks.append(chunk)
            high = int(chunk_keys[-1]) if chunk_keys.size else np.iinfo(np.int64).max
            self._chunk_bounds.append(high)
            start = end
            if start >= n:
                break
        self._chunk_bounds[-1] = np.iinfo(np.int64).max
        # Chunk-granular read/write latches (see the module docstring for
        # the concurrency model) plus two small structural locks: payload
        # appends allocate row ids, and publishes refresh the chunk bound /
        # router, each under its own mutex.  Created before the router so
        # every ``_rebuild_router`` call -- including the initial one --
        # runs under the structure lock.
        self._latches = ChunkLatches(len(self._chunks))
        self._payload_lock = discipline.make_lock("table_payload")
        self._structure_lock = discipline.make_lock("table_structure")
        self._router = PartitionIndex()
        with self._structure_lock:
            self._rebuild_router()
        # Per-chunk data generation: bumped (under the chunk's exclusive
        # latch) on every mutation that touches a chunk -- inserts, deletes,
        # key updates, bulk writes, published rebuilds.  An incremental
        # reorganizer snapshots the generation when it solves a layout and
        # re-checks it at publish time, so a replan that raced a concurrent
        # write is detected and requeued instead of applied stale.
        self._generations = [0] * len(self._chunks)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_chunks(self) -> int:
        """Number of column chunks backing the key column."""
        return len(self._chunks)

    @property
    def num_rows(self) -> int:
        """Number of live rows."""
        return sum(chunk.size for chunk in self._chunks)

    @property
    def chunks(self) -> list[ColumnLike]:
        """The key-column chunks (read-only use)."""
        return list(self._chunks)

    @property
    def chunk_bounds(self) -> np.ndarray:
        """Upper fence (maximum routable key) of each chunk."""
        return np.asarray(self._chunk_bounds, dtype=np.int64)

    @property
    def router(self) -> PartitionIndex:
        """The chunk-level routing index (read-only use)."""
        return self._router

    @property
    def latches(self) -> ChunkLatches:
        """The per-chunk read/write latches (tests may instrument them)."""
        return self._latches

    def keys(self) -> np.ndarray:
        """Materialize all live keys (unsorted)."""
        pieces = []
        for chunk_index in range(len(self._chunks)):
            self._latches.acquire_read(chunk_index)
            try:
                pieces.append(self._chunks[chunk_index].values())
            finally:
                self._latches.release_read(chunk_index)
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Data generations
    # ------------------------------------------------------------------ #

    def chunk_generation(self, chunk_index: int) -> int:
        """Mutation counter of one chunk (monotonic, starts at 0)."""
        return self._generations[chunk_index]

    @property
    def generation(self) -> int:
        """Table-wide mutation counter: the sum of all chunk generations."""
        return sum(self._generations)

    @requires_latch("exclusive")
    def _bump_generation(self, chunk_index: int) -> None:
        # Only ever called with the chunk's exclusive latch held (checked:
        # LB01 statically, held-latch assertion in debug mode), so the
        # read-modify-write cannot race another mutator.
        self._generations[chunk_index] += 1

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @requires_lock("table_structure")
    def _rebuild_router(self) -> None:
        self._router.rebuild(np.asarray(self._chunk_bounds, dtype=np.int64))

    def _route_key(self, key: int) -> tuple[int, int]:
        """Inclusive span of chunks that may contain ``key`` (index probe).

        Duplicate runs straddling a chunk boundary make the span wider than
        one chunk; all candidates must be probed for correct point reads,
        deletes and key updates.
        """
        self.counter.index_probe()
        return self._router.locate_all(int(key))

    def _route_insert(self, key: int) -> int:
        """Chunk that receives an insert of ``key`` (first candidate)."""
        self.counter.index_probe()
        return self._router.locate(int(key))

    def _route_range(self, low: int, high: int) -> tuple[int, int]:
        self.counter.index_probe()
        return self._router.locate_range(int(low), int(high))

    def chunk_span_batch(
        self,
        lows: np.ndarray | Sequence[int],
        highs: np.ndarray | Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chunk spans for monitoring purposes (no access charged).

        One ``searchsorted`` pass over the chunk fences resolves the whole
        key (or bound-pair) array; returns aligned ``(first, last)``
        candidate-span arrays.  The monitor attributes by it.
        """
        lows = np.asarray(lows, dtype=np.int64)
        if highs is None:
            return self._router.locate_batch(lows)
        return self._router.locate_range_batch(
            lows, np.asarray(highs, dtype=np.int64)
        )

    # ------------------------------------------------------------------ #
    # Payload access
    # ------------------------------------------------------------------ #

    def _payload_indices(self, columns: Sequence[str]) -> list[int]:
        try:
            return [self.payload_names.index(name) for name in columns]
        except ValueError as exc:
            raise LayoutError(f"unknown payload column: {exc}") from exc

    def _append_payload(self, values: Sequence[int]) -> int:
        if len(values) != len(self.payload_names):
            raise LayoutError("payload width mismatch")
        row = np.asarray(values, dtype=np.int64).reshape(1, -1)
        return int(self._append_payload_batch(row)[0])

    def _append_payload_batch(self, rows: np.ndarray) -> np.ndarray:
        """Append ``rows`` (one payload row per new key) in one write.

        Returns the assigned global row ids, in row order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.payload_names):
            raise LayoutError("payload width mismatch")
        count = int(rows.shape[0])
        # Row-id allocation and the growth vstack are serialized; readers
        # never hold this lock -- a row id only becomes visible once its
        # chunk insert publishes it (under the chunk's exclusive latch), by
        # which time the payload row is durably written.
        with self._payload_lock:
            needed = self._next_rowid + count
            if needed > self._payload_capacity:
                extra = max(
                    1024, self._payload_capacity // 2, needed - self._payload_capacity
                )
                self._payload = np.vstack(
                    (
                        self._payload,
                        np.zeros(
                            (extra, max(self._payload.shape[1], 0)), dtype=np.int64
                        ),
                    )
                )
                self._payload_capacity = self._payload.shape[0]
            start = self._next_rowid
            if self._payload.shape[1]:
                self._payload[start:needed, :] = rows
            self._next_rowid = needed
        return np.arange(start, needed, dtype=np.int64)

    def payload_rows(self, rowids: np.ndarray | Sequence[int]) -> np.ndarray:
        """Copy the payload rows addressed by ``rowids`` (snapshot path).

        Returns a ``(len(rowids), num_payload_columns)`` array aligned with
        the input.  Unlocked, like every payload read: a row id is only
        handed out after its chunk insert published it, by which time its
        payload row is durably written (``_payload`` is ``"write"``-guarded,
        see :data:`repro.discipline.GUARDED_BY`).
        """
        rowids = np.asarray(rowids, dtype=np.int64)
        return self._payload[rowids].copy()

    def _payload_cells(
        self, rowids: np.ndarray, indices: list[int]
    ) -> np.ndarray:
        """``payload[rowids][:, indices]``, gathered by row.

        ``take`` copies each addressed row whole (one contiguous run per
        row id), which is several times cheaper than a cell-by-cell
        ``np.ix_`` gather; the column slice is skipped when every column
        is requested in table order.
        """
        cells = self._payload.take(rowids, axis=0)
        if indices != list(range(cells.shape[1])):
            cells = cells[:, indices]
        return cells

    def _materialize_rows(
        self,
        keys: list[int],
        rowids: np.ndarray,
        columns: list[str],
        indices: list[int],
    ) -> list[Row]:
        """One :class:`Row` per ``(key, rowid)`` pair, in order.

        The payload cells of the whole batch are gathered once and the rows
        are built from Python lists -- not one numpy scalar read per cell.
        """
        cells = self._payload_cells(rowids, indices).tolist()
        return [
            Row(key=key, rowid=rowid, payload=dict(zip(columns, values, strict=True)))
            for key, rowid, values in zip(
                keys, rowids.tolist(), cells, strict=True
            )
        ]

    # ------------------------------------------------------------------ #
    # HAP-style operations
    # ------------------------------------------------------------------ #

    def point_query(
        self, key: int, columns: Sequence[str] | None = None
    ) -> list[Row]:
        """Q1: return the rows whose key equals ``key`` with payload columns."""
        key = int(key)
        first, last = self._route_key(key)
        columns = list(columns) if columns is not None else list(self.payload_names)
        indices = self._payload_indices(columns)
        pieces: list[np.ndarray] = []
        for chunk_index in range(first, last + 1):
            self._latches.acquire_read(chunk_index)
            try:
                hits = self._chunks[chunk_index].point_query(
                    key, return_rowids=True
                )
            finally:
                self._latches.release_read(chunk_index)
            hits = np.asarray(hits, dtype=np.int64)
            if hits.size:
                pieces.append(hits)
        rowids = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        if rowids.size and columns:
            self.counter.random_read(int(rowids.size) * len(columns))
        return self._materialize_rows(
            [key] * int(rowids.size), rowids, columns, indices
        )

    def multi_point_query(
        self, keys: np.ndarray | Sequence[int], columns: Sequence[str] | None = None
    ) -> list[list[Row]]:
        """Vectorized Q1 batch: one row list per input key, in input order.

        Keys are routed with a single ``searchsorted`` over the chunk fences,
        grouped by chunk and resolved with vectorized per-chunk probes; the
        simulated block accesses are identical to issuing each point query
        individually.
        """
        keys_arr = np.asarray(keys, dtype=np.int64)
        if keys_arr.ndim != 1:
            raise LayoutError("keys must be one-dimensional")
        columns = list(columns) if columns is not None else list(self.payload_names)
        indices = self._payload_indices(columns)
        m = int(keys_arr.size)
        if m == 0:
            return []
        self.counter.index_probe(m)
        first, last = self._router.locate_batch(keys_arr)
        spans = (last - first + 1).astype(np.int64)
        expanded_pos = np.repeat(np.arange(m, dtype=np.int64), spans)
        expanded_chunks = expand_ranges(first, spans)
        counts_per_key = np.zeros(m, dtype=np.int64)
        owner_pieces: list[np.ndarray] = []
        hit_pieces: list[np.ndarray] = []
        # Chunks are visited in ascending order, so the stable owner sort
        # below reproduces the per-op candidate-chunk probing order.
        for chunk_index in np.unique(expanded_chunks):
            positions = expanded_pos[expanded_chunks == chunk_index]
            chunk_keys = keys_arr[positions]
            self._latches.acquire_read(int(chunk_index))
            try:
                chunk = self._chunks[int(chunk_index)]
                if chunk_keys.size >= SMALL_PROBE_FALLBACK:
                    hits, counts = chunk.multi_point_query(
                        chunk_keys, return_rowids=True
                    )
                else:
                    found = [
                        np.asarray(
                            chunk.point_query(int(value), return_rowids=True),
                            dtype=np.int64,
                        )
                        for value in chunk_keys
                    ]
                    counts = np.asarray(
                        [hit.size for hit in found], dtype=np.int64
                    )
                    hits = (
                        np.concatenate(found)
                        if found
                        else np.empty(0, dtype=np.int64)
                    )
            finally:
                self._latches.release_read(int(chunk_index))
            if not int(counts.sum()):
                continue
            counts_per_key[positions] += counts
            owner_pieces.append(np.repeat(positions, counts))
            hit_pieces.append(hits)
        total_hits = int(counts_per_key.sum())
        if total_hits and columns:
            self.counter.random_read(total_hits * len(columns))
        if owner_pieces:
            owners = np.concatenate(owner_pieces)
            hits_flat = np.concatenate(hit_pieces)
            hits_flat = hits_flat[np.argsort(owners, kind="stable")]
        else:
            hits_flat = np.empty(0, dtype=np.int64)
        rows = self._materialize_rows(
            np.repeat(keys_arr, counts_per_key).tolist(),
            hits_flat,
            columns,
            indices,
        )
        ends = np.cumsum(counts_per_key).tolist()
        return [
            rows[start:end]
            for start, end in zip([0, *ends], ends, strict=False)
        ]

    def range_count(self, low: int, high: int) -> int:
        """Q2: ``SELECT count(*) WHERE key BETWEEN low AND high``."""
        first, last = self._route_range(int(low), int(high))
        total = 0
        for chunk_index in range(first, last + 1):
            self._latches.acquire_read(chunk_index)
            try:
                result = self._chunks[chunk_index].range_query(
                    int(low), int(high), materialize=False
                )
            finally:
                self._latches.release_read(chunk_index)
            total += result.count
        return total

    def multi_range_count(
        self, bounds: Sequence[tuple[int, int]] | np.ndarray
    ) -> np.ndarray:
        """Vectorized Q2 batch: one count per ``(low, high)`` pair.

        Ranges are routed with one ``searchsorted`` pass over the chunk
        fences and resolved per chunk with vectorized fence lookups; the
        simulated accesses are identical to issuing each range count
        individually.
        """
        bounds_arr = np.asarray(bounds, dtype=np.int64)
        if bounds_arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if bounds_arr.ndim != 2 or bounds_arr.shape[1] != 2:
            raise LayoutError("bounds must be a sequence of (low, high) pairs")
        lows = bounds_arr[:, 0]
        highs = bounds_arr[:, 1]
        if np.any(lows > highs):
            raise ValueError("low must be <= high")
        m = int(bounds_arr.shape[0])
        self.counter.index_probe(m)
        first, last = self._router.locate_range_batch(lows, highs)
        totals = np.zeros(m, dtype=np.int64)
        spans = (last - first + 1).astype(np.int64)
        expanded_pos = np.repeat(np.arange(m, dtype=np.int64), spans)
        expanded_chunks = expand_ranges(first, spans)
        for chunk_index in np.unique(expanded_chunks):
            positions = expanded_pos[expanded_chunks == chunk_index]
            self._latches.acquire_read(int(chunk_index))
            try:
                chunk = self._chunks[int(chunk_index)]
                if positions.size >= SMALL_PROBE_FALLBACK:
                    counts = chunk.multi_range_count(
                        lows[positions], highs[positions]
                    )
                else:
                    counts = np.asarray(
                        [
                            chunk.range_query(
                                int(lows[pos]), int(highs[pos]), materialize=False
                            ).count
                            for pos in positions
                        ],
                        dtype=np.int64,
                    )
            finally:
                self._latches.release_read(int(chunk_index))
            # Each range appears once per chunk it spans, so ``positions``
            # holds no repeats and the buffered add is exact.
            totals[positions] += counts
        return totals

    def range_sum(
        self, low: int, high: int, columns: Sequence[str] | None = None
    ) -> int:
        """Q3: sum payload attributes over rows whose key is in ``[low, high]``."""
        columns = list(columns) if columns is not None else list(self.payload_names)
        indices = self._payload_indices(columns)
        first, last = self._route_range(int(low), int(high))
        total = 0
        for chunk_index in range(first, last + 1):
            self._latches.acquire_read(chunk_index)
            try:
                rowids = self._chunks[chunk_index].range_rowids(
                    int(low), int(high)
                )
            finally:
                self._latches.release_read(chunk_index)
            rowids = np.asarray(rowids, dtype=np.int64)
            if rowids.size == 0 or not indices:
                continue
            blocks = blocks_spanned(0, int(rowids.size), self.block_values)
            self.counter.seq_read(blocks * len(indices))
            total += int(self._payload_cells(rowids, indices).sum())
        return total

    def insert(self, key: int, payload: Sequence[int] | None = None) -> int:
        """Q4: insert a new row; returns its global row id."""
        payload = payload if payload is not None else [0] * len(self.payload_names)
        rowid = self._append_payload(payload)
        key = int(key)
        chunk_index = self._route_insert(key)
        while True:
            self._latches.acquire_write(chunk_index)
            # Revalidate the insert route under the latch: a concurrent
            # publish may have tightened this chunk's fence between routing
            # and latching, and inserting above the fence would make the
            # key unreachable.  Once the route checks out while we hold the
            # exclusive latch it cannot move again -- tightening *this*
            # fence needs this latch, and earlier fences are already below
            # the key and only ever tighten further.
            if self._router.locate(key) == chunk_index:
                try:
                    self._chunks[chunk_index].insert(key, rowid=rowid)
                    self._bump_generation(chunk_index)
                finally:
                    self._latches.release_write(chunk_index)
                return rowid
            self._latches.release_write(chunk_index)
            chunk_index = self._route_insert(key)

    def delete(self, key: int) -> int:
        """Q5: delete one row by key; returns the number of deleted rows.

        All candidate chunks are probed in routing order, so duplicates split
        across a chunk boundary are reachable by repeated deletes.  Within
        the first chunk holding the key, the victim is the oldest surviving
        copy (smallest row id -- see
        :meth:`~repro.storage.column.PartitionedColumn._oldest_first`), so
        which copy dies is deterministic and serial/sharded executions
        agree, payloads included.
        """
        key = int(key)
        first, last = self._route_key(key)
        for chunk_index in range(first, last + 1):
            self._latches.acquire_write(chunk_index)
            try:
                deleted = self._chunks[chunk_index].delete(key)
                self._bump_generation(chunk_index)
                return deleted
            except ValueNotFoundError:
                continue
            finally:
                self._latches.release_write(chunk_index)
        raise ValueNotFoundError(f"key {key} not found")

    def take_row(self, key: int) -> tuple[int, np.ndarray]:
        """Delete one row by key and return ``(rowid, payload_row)``.

        Chooses the same victim :meth:`delete` would (the oldest copy --
        smallest row id -- in the first candidate chunk holding the key)
        with identical charged accesses, but reports which row it removed
        so a cross-shard move can carry the payload to the target shard.
        The payload row is copied before the row id goes back into
        circulation.
        """
        key = int(key)
        first, last = self._route_key(key)
        for chunk_index in range(first, last + 1):
            self._latches.acquire_write(chunk_index)
            try:
                rowid = self._chunks[chunk_index].remove_one(key)
                self._bump_generation(chunk_index)
            except ValueNotFoundError:
                continue
            finally:
                self._latches.release_write(chunk_index)
            row = (
                self._payload[rowid].copy()
                if self.payload_names
                else np.empty(0, dtype=np.int64)
            )
            return int(rowid), row
        raise ValueNotFoundError(f"key {key} not found")

    def bulk_insert(
        self,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | Sequence[Sequence[int]] | None = None,
    ) -> np.ndarray:
        """Batched Q4: insert many rows on the vectorized bulk-write path.

        Payload rows are appended (and global row ids assigned) in *input*
        order with one array write; the keys are then routed with a single
        ``searchsorted`` over the chunk fences and handed to each receiving
        chunk's :meth:`~repro.storage.column.PartitionedColumn.bulk_insert`
        in ascending key order.  The resulting table state is identical to
        inserting the same (key, row id) pairs sequentially in ascending key
        order; chunk bounds never change on insert (the last fence is
        ``int64 max``), so the router is left untouched.  Returns the new
        global row ids aligned with the input order.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise LayoutError("keys must be one-dimensional")
        m = int(keys.size)
        if payload is None:
            rows = np.zeros((m, len(self.payload_names)), dtype=np.int64)
        else:
            try:
                rows = np.asarray(payload, dtype=np.int64)
            except ValueError as exc:
                raise LayoutError("payload width mismatch") from exc
            if rows.ndim != 2 or rows.shape[0] != m:
                raise LayoutError("payload must have one row per key")
        rowids = self._append_payload_batch(rows)
        if m == 0:
            return rowids
        self.counter.index_probe(m)
        pending = np.arange(m, dtype=np.int64)
        while pending.size:
            # First-candidate (insert) routing is locate_batch's `first`
            # array.  Each group revalidates its routes under the chunk's
            # exclusive latch (a concurrent publish may have tightened the
            # fence since routing); re-routed keys retry on the next pass.
            chunk_ids, _ = self._router.locate_batch(keys[pending])
            perm = np.argsort(keys[pending], kind="stable")
            order = pending[perm]
            sorted_chunks = chunk_ids[perm]
            unique_chunks, group_starts, group_counts = np.unique(
                sorted_chunks, return_index=True, return_counts=True
            )
            stale_pieces: list[np.ndarray] = []
            for chunk_index, lo, count in zip(
                unique_chunks.tolist(),
                group_starts.tolist(),
                group_counts.tolist(),
                strict=True,
            ):
                sel = order[lo : lo + count]
                self._latches.acquire_write(chunk_index)
                try:
                    fresh, _ = self._router.locate_batch(keys[sel])
                    valid = sel[fresh == chunk_index]
                    stale = sel[fresh != chunk_index]
                    if stale.size:
                        stale_pieces.append(stale)
                    if valid.size == 0:
                        continue
                    self._chunks[chunk_index].bulk_insert(keys[valid], rowids[valid])
                    self._bump_generation(chunk_index)
                finally:
                    self._latches.release_write(chunk_index)
            pending = (
                np.concatenate(stale_pieces)
                if stale_pieces
                else np.empty(0, dtype=np.int64)
            )
        return rowids

    def bulk_delete(self, keys: np.ndarray | Sequence[int]) -> np.ndarray:
        """Batched Q5: delete one row per key on the vectorized bulk path.

        Keys are routed with one ``searchsorted`` pass over the chunk fences
        and resolved in ascending key order; keys that miss their first
        candidate chunk retry the next chunk of their candidate span, so
        duplicate runs straddling a chunk boundary stay reachable exactly as
        on the per-key path.  Chunk bounds are left stale-high (deletes only
        widen routing), so the router is never rebuilt.  Returns an array
        aligned with the input: 1 where a row was deleted, 0 where the key
        was absent.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise LayoutError("keys must be one-dimensional")
        m = int(keys.size)
        deleted = np.zeros(m, dtype=np.int64)
        if m == 0:
            return deleted
        self.counter.index_probe(m)
        first, last = self._router.locate_batch(keys)
        order = np.argsort(keys, kind="stable")
        attempt = first[order].copy()
        span_last = last[order]
        unresolved = np.ones(m, dtype=bool)
        for chunk_index in range(int(attempt.min()), int(span_last.max()) + 1):
            group = np.nonzero(unresolved & (attempt == chunk_index))[0]
            if group.size == 0:
                continue
            sel = order[group]
            self._latches.acquire_write(chunk_index)
            try:
                counts = self._chunks[chunk_index].bulk_delete(keys[sel])
                hit = counts > 0
                if np.any(hit):
                    self._bump_generation(chunk_index)
            finally:
                self._latches.release_write(chunk_index)
            deleted[sel[hit]] = counts[hit]
            unresolved[group[hit]] = False
            missed = group[~hit]
            retriable = missed[span_last[missed] > chunk_index]
            unresolved[missed] = False
            unresolved[retriable] = True
            attempt[retriable] = chunk_index + 1
        return deleted

    def bulk_update(
        self, pairs: np.ndarray | Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Batched Q6: apply ``old_key -> new_key`` corrections in one call.

        Routing is batched -- one ``searchsorted`` pass over the chunk fences
        for the source spans and one for the insert targets, charging the
        same two index probes per pair as :meth:`update_key` -- but the pairs
        themselves are applied *in submission order* with the exact per-pair
        logic of :meth:`update_key`.  Updates never move chunk fences, so the
        pre-computed routes stay valid throughout the batch and the resulting
        table state, results and simulated access counts are identical to
        dispatching each update individually (unlike the insert/delete bulk
        paths, nothing is reordered or coalesced).  Returns an array aligned
        with the input: 1 where a row was updated, 0 where ``old_key`` was
        absent (no :class:`ValueNotFoundError` is raised on the bulk path).
        """
        pairs_arr = np.asarray(pairs, dtype=np.int64)
        if pairs_arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pairs_arr.ndim != 2 or pairs_arr.shape[1] != 2:
            raise LayoutError("pairs must be a sequence of (old, new) tuples")
        m = int(pairs_arr.shape[0])
        self.counter.index_probe(m)
        first, last = self._router.locate_batch(pairs_arr[:, 0])
        self.counter.index_probe(m)
        targets, _ = self._router.locate_batch(pairs_arr[:, 1])
        updated = np.zeros(m, dtype=np.int64)
        for i in range(m):
            updated[i] = self._apply_update(
                int(pairs_arr[i, 0]),
                int(pairs_arr[i, 1]),
                int(first[i]),
                int(last[i]),
                int(targets[i]),
            )
        return updated

    def _apply_update(
        self, old_key: int, new_key: int, first: int, last: int, target: int
    ) -> int:
        """One ``old_key -> new_key`` correction over pre-computed routes.

        Latches the candidate span plus the insert target exclusively (in
        ascending order, the deadlock-free multi-chunk protocol) so a
        cross-chunk move -- remove from the source, insert into the target
        -- is atomic with respect to concurrent readers and writers.  The
        target route is revalidated under the latches (a concurrent
        publish may have tightened its fence since routing; the source
        span needs no revalidation -- fences only tighten, which keeps a
        stale span covering).  Returns 1 when a row was updated, 0 when
        ``old_key`` was absent.
        """
        while True:
            latched = self._latches.acquire_write_many(
                list(range(first, last + 1)) + [target]
            )
            try:
                fresh_target = self._router.locate(new_key)
                if fresh_target == target:
                    for chunk_index in range(first, last + 1):
                        try:
                            if chunk_index == target:
                                self._chunks[chunk_index].update(
                                    old_key, new_key
                                )
                            else:
                                rowid = self._chunks[chunk_index].remove_one(
                                    old_key
                                )
                                self._chunks[target].insert(
                                    new_key, rowid=rowid
                                )
                                self._bump_generation(target)
                            self._bump_generation(chunk_index)
                            return 1
                        except ValueNotFoundError:
                            continue
                    return 0
            finally:
                self._latches.release_write_many(latched)
            target = fresh_target

    def update_key(self, old_key: int, new_key: int) -> None:
        """Q6: correct a primary-key value (update ``old_key`` -> ``new_key``).

        The source chunk is the first candidate chunk that actually holds
        ``old_key`` (duplicate runs may straddle chunk bounds); the target is
        the insert route of ``new_key``.  A same-chunk update rewrites in
        place via the column's ripple update; a cross-chunk move preserves
        the global row id, so the payload never moves.
        """
        old_key, new_key = int(old_key), int(new_key)
        first, last = self._route_key(old_key)
        target = self._route_insert(new_key)
        # Same-chunk updates rewrite in place via the column's ripple update
        # (which performs and charges the single source scan, per Eq. 12/14);
        # cross-chunk moves preserve the global row id via remove_one, so the
        # payload never moves.  Both run under the span+target latches.
        if not self._apply_update(old_key, new_key, first, last, target):
            raise ValueNotFoundError(f"key {old_key} not found")

    def scan(self) -> np.ndarray:
        """Full scan of the key column."""
        pieces = []
        for chunk_index in range(len(self._chunks)):
            self._latches.acquire_read(chunk_index)
            try:
                chunk = self._chunks[chunk_index]
                if hasattr(chunk, "full_scan"):
                    pieces.append(chunk.full_scan())
                else:
                    pieces.append(chunk.values())
            finally:
                self._latches.release_read(chunk_index)
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Online reorganization
    # ------------------------------------------------------------------ #

    def snapshot_chunk(self, chunk_index: int) -> ChunkSnapshot:
        """Pin a consistent (values, rowids, generation) view of one chunk.

        Taken under the chunk's shared latch, so the arrays and the
        generation belong to one point in the chunk's mutation history --
        the copy-on-write contract :meth:`publish_chunk` re-checks.  Values
        and row ids come back aligned in ascending key order, ready for a
        chunk builder.  No simulated accesses are charged (pricing belongs
        to :meth:`build_chunk_replacement`).
        """
        if not 0 <= chunk_index < len(self._chunks):
            raise LayoutError(f"chunk index {chunk_index} out of range")
        self._latches.acquire_read(chunk_index)
        try:
            chunk = self._chunks[chunk_index]
            values = np.asarray(chunk.values(), dtype=np.int64)
            rowids = np.asarray(chunk.rowids(), dtype=np.int64)
            generation = self._generations[chunk_index]
            offsets = None
            if hasattr(chunk, "partition_counts"):
                offsets = np.cumsum(
                    np.asarray(chunk.partition_counts(), dtype=np.int64)
                )
                offsets = offsets[offsets > 0]
                if not offsets.size or int(offsets[-1]) != int(values.size):
                    offsets = None
        finally:
            self._latches.release_read(chunk_index)
        if offsets is None:
            # Price the chunk as one partition (e.g. delta-store chunks,
            # whose main run is a single sorted area).
            offsets = np.asarray([values.size], dtype=np.int64)
        order = np.argsort(values, kind="stable")
        return ChunkSnapshot(
            chunk_index=chunk_index,
            values=values[order],
            rowids=rowids[order],
            generation=generation,
            partition_offsets=offsets,
        )

    def build_chunk_replacement(
        self, snapshot: ChunkSnapshot, chunk_builder: ChunkBuilder | None = None
    ) -> ColumnLike:
        """Build a replacement chunk off to the side (no latch held).

        Charges the rebuild's sequential read+write sweep -- the same charge
        ``DeltaStoreColumn.merge`` pays for its reorganization -- and feeds
        the snapshot through ``chunk_builder`` (the table's default when
        omitted).  The result is not visible to readers until
        :meth:`publish_chunk` swaps it in.
        """
        blocks = blocks_spanned(0, int(snapshot.values.size), self.block_values)
        self.counter.seq_read(blocks)
        self.counter.seq_write(blocks)
        builder = chunk_builder if chunk_builder is not None else self._chunk_builder
        return builder(snapshot.values, snapshot.rowids, self.counter)

    def publish_chunk(
        self, snapshot: ChunkSnapshot, rebuilt: ColumnLike
    ) -> bool:
        """Atomically swap a rebuilt chunk in, iff its snapshot is current.

        Takes the chunk's exclusive latch, re-checks the data generation
        against the snapshot, and -- when no write raced the rebuild --
        publishes the replacement with a single reference exchange, bumps
        the generation, refreshes the chunk's upper fence from the snapshot
        maximum (tightening stale-high fences left by deletes) and rebuilds
        the router.  Returns ``False`` when the generation moved: the
        replacement was built from data that no longer exists, so the
        caller must re-snapshot and rebuild (or requeue the replan).

        Readers never block on the rebuild itself -- only on this O(1)
        publish; in-flight reads that already fetched the prior chunk
        object keep using it and drop it when they finish (reference-count
        reclamation).
        """
        chunk_index = snapshot.chunk_index
        self._latches.acquire_write(chunk_index)
        try:
            if self._generations[chunk_index] != snapshot.generation:
                return False
            self._chunks[chunk_index] = rebuilt
            self._bump_generation(chunk_index)
            with self._structure_lock:
                if (
                    chunk_index < len(self._chunks) - 1
                    and snapshot.values.size
                ):
                    self._chunk_bounds[chunk_index] = int(snapshot.values[-1])
                self._rebuild_router()
            return True
        finally:
            self._latches.release_write(chunk_index)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Validate every chunk plus the cross-chunk routing invariants.

        Beyond per-chunk structure this asserts the fence-maintenance
        contract of :mod:`repro.storage.partition_index`: non-decreasing
        chunk bounds mirrored by the router, a ``+inf`` final fence, every
        chunk's keys at most its own bound and at least the previous bound
        (equality allowed -- duplicate runs may straddle a boundary), and
        globally unique row ids.
        """
        bounds = np.asarray(self._chunk_bounds, dtype=np.int64)
        assert bounds.shape[0] == len(self._chunks), "bounds/chunks mismatch"
        assert bounds.size == 0 or np.all(np.diff(bounds) >= 0), (
            "chunk bounds must be non-decreasing"
        )
        assert bounds.size and bounds[-1] == np.iinfo(np.int64).max, (
            "last chunk bound must be +inf"
        )
        assert np.array_equal(self._router.fences, bounds), (
            "router fences out of sync with chunk bounds"
        )
        previous_bound = np.iinfo(np.int64).min
        all_rowids: list[np.ndarray] = []
        for i, chunk in enumerate(self._chunks):
            chunk.check_invariants()
            values = np.asarray(chunk.values(), dtype=np.int64)
            if values.size:
                assert int(values.min()) >= previous_bound, (
                    f"chunk {i} holds keys below the previous chunk bound"
                )
                assert int(values.max()) <= int(bounds[i]), (
                    f"chunk {i} holds keys above its bound"
                )
            all_rowids.append(np.asarray(chunk.rowids(), dtype=np.int64))
            previous_bound = int(bounds[i])
        if all_rowids:
            merged = np.concatenate(all_rowids)
            assert np.unique(merged).shape[0] == merged.shape[0], (
                "duplicate row ids across chunks"
            )


def require_key(rows: list[Row], key: int) -> Row:
    """Return the single row matching ``key`` or raise ``ValueNotFoundError``."""
    if not rows:
        raise ValueNotFoundError(f"key {key} not found")
    return rows[0]

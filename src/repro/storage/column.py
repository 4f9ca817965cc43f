"""Range-partitioned column chunk with ghost values and ripple maintenance.

This is the core physical structure of the Casper storage engine (Sections 2
and 3 of the paper).  A column chunk is stored as one contiguous array whose
physical space is divided into consecutive *partition regions*.  Each region
holds the live values of one partition at its front and (optionally) ghost
values -- empty slots -- at its tail.  Partitions are range partitioned: every
live value of partition ``i`` is greater than the upper fence of partition
``i - 1`` and no larger than the fence of partition ``i``.  Inside a partition
values are unordered and queries scan the whole partition.

Supported operations mirror the paper's storage-engine repertoire:

* point queries (scan the single candidate partition),
* range queries (filter the first/last partition, blindly consume the middle),
* inserts (use local ghost slack or ripple an empty slot from a later
  partition, Fig. 4a),
* deletes (swap the victim to the partition tail; in dense mode the hole is
  rippled to the end of the column, Fig. 4b),
* updates (delete-then-place with a forward or backward ripple, Section 3).

Every operation charges an :class:`~repro.storage.cost_accounting.AccessCounter`
with the block accesses it performs, which is what the benchmark harness uses
as the simulated latency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.discipline import requires_latch

from .cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    AccessCounter,
    blocks_spanned,
)
from .errors import LayoutError, ValueNotFoundError
from .partition_index import PartitionIndex, PartitionMetadata


@dataclass
class RangeResult:
    """Result of a range query over a partitioned column."""

    count: int
    positions: np.ndarray | None = None
    values: np.ndarray | None = None


def snap_boundaries_to_duplicates(
    sorted_values: np.ndarray, boundaries: np.ndarray | list[int]
) -> np.ndarray:
    """Adjust partition end offsets so duplicate runs never straddle a boundary.

    ``boundaries`` are exclusive end offsets into ``sorted_values`` (the last
    boundary must equal ``len(sorted_values)``).  If a boundary would split a
    run of equal values it is moved forward to the end of the run, and any
    boundary that collapses onto a later one is dropped.
    """
    sorted_values = np.asarray(sorted_values)
    n = sorted_values.shape[0]
    ends = np.asarray(boundaries, dtype=np.int64).ravel()
    if ends.size:
        bad = (ends <= 0) | (ends > n)
        if np.any(bad):
            end = int(ends[np.nonzero(bad)[0][0]])
            raise LayoutError(f"boundary {end} out of range (0, {n}]")
        # The end of the duplicate run containing sorted_values[end - 1] is
        # its right insertion point; a boundary that does not split a run is
        # its own insertion point, so one searchsorted snaps every boundary.
        snapped = np.searchsorted(
            sorted_values, sorted_values[ends - 1], side="right"
        ).astype(np.int64)
        prefix_max = np.concatenate(
            ([np.int64(-1)], np.maximum.accumulate(snapped)[:-1])
        )
        snapped = snapped[snapped > prefix_max]
    else:
        snapped = np.empty(0, dtype=np.int64)
    if snapped.size == 0 or snapped[-1] != n:
        snapped = np.append(snapped, n)
    return snapped.astype(np.int64)


def sort_batch_with_rowids(
    values: np.ndarray | list[int],
    rowids: np.ndarray | None,
    next_rowid: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared bulk-write preamble: stable-sort a batch and assign row ids.

    Returns ``(order, sorted_values, sorted_rowids, out)`` where ``order``
    is the stable ascending-value permutation and ``out`` carries the
    assigned row ids back in *input* order.  When ``rowids`` is ``None``,
    fresh ids starting at ``next_rowid`` are assigned in sorted order,
    exactly as sequential inserts would hand them out.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise LayoutError("values must be one-dimensional")
    m = int(values.size)
    order = np.argsort(values, kind="stable")
    if rowids is None:
        sorted_rowids = np.arange(next_rowid, next_rowid + m, dtype=np.int64)
    else:
        rowids = np.asarray(rowids, dtype=np.int64)
        if rowids.shape != values.shape:
            raise LayoutError("rowids must align with values")
        sorted_rowids = rowids[order]
    out = np.empty(m, dtype=np.int64)
    out[order] = sorted_rowids
    return order, values[order], sorted_rowids, out


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``np.arange(s, s + l)`` for aligned start/length arrays.

    The workhorse of the vectorized batch probes: it materializes many
    half-open index ranges in one shot without a Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return np.repeat(starts, lengths) + offsets


def _blocks_spanned_sum(
    starts: np.ndarray, lengths: np.ndarray, block_values: int
) -> int:
    """Sum of :func:`blocks_spanned` over aligned spans of positive length."""
    last_blocks = (starts + lengths - 1) // block_values
    return int((last_blocks - starts // block_values + 1).sum())


def equal_width_boundaries(size: int, partitions: int) -> np.ndarray:
    """Exclusive end offsets for ``partitions`` near-equal partitions of ``size``."""
    if partitions <= 0:
        raise LayoutError("partitions must be positive")
    partitions = min(partitions, size) if size > 0 else 1
    edges = np.linspace(0, size, partitions + 1)[1:]
    boundaries = np.unique(np.round(edges).astype(np.int64))
    if boundaries.size == 0 or boundaries[-1] != size:
        boundaries = np.append(boundaries, size)
    return boundaries.astype(np.int64)


class PartitionedColumn:
    """A single range-partitioned column chunk.

    Parameters
    ----------
    sorted_values:
        The chunk's initial data, in non-decreasing order.
    boundaries:
        Exclusive end offsets of each partition within ``sorted_values``.
        The final boundary must equal ``len(sorted_values)``.
    block_values:
        Number of values per block; used purely for access accounting.
    ghost_allocation:
        Optional per-partition ghost-slot counts (same length as
        ``boundaries``).  ``None`` means a dense column.
    dense:
        If ``True`` the column keeps partitions dense: holes created by
        deletes are rippled to the end of the column instead of remaining in
        the partition as ghost slots.
    track_rowids:
        If ``True`` a parallel row-id array mirrors all data movement so a
        table can keep payload columns positionally addressable.
    counter:
        Access counter to charge; a private one is created when omitted.
    """

    GROWTH_BLOCKS = 4

    def __init__(
        self,
        sorted_values: np.ndarray | list[int],
        boundaries: np.ndarray | list[int] | None = None,
        *,
        block_values: int = DEFAULT_BLOCK_VALUES,
        ghost_allocation: np.ndarray | list[int] | None = None,
        dense: bool | None = None,
        track_rowids: bool = False,
        rowids: np.ndarray | None = None,
        counter: AccessCounter | None = None,
    ) -> None:
        values = np.asarray(sorted_values, dtype=np.int64)
        if values.ndim != 1:
            raise LayoutError("sorted_values must be one-dimensional")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise LayoutError("sorted_values must be non-decreasing")
        if block_values <= 0:
            raise LayoutError("block_values must be positive")
        self.block_values = int(block_values)
        self.counter = counter if counter is not None else AccessCounter()
        self._index = PartitionIndex()

        if boundaries is None:
            boundaries = np.asarray([values.size], dtype=np.int64)
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if values.size == 0:
            boundaries = np.asarray([0], dtype=np.int64)
        else:
            boundaries = snap_boundaries_to_duplicates(values, boundaries)
        k = boundaries.shape[0]

        if ghost_allocation is None:
            ghosts = np.zeros(k, dtype=np.int64)
        else:
            ghosts = np.asarray(ghost_allocation, dtype=np.int64)
            if ghosts.shape[0] != k:
                raise LayoutError(
                    "ghost_allocation length must match the number of partitions"
                )
            if np.any(ghosts < 0):
                raise LayoutError("ghost_allocation must be non-negative")
        if dense is None:
            dense = ghosts.sum() == 0
        self.dense = bool(dense)

        starts_data = np.concatenate(([0], boundaries[:-1]))
        counts = boundaries - starts_data
        capacities = counts + ghosts
        physical_size = int(capacities.sum())

        self._data = np.zeros(physical_size, dtype=np.int64)
        self._track_rowids = bool(track_rowids)
        if self._track_rowids:
            if rowids is None:
                rowids = np.arange(values.size, dtype=np.int64)
            else:
                rowids = np.asarray(rowids, dtype=np.int64)
                if rowids.shape[0] != values.size:
                    raise LayoutError("rowids must align with sorted_values")
            self._rowids = np.full(physical_size, -1, dtype=np.int64)
        else:
            self._rowids = None

        self._starts = np.zeros(k, dtype=np.int64)
        self._counts = counts.astype(np.int64)
        offset = 0
        for i in range(k):
            self._starts[i] = offset
            lo, hi = int(starts_data[i]), int(boundaries[i])
            self._data[offset : offset + counts[i]] = values[lo:hi]
            if self._track_rowids:
                self._rowids[offset : offset + counts[i]] = rowids[lo:hi]
            offset += int(capacities[i])

        #: Lazily-built sorted views per partition for the batch read probes:
        #: partition -> (sorted_segment, order) where ``order`` maps sorted
        #: slots back to local positions (``None`` when the live segment is
        #: already sorted).  Any write to a partition invalidates its entry.
        self._sorted_views: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        self._fences = np.zeros(k, dtype=np.int64)
        self._mins = np.zeros(k, dtype=np.int64)
        self._maxs = np.zeros(k, dtype=np.int64)
        previous_fence = np.iinfo(np.int64).min
        for i in range(k):
            if counts[i] > 0:
                segment = values[int(starts_data[i]) : int(boundaries[i])]
                self._mins[i] = segment[0]
                self._maxs[i] = segment[-1]
                self._fences[i] = segment[-1]
                previous_fence = self._fences[i]
            else:
                self._mins[i] = previous_fence
                self._maxs[i] = previous_fence
                self._fences[i] = previous_fence
        if k > 0:
            self._fences[k - 1] = np.iinfo(np.int64).max
        self._index.rebuild(self._fences)
        self._next_rowid = int(values.size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the chunk."""
        return int(self._starts.shape[0])

    @property
    def size(self) -> int:
        """Number of live values."""
        return int(self._counts.sum())

    @property
    def physical_size(self) -> int:
        """Number of physical slots (live values plus ghost slots)."""
        return int(self._data.shape[0])

    @property
    def memory_amplification(self) -> float:
        """Physical slots divided by live values."""
        live = self.size
        return float(self.physical_size) / live if live else 1.0

    def partition_counts(self) -> np.ndarray:
        """Live value count per partition."""
        return self._counts.copy()

    def partition_capacities(self) -> np.ndarray:
        """Physical capacity (live + ghost) per partition."""
        return self._capacities()

    def ghost_counts(self) -> np.ndarray:
        """Ghost (empty) slots per partition."""
        return self._capacities() - self._counts

    def partition_metadata(self) -> list[PartitionMetadata]:
        """Zonemap-style metadata for every partition."""
        return [
            PartitionMetadata(
                index=i,
                low=int(self._mins[i]),
                high=int(self._maxs[i]),
                count=int(self._counts[i]),
            )
            for i in range(self.num_partitions)
        ]

    def values(self) -> np.ndarray:
        """Materialize all live values (unsorted across the chunk)."""
        pieces = [
            self._data[s : s + c]
            for s, c in zip(self._starts, self._counts, strict=True)
            if c > 0
        ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def rowids(self) -> np.ndarray:
        """Materialize live row ids (aligned with :meth:`values`)."""
        if not self._track_rowids:
            raise LayoutError("row-id tracking is disabled for this column")
        pieces = [
            self._rowids[s : s + c]
            for s, c in zip(self._starts, self._counts, strict=True)
            if c > 0
        ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def _capacities(self) -> np.ndarray:
        ends = np.concatenate((self._starts[1:], [self._data.shape[0]]))
        return ends - self._starts

    def _partition_blocks(self, partition: int) -> int:
        # Scan cost is proportional to the data volume read (live values),
        # independent of how ghost slots shift the partition's physical
        # alignment relative to block boundaries.
        count = int(self._counts[partition])
        if count <= 0:
            return 0
        return blocks_spanned(0, count, self.block_values)

    def _invalidate_sorted(self, partition: int) -> None:
        self._sorted_views.pop(partition, None)

    def _sorted_view(
        self, partition: int, probe_count: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Sorted live segment of ``partition`` plus its position mapping.

        Returns ``(sorted_segment, order)`` where ``order`` maps sorted
        slots back to local positions; ``order`` is ``None`` when the live
        segment is already sorted.  Views are cached until the partition is
        written (every data-moving primitive invalidates its entry), which
        keeps repeated batch probes from re-sorting unchanged partitions.

        ``probe_count`` is the number of probes the caller wants to resolve
        against the view: when building one would require an argsort that
        costs more than that many linear scans, ``None`` is returned (and
        nothing cached) so the caller can fall back to per-probe scans.
        """
        cached = self._sorted_views.get(partition)
        if cached is not None:
            return cached
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        segment = self._data[start : start + count]
        if count > 1 and np.any(segment[1:] < segment[:-1]):
            if probe_count is not None and probe_count * 16 < count:
                return None
            order = np.argsort(segment, kind="stable")
            cached = (segment[order], order)
        else:
            cached = (segment, None)
        self._sorted_views[partition] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Read operations
    # ------------------------------------------------------------------ #

    def locate_partition(self, value: int) -> int:
        """Partition id that may contain ``value`` (index probe)."""
        self.counter.index_probe()
        return self._index.locate(int(value))

    @requires_latch("shared")
    def point_query(self, value: int, *, return_rowids: bool = False) -> np.ndarray:
        """Return positions (or row ids) of live entries equal to ``value``.

        The candidate partition is located via the shallow index and then
        fully scanned with one random read for its first block and sequential
        reads for the rest (Fig. 3b).
        """
        partition = self.locate_partition(value)
        blocks = self._partition_blocks(partition)
        if blocks > 0:
            self.counter.random_read(1)
            if blocks > 1:
                self.counter.seq_read(blocks - 1)
        return self._scan_partition_for(partition, value, return_rowids)

    def _scan_partition_for(
        self, partition: int, value: int, return_rowids: bool
    ) -> np.ndarray:
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        segment = self._data[start : start + count]
        local = np.nonzero(segment == value)[0]
        positions = local + start
        if return_rowids:
            if not self._track_rowids:
                raise LayoutError("row-id tracking is disabled for this column")
            return self._rowids[positions]
        return positions

    @requires_latch("shared")
    def multi_point_query(
        self, values: np.ndarray | list[int], *, return_rowids: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized point queries over many values at once.

        Returns ``(hits, counts)``: ``counts[i]`` is the number of matches of
        ``values[i]`` and ``hits`` is the flat concatenation of the matching
        positions (or row ids), grouped by input value in input order.

        Values are routed with one ``searchsorted`` over the fences, grouped
        by partition, and each touched partition is resolved through a sorted
        view (built once per partition, or reused directly when the live
        segment is already sorted).  The charged accesses are identical to
        issuing each point query individually: one index probe plus one
        random read and ``blocks - 1`` sequential reads per value.
        """
        values = np.asarray(values, dtype=np.int64)
        m = int(values.size)
        empty = np.empty(0, dtype=np.int64)
        if m == 0:
            return empty, empty
        if return_rowids and not self._track_rowids:
            raise LayoutError("row-id tracking is disabled for this column")
        self.counter.index_probe(m)
        partitions = np.minimum(
            np.searchsorted(self._index.fences, values, side="left"),
            self.num_partitions - 1,
        )
        counts_out = np.zeros(m, dtype=np.int64)
        owner_pieces: list[np.ndarray] = []
        hit_pieces: list[np.ndarray] = []
        order = np.argsort(partitions, kind="stable")
        unique_parts, group_starts, group_counts = np.unique(
            partitions[order], return_index=True, return_counts=True
        )
        random_reads = 0
        seq_reads = 0
        for partition, group_lo, group_size in zip(
            unique_parts.tolist(),
            group_starts.tolist(),
            group_counts.tolist(),
            strict=True,
        ):
            sel = order[group_lo : group_lo + group_size]
            blocks = self._partition_blocks(partition)
            if blocks > 0:
                random_reads += group_size
                seq_reads += (blocks - 1) * group_size
            start = int(self._starts[partition])
            count = int(self._counts[partition])
            wanted = values[sel]
            view = self._sorted_view(partition, probe_count=group_size)
            if view is None:
                # Small probe group on an unindexed partition: per-value
                # linear scans beat building a sorted view.
                segment = self._data[start : start + count]
                for owner, value in zip(sel.tolist(), wanted.tolist(), strict=True):
                    local = np.nonzero(segment == value)[0]
                    if local.size:
                        counts_out[owner] = local.size
                        owner_pieces.append(
                            np.full(local.size, owner, dtype=np.int64)
                        )
                        positions = local + start
                        hit_pieces.append(
                            self._rowids[positions]
                            if return_rowids
                            else positions
                        )
                continue
            seg_sorted, seg_order = view
            lo = np.searchsorted(seg_sorted, wanted, side="left")
            hi = np.searchsorted(seg_sorted, wanted, side="right")
            hits_per_value = (hi - lo).astype(np.int64)
            if not np.any(hits_per_value):
                continue
            local = expand_ranges(lo, hits_per_value)
            if seg_order is not None:
                # Stable argsort keeps equal values in physical order, so the
                # per-value hit order matches the per-op partition scan.
                local = seg_order[local]
            positions = local + start
            counts_out[sel] = hits_per_value
            owner_pieces.append(np.repeat(sel, hits_per_value))
            hit_pieces.append(
                self._rowids[positions] if return_rowids else positions
            )
        if random_reads:
            self.counter.random_read(random_reads)
        if seq_reads:
            self.counter.seq_read(seq_reads)
        if not owner_pieces:
            return empty, counts_out
        owners = np.concatenate(owner_pieces)
        hits = np.concatenate(hit_pieces)
        return hits[np.argsort(owners, kind="stable")], counts_out

    @requires_latch("shared")
    def multi_range_count(
        self, lows: np.ndarray | list[int], highs: np.ndarray | list[int]
    ) -> np.ndarray:
        """Vectorized range counts for aligned ``lows``/``highs`` arrays.

        Boundary partitions are resolved through per-partition sorted views;
        fully covered middle partitions contribute their live counts through
        a prefix sum (they are blindly consumed, exactly like
        :meth:`range_query`).  Charged accesses match issuing each range
        query individually with ``materialize=False``.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        m = int(lows.size)
        if m == 0:
            if lows.shape != highs.shape:
                raise ValueError("lows and highs must be aligned")
            return np.empty(0, dtype=np.int64)
        first, last = self._index.locate_range_batch(lows, highs, spanning=False)
        self.counter.index_probe(m)

        counts = self._counts.astype(np.int64)
        blocks = np.where(
            counts > 0, (counts + self.block_values - 1) // self.block_values, 0
        )
        blocks_cum = np.concatenate(([0], np.cumsum(blocks)))
        counts_cum = np.concatenate(([0], np.cumsum(counts)))
        first_blocks = blocks[first]
        random_reads = int(np.count_nonzero(first_blocks > 0))
        seq_reads = int(np.sum(np.where(first_blocks > 0, first_blocks - 1, 0)))
        seq_reads += int(np.sum(blocks_cum[last + 1] - blocks_cum[first + 1]))
        if random_reads:
            self.counter.random_read(random_reads)
        if seq_reads:
            self.counter.seq_read(seq_reads)

        totals = np.zeros(m, dtype=np.int64)
        spanning = last > first
        totals[spanning] = (
            counts_cum[last[spanning]] - counts_cum[first[spanning] + 1]
        )
        # Boundary partitions, grouped by partition: each touched partition is
        # sorted (or reused directly) once and resolves all of its ranges
        # with a single searchsorted pair.
        boundary_parts = np.concatenate((first, last[spanning]))
        owners = np.concatenate(
            (np.arange(m, dtype=np.int64), np.nonzero(spanning)[0])
        )
        for partition in np.unique(boundary_parts):
            partition = int(partition)
            sel = owners[boundary_parts == partition]
            view = self._sorted_view(partition, probe_count=int(sel.size))
            if view is None:
                # Small range group on an unindexed partition: per-range
                # mask counts beat building a sorted view.
                start = int(self._starts[partition])
                count = int(self._counts[partition])
                segment = self._data[start : start + count]
                for owner in sel.tolist():
                    totals[owner] += int(
                        (
                            (segment >= lows[owner]) & (segment <= highs[owner])
                        ).sum()
                    )
                continue
            segment, _ = view
            totals[sel] += (
                np.searchsorted(segment, highs[sel], side="right")
                - np.searchsorted(segment, lows[sel], side="left")
            )
        return totals

    @requires_latch("shared")
    def range_query(
        self,
        low: int,
        high: int,
        *,
        materialize: bool = True,
        return_rowids: bool = False,
    ) -> RangeResult:
        """Evaluate the inclusive predicate ``low <= value <= high``.

        The first and last overlapping partitions are filtered; intermediate
        partitions are blindly consumed (Fig. 3c).  When ``materialize`` is
        ``False`` only the qualifying count is computed (still charging the
        same accesses, as the engine must touch the blocks either way).
        """
        if low > high:
            raise ValueError("low must be <= high")
        self.counter.index_probe()
        # Boundaries are snapped to duplicate runs and inserts route to the
        # first candidate partition, so no run straddles a partition
        # boundary: the tight span is exact and matches the cost model.
        first, last = self._index.locate_range(int(low), int(high), spanning=False)

        total = 0
        position_chunks: list[np.ndarray] = []
        for partition in range(first, last + 1):
            blocks = self._partition_blocks(partition)
            if blocks > 0:
                if partition == first:
                    self.counter.random_read(1)
                    if blocks > 1:
                        self.counter.seq_read(blocks - 1)
                else:
                    self.counter.seq_read(blocks)
            start = int(self._starts[partition])
            count = int(self._counts[partition])
            if count == 0:
                continue
            segment = self._data[start : start + count]
            if partition in (first, last):
                mask = (segment >= low) & (segment <= high)
                qualifying = np.nonzero(mask)[0] + start
            else:
                qualifying = np.arange(start, start + count, dtype=np.int64)
            total += int(qualifying.shape[0])
            if materialize:
                position_chunks.append(qualifying)

        positions = None
        values = None
        if materialize:
            positions = (
                np.concatenate(position_chunks)
                if position_chunks
                else np.empty(0, dtype=np.int64)
            )
            if return_rowids:
                if not self._track_rowids:
                    raise LayoutError("row-id tracking is disabled for this column")
                values = self._rowids[positions]
            else:
                values = self._data[positions]
        return RangeResult(count=total, positions=positions, values=values)

    @requires_latch("shared")
    def range_rowids(self, low: int, high: int) -> np.ndarray:
        """Row ids of live entries whose value lies in ``[low, high]``."""
        result = self.range_query(low, high, materialize=True, return_rowids=True)
        return result.values if result.values is not None else np.empty(0, dtype=np.int64)

    @requires_latch("shared")
    def full_scan(self) -> np.ndarray:
        """Scan the entire chunk sequentially and return live values."""
        total_blocks = blocks_spanned(0, self.physical_size, self.block_values)
        if total_blocks > 0:
            self.counter.seq_read(total_blocks)
        return self.values()

    # ------------------------------------------------------------------ #
    # Write operations
    # ------------------------------------------------------------------ #

    @requires_latch("exclusive")
    def insert(self, value: int, rowid: int | None = None) -> int:
        """Insert ``value`` and return its row id.

        The target partition is the first one whose fence covers the value.
        If it (or a later partition) has a ghost slot, the slot is rippled
        backwards to the target partition; otherwise the column grows.
        """
        value = int(value)
        target = self.locate_partition(value)
        if rowid is None:
            rowid = self._next_rowid
        self._next_rowid = max(self._next_rowid, rowid + 1)

        donor = self._find_slack_partition(target)
        if donor is None:
            self._grow()
            donor = self.num_partitions - 1
        if donor != target:
            # Fetching the empty slot from the end of the column touches one
            # extra block in the donor partition (Section 3 / Eq. 9).
            self.counter.random_read(1)
            self.counter.random_write(1)
        self._ripple_slot_backward(donor, target)

        start = int(self._starts[target])
        position = start + int(self._counts[target])
        self._data[position] = value
        if self._track_rowids:
            self._rowids[position] = rowid
        self._counts[target] += 1
        self._invalidate_sorted(target)
        self.counter.random_read(1)
        self.counter.random_write(1)
        self._refresh_minmax_on_insert(target, value)
        return int(rowid)

    def _charged_point_scan(self, value: int) -> tuple[int, np.ndarray]:
        """Locate and scan ``value``'s partition, charging the accesses.

        The shared preamble of every single-value write path: one index
        probe, one random read plus ``blocks - 1`` sequential reads for the
        partition scan.  Raises :class:`ValueNotFoundError` when absent.
        """
        partition = self.locate_partition(value)
        blocks = self._partition_blocks(partition)
        if blocks > 0:
            self.counter.random_read(1)
            if blocks > 1:
                self.counter.seq_read(blocks - 1)
        positions = self._scan_partition_for(partition, value, return_rowids=False)
        if positions.shape[0] == 0:
            raise ValueNotFoundError(f"value {value} not found")
        return partition, positions

    def _oldest_first(self, positions: np.ndarray) -> np.ndarray:
        """Candidate positions reordered oldest row (smallest row id) first.

        The **duplicate-victim rule**: every single-victim write path
        (delete / remove_one / update, and the bulk paths that replay
        them) removes the oldest surviving copy of a duplicated value,
        so which physical copy dies is a deterministic function of the
        operation history -- serial and sharded executions agree exactly,
        payloads included.  Columns without row-id tracking fall back to
        physical scan order (their copies are indistinguishable).
        """
        if not self._track_rowids or positions.shape[0] < 2:
            return positions
        return positions[np.argsort(self._rowids[positions], kind="stable")]

    @requires_latch("exclusive")
    def delete(self, value: int) -> int:
        """Delete one occurrence of ``value`` (:meth:`remove_one`) and
        return 1."""
        self.remove_one(value)
        return 1

    @requires_latch("exclusive")
    def remove_one(self, value: int) -> int | None:
        """Delete the oldest copy of ``value`` (:meth:`_oldest_first`) and
        return its row id (``None`` when row ids are untracked), so callers
        moving a row between chunks keep global row ids consistent.  Raises
        :class:`ValueNotFoundError` when the value is absent."""
        value = int(value)
        partition, positions = self._charged_point_scan(value)
        position = int(self._oldest_first(positions)[0])
        rowid = int(self._rowids[position]) if self._track_rowids else None
        self._remove_at(partition, position)
        if self.dense:
            self._ripple_hole_forward(partition, self.num_partitions - 1)
        return rowid

    @requires_latch("exclusive")
    def update(self, old_value: int, new_value: int) -> None:
        """Update one occurrence of ``old_value`` to ``new_value``.

        Implements the direct ripple update of Section 3: a point query finds
        the source partition, the victim is swapped to the partition tail
        (creating a hole) and the hole ripples forward or backward to the
        target partition where the new value is placed.  With ghost values
        the ripple is skipped whenever the target partition already has local
        slack.
        """
        old_value = int(old_value)
        new_value = int(new_value)
        source, positions = self._charged_point_scan(old_value)
        victim = int(self._oldest_first(positions)[0])
        rowid = int(self._rowids[victim]) if self._track_rowids else None
        self._remove_at(source, victim)
        # Moving the hole to the end of the source partition: one extra
        # read/write pair on top of the delete's write (Eq. 12/14).
        self.counter.random_read(1)
        self.counter.random_write(1)

        target = self._index.locate(new_value)
        if self.dense or self._partition_slack(target) == 0:
            # Bring the hole at the source's tail over to the target.
            if target >= source:
                self._ripple_hole_forward(source, target)
            else:
                self._ripple_slot_backward(source, target)

        start = int(self._starts[target])
        position = start + int(self._counts[target])
        self._data[position] = new_value
        if self._track_rowids:
            self._rowids[position] = rowid if rowid is not None else self._next_rowid
        self._counts[target] += 1
        self._invalidate_sorted(target)
        self.counter.random_read(1)
        self.counter.random_write(1)
        self._refresh_minmax_on_insert(target, new_value)

    # ------------------------------------------------------------------ #
    # Bulk write operations
    # ------------------------------------------------------------------ #

    @requires_latch("exclusive")
    def bulk_insert(
        self, values: np.ndarray | list[int], rowids: np.ndarray | None = None
    ) -> np.ndarray:
        """Insert a batch of values with one coalesced ripple sweep.

        Equivalent to calling :meth:`insert` once per value in ascending
        (stable) value order: the final layout, row ids and fences are
        byte-identical.  The batch is routed with a single ``searchsorted``
        over the fences, slack donors are consumed in the same greedy order
        as the sequential path, and all ripples are folded into one gather
        and one scatter over all touched partitions, each rotated once (the
        batched Fig. 4a); the batch itself lands with one more scatter.
        Charged accesses are at most the sequential path's: the per-partition
        ripple and tail placements charge each touched block once instead of
        once per insert, and are exactly equal when no partition is rippled
        through or appended to more than once.

        Returns the row ids of the inserted values, aligned with the *input*
        order.  When ``rowids`` is omitted, fresh row ids are assigned in
        ascending value order, exactly as sequential inserts would.
        """
        _, sorted_values, sorted_rowids, out = sort_batch_with_rowids(
            values, rowids, self._next_rowid
        )
        m = int(sorted_values.size)
        if m == 0:
            return out
        self._next_rowid = max(self._next_rowid, int(sorted_rowids.max()) + 1)

        self.counter.index_probe(m)
        k = self.num_partitions
        # First-candidate (insert) routing is locate_batch's `first` array.
        targets, _ = self._index.locate_batch(sorted_values)

        # Replay the sequential donor selection on metadata only: slack is
        # consumed greedily from the first partition >= target, with a
        # next-nonzero pointer chain standing in for the per-insert scan.
        slack = (self._capacities() - self._counts).astype(np.int64).tolist()
        nxt = list(range(k + 1))

        def find_slack(partition: int) -> int:
            cursor = partition
            path = []
            while cursor < k and slack[cursor] == 0:
                path.append(cursor)
                cursor = nxt[cursor] if nxt[cursor] > cursor else cursor + 1
            for node in path:
                nxt[node] = cursor
            return cursor

        grow_extra = self.GROWTH_BLOCKS * self.block_values
        growths = 0
        if k == 1 or not any(slack[:-1]):
            # Dense columns keep all slack at the tail (holes ripple to the
            # end of the column), so every donor is the last partition and
            # the greedy replay collapses to closed forms: ripples through
            # partition p are the inserts targeting partitions before it.
            tail_slack = slack[k - 1]
            if m > tail_slack:
                growths = -(-(m - tail_slack) // grow_extra)
            donor_pairs = int(np.count_nonzero(targets != k - 1))
            through = np.searchsorted(targets, np.arange(k), side="left")
            through[0] = 0
        else:
            donor_pairs = 0
            ripple_diff = np.zeros(k + 1, dtype=np.int64)
            for target in targets.tolist():
                donor = find_slack(target)
                if donor == k:
                    # Only the last partition ever regains slack (via growth).
                    if slack[k - 1] > 0:
                        donor = k - 1
                    else:
                        growths += 1
                        slack[k - 1] += grow_extra
                        donor = k - 1
                if donor != target:
                    donor_pairs += 1
                    ripple_diff[target + 1] += 1
                    ripple_diff[donor + 1] -= 1
                slack[donor] -= 1
            through = np.cumsum(ripple_diff)[:k]

        for _ in range(growths):
            self._grow()
        if donor_pairs:
            self.counter.random_read(donor_pairs)
            self.counter.random_write(donor_pairs)

        # Coalesced backward ripple sweep: rippling through a partition n
        # times rotates it left by n and shifts its start right by n.  Only
        # the first min(n, count) elements change absolute position, so all
        # touched partitions move in one gather and one scatter: the gather
        # reads every source before any write, and the destinations lie in
        # the partitions' final (disjoint) regions.
        touched = np.nonzero(through > 0)[0]
        if touched.size:
            shift = through[touched]
            start = self._starts[touched]
            count = self._counts[touched]
            self.counter.random_read(
                _blocks_spanned_sum(start, shift, self.block_values)
            )
            self.counter.random_write(
                _blocks_spanned_sum(start + count, shift, self.block_values)
            )
            moved = np.minimum(shift, count)
            owner = np.repeat(np.arange(touched.size), moved)
            local = np.arange(owner.size) - (np.cumsum(moved) - moved)[owner]
            first, by = start[owner], shift[owner]
            src = first + local
            dst = first + by + (local - by) % count[owner]
            self._data[dst] = self._data[src]
            if self._track_rowids:
                self._rowids[dst] = self._rowids[src]
            self._starts += through

        # Tail placements: one scatter for the batch, grouped by the
        # (already sorted) target partition.
        group_starts = np.nonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        )[0]
        group_ends = np.concatenate((group_starts[1:], [m]))
        group_counts = group_ends - group_starts
        unique_targets = targets[group_starts]
        previous = self._counts[unique_targets]
        tails = self._starts[unique_targets] + previous
        blocks = _blocks_spanned_sum(tails, group_counts, self.block_values)
        self.counter.random_read(blocks)
        self.counter.random_write(blocks)
        dst = np.repeat(tails - group_starts, group_counts) + np.arange(m)
        self._data[dst] = sorted_values
        if self._track_rowids:
            self._rowids[dst] = sorted_rowids
        self._counts[unique_targets] = previous + group_counts
        lows = sorted_values[group_starts]
        highs = sorted_values[group_ends - 1]
        empty = previous == 0
        self._mins[unique_targets] = np.where(
            empty, lows, np.minimum(self._mins[unique_targets], lows)
        )
        self._maxs[unique_targets] = np.where(
            empty, highs, np.maximum(self._maxs[unique_targets], highs)
        )
        raised = (unique_targets < k - 1) & (highs > self._fences[unique_targets])
        for partition, high in zip(
            unique_targets[raised].tolist(), highs[raised].tolist(), strict=True
        ):
            self._fences[partition] = high
            self._index.update_fence(partition, high)
        # A cached view of a sorted segment is a slice of ``_data``: drop
        # the view of every partition that was shifted or appended to.
        if self._sorted_views:
            for partition in np.concatenate((touched, unique_targets)).tolist():
                self._invalidate_sorted(partition)
        return out

    @requires_latch("exclusive")
    def bulk_delete(self, values: np.ndarray | list[int]) -> np.ndarray:
        """Delete one occurrence of each value with one coalesced hole sweep.

        Equivalent to calling ``delete(value)`` once per value in
        ascending (stable) value order, except that absent values are
        reported as ``0`` in the returned per-value count array instead of
        raising.  Each touched partition is scanned once for all of its
        victims, the sequential swap-with-last cascade is replayed in
        place, and in dense mode all holes ripple to the end of the
        column in one forward rotation sweep (the batched Fig. 4b).  The
        live layout -- every partition's start, count, live values and row
        ids, plus fences and min/max metadata -- is identical to the
        sequential path's; only dead slots (ghost slack and rippled-out
        holes, which no read ever touches) may retain different stale
        bytes, because the coalesced sweep does not rewrite slots it
        immediately abandons.  Charged accesses are at most the
        ascending-order sequential path's and exactly equal when at most
        one hole passes through any partition.  (Relative to some *other*
        submission order the totals can differ slightly: a missed delete's
        scan is charged at the live count the ascending replay sees, which
        is the documented reference.)

        Returns an array aligned with the input: 1 where a value was
        deleted, 0 where it was absent.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise LayoutError("values must be one-dimensional")
        m = int(values.size)
        deleted = np.zeros(m, dtype=np.int64)
        if m == 0:
            return deleted
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        self.counter.index_probe(m)
        k = self.num_partitions
        # Deletes scan the first candidate partition, like locate().
        targets, _ = self._index.locate_batch(sorted_values)
        deleted_sorted = np.zeros(m, dtype=np.int64)

        unique_targets, group_starts, group_counts = np.unique(
            targets, return_index=True, return_counts=True
        )
        groups = {
            int(partition): (int(lo), int(cnt))
            for partition, lo, cnt in zip(
                unique_targets, group_starts, group_counts, strict=True
            )
        }
        first_touched = int(unique_targets[0])
        last_touched = int(unique_targets[-1])
        sweep_end = k if self.dense else last_touched + 1
        holes = 0
        for partition in range(first_touched, sweep_end):
            if holes:
                self._apply_hole_rotation(partition, holes)
            group = groups.get(partition)
            if group is None:
                continue
            lo, cnt = group
            removed = self._bulk_delete_partition(
                partition, sorted_values, deleted_sorted, lo, cnt
            )
            if self.dense:
                holes += removed
        deleted[order] = deleted_sorted
        return deleted

    def _apply_hole_rotation(self, partition: int, holes: int) -> None:
        """Ripple ``holes`` empty slots through ``partition`` in one rotation.

        The coalesced form of ``holes`` consecutive
        :meth:`_ripple_hole_forward` steps: the partition rotates right by
        ``holes`` and its start shifts left, with the read/write charges
        covering each touched block once instead of once per hole.
        """
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        self.counter.random_read(
            blocks_spanned(start + count - holes, holes, self.block_values)
        )
        self.counter.random_write(
            blocks_spanned(start - holes, holes, self.block_values)
        )
        if count > 0:
            if holes < count:
                # Rotating right by ``holes`` while the region shifts left by
                # ``holes`` leaves all but the last ``holes`` elements at
                # their absolute positions: only the rotated suffix moves (to
                # the new front).
                self._data[start - holes : start] = self._data[
                    start + count - holes : start + count
                ]
                if self._track_rowids:
                    self._rowids[start - holes : start] = self._rowids[
                        start + count - holes : start + count
                    ]
            else:
                rotation = holes % count
                segment = self._data[start : start + count]
                if rotation:
                    segment = np.concatenate(
                        (segment[-rotation:], segment[:-rotation])
                    )
                self._data[start - holes : start - holes + count] = segment
                if self._track_rowids:
                    ids = self._rowids[start : start + count]
                    if rotation:
                        ids = np.concatenate((ids[-rotation:], ids[:-rotation]))
                    self._rowids[start - holes : start - holes + count] = ids
        self._starts[partition] = start - holes
        self._invalidate_sorted(partition)

    def _bulk_delete_partition(
        self,
        partition: int,
        sorted_values: np.ndarray,
        deleted_sorted: np.ndarray,
        lo: int,
        cnt: int,
    ) -> int:
        """Delete ``sorted_values[lo : lo + cnt]`` from one partition.

        One scan finds every victim candidate; the sequential swap-with-last
        cascade is then replayed in place on the live segment (lazy
        oldest-copy heaps track values re-exposed by swaps), charging
        each delete the same partition scan and swap write it would pay on
        the per-value path.  The per-value victim is the oldest surviving
        copy (smallest row id -- the rule :meth:`_oldest_first` pins for
        the sequential path; physical scan order when row ids are
        untracked).  Returns the number of removed entries.
        """
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        segment = self._data[start : start + count]
        ids = self._rowids[start : start + count] if self._track_rowids else None

        def sort_key(position: int) -> int:
            return int(ids[position]) if ids is not None else position

        small_group = cnt * 16 < count
        positions_by_value: dict[int, list[tuple[int, int]]] = {}
        if count and not small_group:
            wanted = sorted_values[lo : lo + cnt]
            for position in np.nonzero(np.isin(segment, wanted))[0].tolist():
                positions_by_value.setdefault(int(segment[position]), []).append(
                    (sort_key(position), position)
                )
            for heap in positions_by_value.values():
                heapq.heapify(heap)
        live = count
        removed = 0
        last_victim = 0
        low = int(self._mins[partition])
        high = int(self._maxs[partition])
        extreme_removed = False
        random_reads = 0
        seq_reads = 0
        random_writes = 0
        for i in range(lo, lo + cnt):
            value = int(sorted_values[i])
            blocks = blocks_spanned(0, live, self.block_values)
            if blocks > 0:
                random_reads += 1
                seq_reads += blocks - 1
            if small_group:
                # Few victims in a large partition: a per-value scan of the
                # (in-place mutated) live segment replays the sequential
                # oldest-copy choice without the candidate index.
                local = np.nonzero(segment[:live] == value)[0]
                if local.size:
                    position = int(
                        local[int(np.argmin(ids[local]))]
                        if ids is not None
                        else local[0]
                    )
                else:
                    position = None
            else:
                heap = positions_by_value.get(value)
                position = None
                while heap:
                    key, candidate = heap[0]
                    # Lazy invalidation: a candidate slot is stale once it
                    # fell off the live segment, holds another value, or
                    # (after a same-value swap) holds a different copy.
                    if (
                        candidate >= live
                        or int(segment[candidate]) != value
                        or sort_key(candidate) != key
                    ):
                        heapq.heappop(heap)
                        continue
                    position = heapq.heappop(heap)[1]
                    break
            if position is None:
                continue
            last = live - 1
            moved = int(segment[last])
            segment[position] = moved
            if ids is not None:
                ids[position] = ids[last]
            random_writes += 1
            live -= 1
            if (
                not small_group
                and position < live
                and moved in positions_by_value
            ):
                heapq.heappush(
                    positions_by_value[moved], (sort_key(position), position)
                )
            deleted_sorted[i] = 1
            removed += 1
            last_victim = value
            if value == low or value == high:
                extreme_removed = True
        if random_reads:
            self.counter.random_read(random_reads)
        if seq_reads:
            self.counter.seq_read(seq_reads)
        if random_writes:
            self.counter.random_write(random_writes)
        if removed:
            self._counts[partition] = live
            self._invalidate_sorted(partition)
            if live > 0:
                # The zonemap is exact, so only losing a copy of the stored
                # min or max can move it.
                if extreme_removed:
                    live_segment = segment[:live]
                    self._mins[partition] = int(live_segment.min())
                    self._maxs[partition] = int(live_segment.max())
            else:
                # The sequential path's last refresh saw the lone survivor,
                # which is the final victim itself.
                self._mins[partition] = last_victim
                self._maxs[partition] = last_victim
        return removed

    # ------------------------------------------------------------------ #
    # Internal mechanics
    # ------------------------------------------------------------------ #

    def _partition_slack(self, partition: int) -> int:
        capacity = (
            int(self._starts[partition + 1]) - int(self._starts[partition])
            if partition + 1 < self.num_partitions
            else self.physical_size - int(self._starts[partition])
        )
        return capacity - int(self._counts[partition])

    def _find_slack_partition(self, start_partition: int) -> int | None:
        for partition in range(start_partition, self.num_partitions):
            if self._partition_slack(partition) > 0:
                return partition
        return None

    def _grow(self) -> None:
        extra = self.GROWTH_BLOCKS * self.block_values
        self._data = np.concatenate(
            (self._data, np.zeros(extra, dtype=np.int64))
        )
        if self._track_rowids:
            self._rowids = np.concatenate(
                (self._rowids, np.full(extra, -1, dtype=np.int64))
            )
        # Cached sorted views slice the replaced buffers; drop them so they
        # do not pin the pre-growth array generations in memory.
        self._sorted_views.clear()
        self.counter.seq_write(self.GROWTH_BLOCKS)

    # The two scalar ripples stay Python loops on purpose.  Written as a
    # gather/scatter like bulk_insert's sweep they measured 18 % cheaper
    # where one ripple crosses ~10 partitions (oltp_durable) and 45 % dearer
    # where it crosses 1-3 (drift_reorg: 0.38 -> 0.55 ms per write call).

    def _ripple_slot_backward(self, donor: int, target: int) -> None:
        """Move one empty slot from ``donor``'s tail into ``target``'s tail.

        Walks partitions from the donor down to ``target + 1``; each step
        moves the partition's first live element onto the free slot at its own
        tail and shifts the partition's start one slot to the right, handing
        the freed slot to the preceding partition (Fig. 4a).  Charges one
        read/write pair per partition boundary crossed, matching the
        ``trail_parts`` terms of Eqs. 12-15.
        """
        for partition in range(donor, target, -1):
            start = int(self._starts[partition])
            count = int(self._counts[partition])
            if count > 0:
                free_slot = start + count
                self._data[free_slot] = self._data[start]
                if self._track_rowids:
                    self._rowids[free_slot] = self._rowids[start]
            self._starts[partition] = start + 1
            self._invalidate_sorted(partition)
            self.counter.random_read(1)
            self.counter.random_write(1)

    def _ripple_hole_forward(self, source: int, target: int) -> None:
        """Push the hole at ``source``'s tail forward to ``target``'s tail.

        Dense deletes push it to the last partition, i.e. the end of the
        column (Fig. 4b).  Charges like :meth:`_ripple_slot_backward`.
        """
        for follower in range(source + 1, target + 1):
            start = int(self._starts[follower])
            count = int(self._counts[follower])
            hole = start - 1
            if count > 0:
                last = start + count - 1
                self._data[hole] = self._data[last]
                if self._track_rowids:
                    self._rowids[hole] = self._rowids[last]
            self._starts[follower] = start - 1
            self._invalidate_sorted(follower)
            self.counter.random_read(1)
            self.counter.random_write(1)

    def _remove_at(self, partition: int, position: int) -> None:
        """Swap the entry at ``position`` with the partition's last live entry."""
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        last = start + count - 1
        victim = self._data[position]
        self._data[position] = self._data[last]
        if self._track_rowids:
            self._rowids[position] = self._rowids[last]
        self._counts[partition] = count - 1
        self._invalidate_sorted(partition)
        self.counter.random_write(1)
        # The zonemap is exact, so only losing a copy of the stored min or
        # max can move it; an emptied partition keeps its last value.
        if count > 1 and (
            victim == self._mins[partition] or victim == self._maxs[partition]
        ):
            segment = self._data[start:last]
            self._mins[partition] = segment.min()
            self._maxs[partition] = segment.max()

    def _refresh_minmax_on_insert(self, partition: int, value: int) -> None:
        count = int(self._counts[partition])
        if count == 1:
            self._mins[partition] = value
            self._maxs[partition] = value
        else:
            if value < self._mins[partition]:
                self._mins[partition] = value
            if value > self._maxs[partition]:
                self._maxs[partition] = value
        if partition < self.num_partitions - 1 and value > self._fences[partition]:
            self._fences[partition] = value
            self._index.update_fence(partition, value)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is violated."""
        k = self.num_partitions
        capacities = self._capacities()
        assert np.all(self._counts >= 0), "negative partition count"
        assert np.all(capacities >= self._counts), "partition overflow"
        assert int(capacities.sum()) == self.physical_size, "capacity mismatch"
        previous_max = None
        for i in range(k):
            start = int(self._starts[i])
            count = int(self._counts[i])
            if count == 0:
                continue
            segment = self._data[start : start + count]
            if previous_max is not None:
                assert segment.min() >= previous_max, (
                    f"range-partition invariant violated at partition {i}"
                )
            assert segment.max() <= self._fences[i], (
                f"fence invariant violated at partition {i}"
            )
            assert int(self._mins[i]) == segment.min(), f"stale min at partition {i}"
            assert int(self._maxs[i]) == segment.max(), f"stale max at partition {i}"
            previous_max = segment.max()
        if self._track_rowids:
            live_rowids = self.rowids()
            assert np.unique(live_rowids).shape[0] == live_rowids.shape[0], (
                "duplicate row ids"
            )

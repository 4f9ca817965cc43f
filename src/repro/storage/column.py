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
* their batched forms (``multi_point_query`` / ``multi_range_count``: route
  and charge the whole batch with array arithmetic, then one contiguous scan
  per probe),
* inserts (use local ghost slack or ripple an empty slot from a later
  partition, Fig. 4a),
* deletes (swap the victim to the partition tail; in dense mode the hole is
  rippled to the end of the column, Fig. 4b),
* updates (delete-then-place with a forward or backward ripple, Section 3).

Every operation charges an :class:`~repro.storage.cost_accounting.AccessCounter`
with the block accesses it performs, which is what the benchmark harness uses
as the simulated latency.

A column is always built from sorted values, so until a write moves values
in it a partition is still in *load order*.  One flag per partition records
that; every data-moving primitive clears it for each partition it writes.
The batched read kernels and the range filters binary-search a flagged
partition instead of masking it -- a wall-clock shortcut only: the charges
are the full-partition scan's either way.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

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


def _blocks_spanned_sums(
    starts: np.ndarray,
    lengths: np.ndarray,
    block_values: int | np.ndarray,
    cuts: list[int],
) -> list[int]:
    """Sums of :func:`blocks_spanned` over aligned spans of positive length,
    one per segment ``cuts[i]:cuts[i + 1]`` (the last runs to the end;
    every segment non-empty)."""
    last_blocks = (starts + lengths - 1) // block_values
    return np.add.reduceat(last_blocks - starts // block_values + 1, cuts).tolist()


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
    rowids:
        Row ids aligned with ``sorted_values``; ``None`` means load order
        ``0..n-1``.  A parallel row-id array mirrors all data movement so a
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
        rowids: np.ndarray | None = None,
        counter: AccessCounter | None = None,
    ) -> None:
        values = np.asarray(sorted_values, dtype=np.int64)
        if values.ndim != 1:
            raise LayoutError("sorted_values must be one-dimensional")
        if np.any(values[1:] < values[:-1]):
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
        if rowids is None:
            rowids = np.arange(values.size, dtype=np.int64)
        else:
            rowids = np.asarray(rowids, dtype=np.int64)
            if rowids.shape[0] != values.size:
                raise LayoutError("rowids must align with sorted_values")
        self._rowids = np.full(physical_size, -1, dtype=np.int64)

        self._starts = np.zeros(k, dtype=np.int64)
        self._counts = counts.astype(np.int64)
        offset = 0
        for i in range(k):
            self._starts[i] = offset
            lo, hi = int(starts_data[i]), int(boundaries[i])
            self._data[offset : offset + counts[i]] = values[lo:hi]
            self._rowids[offset : offset + counts[i]] = rowids[lo:hi]
            offset += int(capacities[i])

        #: Per partition: the live segment is still in load order (sorted),
        #: so the read kernels may binary-search it.  Every data-moving
        #: primitive clears the flag of each partition it writes.
        self._load_order = np.ones(k, dtype=bool)
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

    def _clear_load_order(self, partition: int) -> None:
        self._load_order[partition] = False

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
            return self._rowids[positions]
        return positions

    @requires_latch("shared")
    def multi_point_query(
        self, values: np.ndarray | list[int], *, return_rowids: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized point queries over many values at once.

        Returns ``(hits, counts)``: ``counts[i]`` is the number of matches of
        ``values[i]`` and ``hits`` is the flat concatenation of the matching
        positions (or row ids), grouped by input value in input order and in
        physical order within a value -- exactly what one :meth:`point_query`
        per value returns, concatenated.

        The batch is routed with one ``searchsorted`` over the fences and
        charged with array arithmetic: one index probe plus one random read
        and ``blocks - 1`` sequential reads per value, as issuing each point
        query individually charges.  Then each value does one contiguous
        scan of its partition: a mask, or a ``searchsorted`` pair while the
        partition is still in load order.
        """
        values = np.asarray(values, dtype=np.int64)
        m = int(values.size)
        empty = np.empty(0, dtype=np.int64)
        if m == 0:
            return empty, empty
        self.counter.index_probe(m)
        partitions = np.minimum(
            np.searchsorted(self._index.fences, values, side="left"),
            self.num_partitions - 1,
        )
        counts = self._counts[partitions]
        blocks = -(-counts // self.block_values)
        random_reads = int(np.count_nonzero(blocks))
        if random_reads:
            self.counter.random_read(random_reads)
            seq_reads = int(blocks.sum()) - random_reads
            if seq_reads:
                self.counter.seq_read(seq_reads)

        starts = self._starts[partitions]
        data = self._data
        source = self._rowids if return_rowids else None
        hit_counts: list[int] = []
        pieces: list[np.ndarray] = []
        for value, start, stop, in_order in zip(
            values.tolist(),
            starts.tolist(),
            (starts + counts).tolist(),
            self._load_order[partitions].tolist(),
            strict=True,
        ):
            segment = data[start:stop]
            if in_order:
                lo = start + int(segment.searchsorted(value, side="left"))
                hi = start + int(segment.searchsorted(value, side="right"))
                hit_counts.append(hi - lo)
                if hi > lo:
                    pieces.append(
                        source[lo:hi]
                        if source is not None
                        else np.arange(lo, hi, dtype=np.int64)
                    )
                continue
            local = (segment == value).nonzero()[0]
            hit_counts.append(local.size)
            if local.size:
                pieces.append(
                    source[start:stop][local] if source is not None else local + start
                )
        hits = np.concatenate(pieces) if pieces else empty
        return hits, np.asarray(hit_counts, dtype=np.int64)

    @requires_latch("shared")
    def multi_range_count(
        self, lows: np.ndarray | list[int], highs: np.ndarray | list[int]
    ) -> np.ndarray:
        """Vectorized range counts for aligned ``lows``/``highs`` arrays.

        Charges are array arithmetic and fully covered middle partitions
        contribute their live counts through a prefix sum (they are blindly
        consumed, exactly like :meth:`range_query`).  Each range then
        resolves its one or two boundary partitions with one mask count
        each, or a ``searchsorted`` pair while the partition is still in
        load order.  Charged accesses match issuing each range query
        individually with ``materialize=False``.
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

        counts = self._counts
        blocks = -(-counts // self.block_values)
        blocks_cum = np.concatenate(([0], np.cumsum(blocks)))
        counts_cum = np.concatenate(([0], np.cumsum(counts)))
        random_reads = int(np.count_nonzero(blocks[first]))
        seq_reads = int((blocks_cum[last + 1] - blocks_cum[first]).sum()) - random_reads
        if random_reads:
            self.counter.random_read(random_reads)
        if seq_reads:
            self.counter.seq_read(seq_reads)

        middles = np.where(last > first, counts_cum[last] - counts_cum[first + 1], 0)
        boundary_counts = [
            self._boundary_count(lo_part, low, high)
            + (self._boundary_count(hi_part, low, high) if hi_part > lo_part else 0)
            for low, high, lo_part, hi_part in zip(
                lows.tolist(), highs.tolist(), first.tolist(), last.tolist(),
                strict=True,
            )
        ]
        return middles + np.asarray(boundary_counts, dtype=np.int64)

    def _locate_range(self, low: int, high: int) -> tuple[int, int, list[int]]:
        """Route and charge one range (Fig. 3c): ``(first, last, counts)``
        with the live counts of partitions ``first..last``.  The first
        partition costs one random read plus sequential reads, every later
        one sequential reads."""
        if low > high:
            raise ValueError("low must be <= high")
        self.counter.index_probe()
        # Boundaries are snapped to duplicate runs and inserts route to the
        # first candidate partition, so no run straddles a partition
        # boundary: the tight span is exact and matches the cost model.
        first, last = self._index.locate_range(low, high, spanning=False)
        counts = self._counts[first : last + 1].tolist()
        seq_reads = sum(-(-count // self.block_values) for count in counts)
        if counts[0] > 0:
            self.counter.random_read(1)
            seq_reads -= 1
        if seq_reads:
            self.counter.seq_read(seq_reads)
        return first, last, counts

    def _boundary_positions(self, partition: int, low: int, high: int) -> np.ndarray:
        """Positions of ``partition``'s live values in ``[low, high]``, in
        physical order: one mask, or a ``searchsorted`` pair while the
        partition is still in load order."""
        start = int(self._starts[partition])
        segment = self._data[start : start + int(self._counts[partition])]
        if self._load_order[partition]:
            return np.arange(
                start + int(segment.searchsorted(low, side="left")),
                start + int(segment.searchsorted(high, side="right")),
                dtype=np.int64,
            )
        return ((segment >= low) & (segment <= high)).nonzero()[0] + start

    def _boundary_count(self, partition: int, low: int, high: int) -> int:
        """Number of ``partition``'s live values in ``[low, high]``."""
        start = int(self._starts[partition])
        segment = self._data[start : start + int(self._counts[partition])]
        if self._load_order[partition]:
            return int(segment.searchsorted(high, side="right")) - int(
                segment.searchsorted(low, side="left")
            )
        return int(np.count_nonzero((segment >= low) & (segment <= high)))

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
        same accesses, as the engine must touch the blocks either way): the
        middle partitions count from their live counts.
        """
        low, high = int(low), int(high)
        first, last, counts = self._locate_range(low, high)
        if not materialize:
            total = self._boundary_count(first, low, high)
            if last > first:
                total += sum(counts[1:-1]) + self._boundary_count(last, low, high)
            return RangeResult(count=total)
        pieces = [self._boundary_positions(first, low, high)]
        if last > first:
            pieces.append(
                expand_ranges(self._starts[first + 1 : last], counts[1:-1])
            )
            pieces.append(self._boundary_positions(last, low, high))
        positions = np.concatenate(pieces)
        values = (self._rowids if return_rowids else self._data)[positions]
        return RangeResult(
            count=int(positions.size), positions=positions, values=values
        )

    @requires_latch("shared")
    def range_rowids(self, low: int, high: int) -> np.ndarray:
        """Row ids of live entries whose value lies in ``[low, high]``.

        Charged like :meth:`range_query`; the middle partitions' row ids
        are sliced directly.
        """
        low, high = int(low), int(high)
        first, last, counts = self._locate_range(low, high)
        rowids = self._rowids
        pieces = [rowids[self._boundary_positions(first, low, high)]]
        if last > first:
            starts = self._starts[first + 1 : last].tolist()
            pieces.extend(
                rowids[start : start + count]
                for start, count in zip(starts, counts[1:-1], strict=True)
            )
            pieces.append(rowids[self._boundary_positions(last, low, high)])
        return np.concatenate(pieces)

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
        self._rowids[position] = rowid
        self._counts[target] += 1
        self._clear_load_order(target)
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
        payloads included.
        """
        if positions.shape[0] < 2:
            return positions
        return positions[np.argsort(self._rowids[positions], kind="stable")]

    @requires_latch("exclusive")
    def delete(self, value: int) -> int:
        """Delete one occurrence of ``value`` (:meth:`remove_one`) and
        return 1."""
        self.remove_one(value)
        return 1

    @requires_latch("exclusive")
    def remove_one(self, value: int) -> int:
        """Delete the oldest copy of ``value`` (:meth:`_oldest_first`) and
        return its row id, so callers moving a row between chunks keep
        global row ids consistent.  Raises
        :class:`ValueNotFoundError` when the value is absent."""
        value = int(value)
        partition, positions = self._charged_point_scan(value)
        position = int(self._oldest_first(positions)[0])
        rowid = int(self._rowids[position])
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
        rowid = int(self._rowids[victim])
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
        self._rowids[position] = rowid
        self._counts[target] += 1
        self._clear_load_order(target)
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
        byte-identical.  This is the one-column call of the cross-chunk
        kernel (:func:`bulk_insert_chunks`, which documents the method);
        charged accesses are at most the sequential path's and exactly
        equal when no partition is rippled through or appended to more
        than once.

        Returns the row ids of the inserted values, aligned with the *input*
        order.  When ``rowids`` is omitted, fresh row ids are assigned in
        ascending value order, exactly as sequential inserts would.
        """
        _, sorted_values, sorted_rowids, out = sort_batch_with_rowids(
            values, rowids, self._next_rowid
        )
        if sorted_values.size:
            _insert_sorted_batches([self], [sorted_values], [sorted_rowids])
        return out

    @requires_latch("exclusive")
    def bulk_delete(self, values: np.ndarray | list[int]) -> np.ndarray:
        """Delete one occurrence of each value with one coalesced hole sweep.

        Equivalent to calling ``delete(value)`` once per value in
        ascending (stable) value order, except that absent values are
        reported as ``0`` in the returned per-value count array instead of
        raising.  The batch is routed with one ``searchsorted``
        (:meth:`PartitionIndex.locate_first_batch`) and cut into one slice
        of the sorted order per touched partition; only those partitions
        are visited, each replaying the sequential swap-with-last cascade in
        place (:meth:`_bulk_delete_partition`).  In dense mode all holes
        then ripple to the end of the column in one forward rotation sweep
        over every partition after the first touched one (the batched
        Fig. 4b).  The live layout -- every partition's start,
        count, live values and row ids, plus fences and min/max metadata
        -- is identical to the sequential path's; only dead slots (ghost
        slack and rippled-out holes, which no read ever touches) may retain
        different stale bytes, because the coalesced sweep does not rewrite
        slots it immediately abandons.  Charged accesses are at most the
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
        # Deletes scan the first candidate partition, like locate().
        targets = self._index.locate_first_batch(sorted_values).tolist()
        keys = sorted_values.tolist()
        deleted_sorted = np.zeros(m, dtype=np.int64)
        # The sorted targets cut the batch into one slice per touched
        # partition: (partition, first index, end index).
        groups = []
        lo = 0
        for i in range(1, m):
            if targets[i] != targets[lo]:
                groups.append((targets[lo], lo, i))
                lo = i
        groups.append((targets[lo], lo, m))
        if not self.dense:
            for partition, lo, end in groups:
                self._bulk_delete_partition(partition, keys, deleted_sorted, lo, end)
        else:
            # Every hole ripples to the end of the column: each partition
            # after the first touched one rotates by the holes before it.
            spans = {partition: (lo, end) for partition, lo, end in groups}
            holes = 0
            for partition in range(groups[0][0], self.num_partitions):
                if holes:
                    self._apply_hole_rotation(partition, holes)
                if partition in spans:
                    holes += self._bulk_delete_partition(
                        partition, keys, deleted_sorted, *spans[partition]
                    )
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
                for array in (self._data, self._rowids):
                    array[start - holes : start] = array[
                        start + count - holes : start + count
                    ]
            else:
                rotation = holes % count
                for array in (self._data, self._rowids):
                    array[start - holes : start - holes + count] = np.roll(
                        array[start : start + count], rotation
                    )
        self._starts[partition] = start - holes
        self._clear_load_order(partition)

    def _bulk_delete_partition(
        self,
        partition: int,
        keys: list[int],
        deleted_sorted: np.ndarray,
        lo: int,
        end: int,
    ) -> int:
        """Delete ``keys[lo:end]`` (ascending) from one partition.

        The sequential swap-with-last cascade is replayed in place on the
        live segment: each value scans the segment as it stands at its
        turn and removes its oldest surviving copy (smallest row id -- the
        rule :meth:`_oldest_first` pins for the per-value path), charging
        the same partition scan and swap write the per-value path pays.
        Returns the number of removed entries.
        """
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        segment = self._data[start : start + count]
        ids = self._rowids[start : start + count]
        live = count
        removed = 0
        last_victim = 0
        low = int(self._mins[partition])
        high = int(self._maxs[partition])
        extreme_removed = False
        random_reads = 0
        seq_reads = 0
        random_writes = 0
        for i in range(lo, end):
            value = keys[i]
            blocks = blocks_spanned(0, live, self.block_values)
            if blocks > 0:
                random_reads += 1
                seq_reads += blocks - 1
            local = (segment[:live] == value).nonzero()[0]
            if local.size == 1:
                position = int(local[0])
            elif local.size:
                position = int(local[ids[local].argmin()])
            else:
                continue
            last = live - 1
            segment[position] = segment[last]
            ids[position] = ids[last]
            random_writes += 1
            live -= 1
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
            self._clear_load_order(partition)
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
        self._rowids = np.concatenate(
            (self._rowids, np.full(extra, -1, dtype=np.int64))
        )
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
                self._rowids[free_slot] = self._rowids[start]
            self._starts[partition] = start + 1
            self._clear_load_order(partition)
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
                self._rowids[hole] = self._rowids[last]
            self._starts[follower] = start - 1
            self._clear_load_order(follower)
            self.counter.random_read(1)
            self.counter.random_write(1)

    def _remove_at(self, partition: int, position: int) -> None:
        """Swap the entry at ``position`` with the partition's last live entry."""
        start = int(self._starts[partition])
        count = int(self._counts[partition])
        last = start + count - 1
        victim = self._data[position]
        self._data[position] = self._data[last]
        self._rowids[position] = self._rowids[last]
        self._counts[partition] = count - 1
        self._clear_load_order(partition)
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
            assert not self._load_order[i] or np.all(segment[1:] >= segment[:-1]), (
                f"partition {i} is flagged in load order but unsorted"
            )
            previous_max = segment.max()
        live_rowids = self.rowids()
        assert np.unique(live_rowids).shape[0] == live_rowids.shape[0], (
            "duplicate row ids"
        )


# ---------------------------------------------------------------------- #
# Bulk insert across chunks
# ---------------------------------------------------------------------- #


@requires_latch("exclusive")
def bulk_insert_chunks(
    columns: Sequence[PartitionedColumn],
    values: Sequence[np.ndarray],
    rowids: Sequence[np.ndarray],
) -> None:
    """Insert one sorted batch into each of several chunks in one pass.

    ``values[c]`` (non-empty, ascending) and the aligned ``rowids[c]`` go
    into ``columns[c]``; the columns are distinct and share one access
    counter.  The result, chunk by chunk, is byte-identical to
    ``columns[c].bulk_insert(values[c], rowids[c])`` (layout and dead
    slots, row ids, fences, zonemaps, load-order flags, ``_next_rowid``),
    and the charges are their sum.  The caller holds every column's
    exclusive latch.

    The chunks' partitions are stacked chunk-major into one numbering, so
    routing aside, the closed-form ripple replay runs once for the whole
    batch: one donor replay, one ``through`` vector, one gather/scatter
    plan for the ripples and one for the tail placements.  Only the
    fancy-indexing of each chunk's own value and row-id arrays, growths
    and the metadata write-back run per chunk.
    """
    _insert_sorted_batches(columns, values, rowids)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """One chunk's array itself (updated in place), or a stacked copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _insert_sorted_batches(
    columns: Sequence[PartitionedColumn],
    values: Sequence[np.ndarray],
    rowids: Sequence[np.ndarray],
) -> None:
    """The kernel behind :func:`bulk_insert_chunks` and
    :meth:`PartitionedColumn.bulk_insert` (see the former).

    Stacked partition ``p`` of chunk ``c`` is ``offsets[c] + p``; chunk
    ``c``'s inserts are batch positions ``cuts[c]:cuts[c + 1]``.  With one
    chunk the stacked arrays are the chunk's own, updated in place.
    The column method calls this body, not the latch-declared entry
    point: its own declaration already covers its one column (which, in
    debug mode, a column touched by a single thread does not latch).
    """
    counter = columns[0].counter
    single = len(columns) == 1
    sizes = [batch.size for batch in values]
    widths = [column._starts.size for column in columns]
    offsets = [0, *accumulate(widths)]
    cuts = [0, *accumulate(sizes)]
    m, k = cuts[-1], offsets[-1]
    sorted_values = _stack(values)
    highest = np.maximum.reduceat(_stack(rowids), cuts[:-1]).tolist()
    for column, rowid in zip(columns, highest, strict=True):
        column._next_rowid = max(column._next_rowid, rowid + 1)
    counter.index_probe(m)

    # Each chunk routes its own keys (the last fence is int64 max, so the
    # left insertion point is always a partition), then the targets move
    # into the stacked numbering.
    targets = _stack(
        [
            column._index.fences.searchsorted(batch)
            for column, batch in zip(columns, values, strict=True)
        ]
    )
    starts = _stack([column._starts for column in columns])
    counts = _stack([column._counts for column in columns])
    lasts = np.asarray(offsets[1:]) - 1
    slack = np.empty_like(starts)
    slack[:-1] = starts[1:]
    slack[lasts] = [column._data.shape[0] for column in columns]
    slack -= starts
    slack -= counts
    if single:
        caps = m
    else:
        targets += np.repeat(offsets[:-1], sizes)
        caps = np.repeat(sizes, widths)

    # Replay the sequential donor selection on metadata only.  Each
    # insert takes one slack unit (free slot) from the first partition
    # at or after its target that still has one.  With the units laid
    # out in partition order, sorted targets take them in increasing
    # order, so insert i gets unit i + max over j <= i of (u_j - j),
    # u_j being the first unit at or after target j.  Inserts past the
    # last real unit of their chunk grow its tail and take the new slots:
    # each chunk's last partition lists as many units as the chunk has
    # inserts, whatever its slack, and the ones past its real slack are
    # the grown ones.  The running maximum needs no reset between chunks:
    # a chunk's first insert finds every earlier insert's unit before its
    # own first unit, and its last partition's units outlast its inserts,
    # so no insert takes a unit outside its own chunk.
    per_partition = np.minimum(slack, caps)
    first_grown = per_partition[lasts]
    per_partition[lasts] = sizes
    unit_ends = per_partition.cumsum()
    first_grown += unit_ends[lasts]
    first_grown -= sizes
    partitions = np.arange(k + 1)
    units = partitions[:-1].repeat(per_partition)
    steps = np.arange(m)
    taken = np.maximum.accumulate(units.searchsorted(targets) - steps)
    taken += steps
    donors = units[taken]
    grown = (cuts[1:] - taken.searchsorted(first_grown)).tolist()
    donor_pairs = int(np.count_nonzero(donors != targets))
    # firsts[p]: inserts whose target is before partition p (p <= k).
    # Ripples through p: inserts whose target is before p and whose donor
    # is not (both arrays are sorted).
    firsts = targets.searchsorted(partitions)
    through = firsts[:-1] - donors.searchsorted(partitions[:-1])
    arrivals = firsts[1:] - firsts[:-1]

    for column, extra in zip(columns, grown, strict=True):
        for _ in range(-(-extra // (column.GROWTH_BLOCKS * column.block_values))):
            column._grow()
    block_values = [column.block_values for column in columns]
    if block_values.count(block_values[0]) == len(block_values):
        block_values = block_values[0]
    else:
        block_values = np.repeat(block_values, widths)

    # Coalesced backward ripple sweep: rippling through a partition n
    # times rotates it left by n and shifts its start right by n.  Only
    # the first min(n, count) elements change absolute position, so all
    # touched partitions move in one gather and one scatter per chunk: the
    # gather reads every source before any write, and the destinations
    # lie in the partitions' final (disjoint) regions.
    touched = through.nonzero()[0]
    ripples = int(touched.size)
    shift = through[touched]
    start = starts[touched]
    count = counts[touched]
    if ripples:
        moved = np.minimum(shift, count)
        moved_ends = moved.cumsum()
        owner = np.repeat(np.arange(ripples), moved)
        local = np.arange(owner.size) - (moved_ends - moved)[owner]
        first, by = start[owner], shift[owner]
        src = first + local
        dst = first + by + (local - by) % count[owner]
        if single:
            moves = [0, owner.size]
        else:
            moves = np.append(0, moved_ends)[touched.searchsorted(offsets)].tolist()
        for column, lo, hi in zip(columns, moves[:-1], moves[1:], strict=True):
            if lo < hi:
                source, target = src[lo:hi], dst[lo:hi]
                column._data[target] = column._data[source]
                column._rowids[target] = column._rowids[source]
        starts += through

    # Tail placements: one scatter per chunk for its batch, grouped by the
    # (already sorted) target partition.
    unique_targets = arrivals.nonzero()[0]
    group_starts = firsts[unique_targets]
    group_counts = arrivals[unique_targets]
    previous = counts[unique_targets]
    tails = starts[unique_targets] + previous
    dst = np.repeat(tails - group_starts, group_counts) + steps
    for column, batch, ids, lo, hi in zip(
        columns, values, rowids, cuts[:-1], cuts[1:], strict=True
    ):
        column._data[dst[lo:hi]] = batch
        column._rowids[dst[lo:hi]] = ids

    # Charges: a read/write pair per donor, the ripples' reads at the
    # rippled partitions' fronts and writes past their old tails, and the
    # placements' read/write at the new tails, each span's blocks once.
    if not np.isscalar(block_values):
        block_values = np.concatenate(
            (block_values[touched], block_values[touched], block_values[unique_targets])
        )
    blocks = _blocks_spanned_sums(
        np.concatenate((start, start + count, tails)),
        np.concatenate((shift, shift, group_counts)),
        block_values,
        [0, ripples, 2 * ripples] if ripples else [0],
    )
    ripple_reads, ripple_writes = blocks[:2] if ripples else (0, 0)
    counter.random_read(donor_pairs + ripple_reads + blocks[-1])
    counter.random_write(donor_pairs + ripple_writes + blocks[-1])
    counts[unique_targets] = previous + group_counts
    lows = sorted_values[group_starts]
    highs = sorted_values[group_starts + group_counts - 1]
    empty = previous == 0
    mins = _stack([column._mins for column in columns])
    maxs = _stack([column._maxs for column in columns])
    mins[unique_targets] = np.where(empty, lows, np.minimum(mins[unique_targets], lows))
    maxs[unique_targets] = np.where(empty, highs, np.maximum(maxs[unique_targets], highs))
    # A last partition's fence is int64 max, so only inner fences rise.
    fences = _stack([column._fences for column in columns])
    raised = (highs > fences[unique_targets]).nonzero()[0]
    if raised.size:
        for partition, high in zip(
            unique_targets[raised].tolist(), highs[raised].tolist(), strict=True
        ):
            c = bisect_right(offsets, partition) - 1
            column, partition = columns[c], partition - offsets[c]
            column._fences[partition] = high
            column._index.update_fence(partition, high)
    # Every partition that was shifted or appended to leaves load order.
    load_order = _stack([column._load_order for column in columns])
    load_order[touched] = False
    load_order[unique_targets] = False
    if not single:
        # Each chunk's metadata becomes its slice of the stacked arrays.
        for column, lo, hi in zip(columns, offsets[:-1], offsets[1:], strict=True):
            column._starts = starts[lo:hi]
            column._counts = counts[lo:hi]
            column._mins = mins[lo:hi]
            column._maxs = maxs[lo:hi]
            column._load_order = load_order[lo:hi]

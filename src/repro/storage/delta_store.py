"""Delta-store column: the state-of-the-art comparator layout.

Modern analytical systems keep the read-optimized main column sorted and
absorb writes in a global out-of-place buffer (the *delta store*), which is
periodically merged back into the main column (Section 2, "state-of-art" in
Section 7).  This module implements that design on top of
:class:`~repro.storage.column.PartitionedColumn`:

* the main column is fully sorted (one partition per block, dense),
* inserts append to an unsorted delta buffer,
* deletes of main-resident values are recorded as tombstones,
* every read consults both the main column and the whole delta buffer,
* when the delta grows beyond ``merge_threshold`` times the main size the
  whole chunk is rewritten (charged as a sequential read + write of every
  block), which is the recurring reorganization cost the paper attributes to
  delta-store designs.
"""

from __future__ import annotations

import numpy as np

from .column import (
    PartitionedColumn,
    RangeResult,
    equal_width_boundaries,
    expand_ranges,
    sort_batch_with_rowids,
)
from repro.discipline import requires_latch

from .cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    AccessCounter,
    blocks_spanned,
)
from .errors import LayoutError, ValueNotFoundError


class DeltaStoreColumn:
    """Sorted main column plus a global out-of-place delta buffer."""

    def __init__(
        self,
        sorted_values: np.ndarray | list[int],
        *,
        block_values: int = DEFAULT_BLOCK_VALUES,
        merge_threshold: float = 0.05,
        merge_entries: int | None = None,
        counter: AccessCounter | None = None,
        track_rowids: bool = False,
        rowids: np.ndarray | None = None,
    ) -> None:
        values = np.asarray(sorted_values, dtype=np.int64)
        self.block_values = int(block_values)
        self.merge_threshold = float(merge_threshold)
        #: Absolute merge trigger (entries).  When set it overrides the
        #: fractional threshold and models the *continuous integration* of the
        #: delta that state-of-the-art HTAP systems perform so analytical
        #: scans always see (almost) fully merged, sorted data.
        self.merge_entries = int(merge_entries) if merge_entries is not None else None
        self.counter = counter if counter is not None else AccessCounter()
        self._track_rowids = bool(track_rowids)
        self._merges = 0
        if rowids is None:
            rowids = np.arange(values.size, dtype=np.int64)
        else:
            rowids = np.asarray(rowids, dtype=np.int64)
        self._next_rowid = int(rowids.max()) + 1 if rowids.size else 0
        self._build_main(values, rowids)
        self._delta_values: list[int] = []
        self._delta_rowids: list[int] = []
        self._tombstones: dict[int, int] = {}

    def _build_main(self, values: np.ndarray, rowids: np.ndarray) -> None:
        partitions = max(1, blocks_spanned(0, values.size, self.block_values))
        boundaries = (
            equal_width_boundaries(values.size, partitions)
            if values.size
            else None
        )
        self._main = PartitionedColumn(
            values,
            boundaries,
            block_values=self.block_values,
            dense=True,
            track_rowids=self._track_rowids,
            rowids=rowids if self._track_rowids else None,
            counter=self.counter,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of live values (main minus tombstones plus delta)."""
        return self._main.size - sum(self._tombstones.values()) + len(
            self._delta_values
        )

    @property
    def delta_size(self) -> int:
        """Number of values currently buffered in the delta store."""
        return len(self._delta_values)

    @property
    def merges(self) -> int:
        """Number of delta merges performed so far."""
        return self._merges

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the sorted main column."""
        return self._main.num_partitions

    @property
    def memory_amplification(self) -> float:
        """Physical slots divided by live values (delta counts as physical)."""
        live = self.size
        physical = self._main.physical_size + len(self._delta_values)
        return float(physical) / live if live else 1.0

    def _live_main_mask(self, main_values: np.ndarray) -> np.ndarray | None:
        """Keep-mask dropping the first tombstoned occurrences of each value.

        ``values`` and ``rowids`` must suppress the *same* entries or they
        misalign; both derive their mask here.  Returns ``None`` when no
        tombstones exist.
        """
        if not self._tombstones:
            return None
        keep = np.ones(main_values.shape[0], dtype=bool)
        remaining = dict(self._tombstones)
        for i, value in enumerate(main_values):
            count = remaining.get(int(value), 0)
            if count > 0:
                keep[i] = False
                remaining[int(value)] = count - 1
        return keep

    def values(self) -> np.ndarray:
        """Materialize all live values (main minus tombstones, plus delta)."""
        main_values = self._main.values()
        keep = self._live_main_mask(main_values)
        if keep is not None:
            main_values = main_values[keep]
        if not self._delta_values:
            return main_values
        return np.concatenate(
            (main_values, np.asarray(self._delta_values, dtype=np.int64))
        )

    def rowids(self) -> np.ndarray:
        """Live row ids, aligned with :meth:`values`."""
        if not self._track_rowids:
            raise LayoutError("row-id tracking is disabled for this column")
        main_rowids = self._main.rowids()
        keep = self._live_main_mask(self._main.values())
        if keep is not None:
            main_rowids = main_rowids[keep]
        if not self._delta_rowids:
            return main_rowids
        return np.concatenate(
            (main_rowids, np.asarray(self._delta_rowids, dtype=np.int64))
        )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def _charge_delta_scan(self) -> None:
        self._charge_delta_scans(1)

    @requires_latch("shared")
    def point_query(self, value: int, *, return_rowids: bool = False) -> np.ndarray:
        """Positions/row ids of entries equal to ``value`` in main and delta."""
        value = int(value)
        main_hits = self._main.point_query(value, return_rowids=return_rowids)
        suppressed = self._tombstones.get(value, 0)
        if suppressed:
            main_hits = main_hits[suppressed:]
        self._charge_delta_scan()
        delta_hits = [
            (self._delta_rowids[i] if return_rowids else -(i + 1))
            for i, v in enumerate(self._delta_values)
            if v == value
        ]
        if delta_hits:
            return np.concatenate(
                (main_hits, np.asarray(delta_hits, dtype=np.int64))
            )
        return main_hits

    def _charge_delta_scans(self, scans: int) -> None:
        """Charge ``scans`` independent delta-buffer scans at once."""
        blocks = blocks_spanned(0, len(self._delta_values), self.block_values)
        if blocks > 0 and scans > 0:
            self.counter.random_read(scans)
            if blocks > 1:
                self.counter.seq_read((blocks - 1) * scans)

    @requires_latch("shared")
    def multi_point_query(
        self, values: np.ndarray | list[int], *, return_rowids: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized point queries over main and delta at once.

        Same contract as :meth:`PartitionedColumn.multi_point_query`:
        ``(hits, counts)`` grouped by input value in input order, with main
        hits (first tombstoned occurrences suppressed) preceding delta hits
        per value.  Charged accesses match issuing each point query
        individually.
        """
        values = np.asarray(values, dtype=np.int64)
        m = int(values.size)
        empty = np.empty(0, dtype=np.int64)
        if m == 0:
            return empty, empty
        main_hits, main_counts = self._main.multi_point_query(
            values, return_rowids=return_rowids
        )
        if self._tombstones:
            suppressed = np.asarray(
                [self._tombstones.get(int(value), 0) for value in values],
                dtype=np.int64,
            )
            group_starts = np.cumsum(main_counts) - main_counts
            local = np.arange(main_hits.size, dtype=np.int64) - np.repeat(
                group_starts, main_counts
            )
            keep = local >= np.repeat(suppressed, main_counts)
            main_hits = main_hits[keep]
            main_counts = np.maximum(main_counts - suppressed, 0)
        self._charge_delta_scans(m)
        delta_counts = np.zeros(m, dtype=np.int64)
        delta_hits = empty
        if self._delta_values:
            delta_values = np.asarray(self._delta_values, dtype=np.int64)
            delta_order = np.argsort(delta_values, kind="stable")
            delta_sorted = delta_values[delta_order]
            lo = np.searchsorted(delta_sorted, values, side="left")
            hi = np.searchsorted(delta_sorted, values, side="right")
            delta_counts = (hi - lo).astype(np.int64)
            indices = delta_order[expand_ranges(lo, delta_counts)]
            if return_rowids:
                delta_rowids = np.asarray(self._delta_rowids, dtype=np.int64)
                delta_hits = delta_rowids[indices]
            else:
                delta_hits = -(indices + 1)
        counts = main_counts + delta_counts
        owners = np.concatenate(
            (
                np.repeat(np.arange(m, dtype=np.int64), main_counts),
                np.repeat(np.arange(m, dtype=np.int64), delta_counts),
            )
        )
        hits = np.concatenate((main_hits, delta_hits))
        return hits[np.argsort(owners, kind="stable")], counts

    @requires_latch("shared")
    def multi_range_count(
        self, lows: np.ndarray | list[int], highs: np.ndarray | list[int]
    ) -> np.ndarray:
        """Vectorized range counts over main (minus tombstones) plus delta.

        Charged accesses match issuing each range query individually with
        ``materialize=False``.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        m = int(lows.size)
        if m == 0:
            if lows.shape != highs.shape:
                raise ValueError("lows and highs must be aligned")
            return np.empty(0, dtype=np.int64)
        totals = self._main.multi_range_count(lows, highs)
        if self._tombstones:
            tombstone_values = np.sort(
                np.fromiter(self._tombstones, dtype=np.int64)
            )
            tombstone_counts = np.asarray(
                [self._tombstones[int(v)] for v in tombstone_values],
                dtype=np.int64,
            )
            cumulative = np.concatenate(([0], np.cumsum(tombstone_counts)))
            totals -= (
                cumulative[np.searchsorted(tombstone_values, highs, side="right")]
                - cumulative[np.searchsorted(tombstone_values, lows, side="left")]
            )
        self._charge_delta_scans(m)
        if self._delta_values:
            delta_sorted = np.sort(np.asarray(self._delta_values, dtype=np.int64))
            totals += np.searchsorted(delta_sorted, highs, side="right")
            totals -= np.searchsorted(delta_sorted, lows, side="left")
        return totals

    @requires_latch("shared")
    def range_query(
        self, low: int, high: int, *, materialize: bool = True
    ) -> RangeResult:
        """Count (and optionally materialize) values in ``[low, high]``."""
        result = self._main.range_query(low, high, materialize=materialize)
        total = result.count
        if self._tombstones:
            for value, count in self._tombstones.items():
                if low <= value <= high:
                    total -= count
        self._charge_delta_scan()
        delta_matches = [v for v in self._delta_values if low <= v <= high]
        total += len(delta_matches)
        values = None
        if materialize:
            base = result.values if result.values is not None else np.empty(0)
            values = np.concatenate(
                (np.asarray(base, dtype=np.int64), np.asarray(delta_matches, dtype=np.int64))
            )
        return RangeResult(count=total, positions=None, values=values)

    @requires_latch("shared")
    def range_rowids(self, low: int, high: int) -> np.ndarray:
        """Row ids of entries whose value lies in ``[low, high]``.

        Tombstoned main-resident rows are *not* excluded (tombstones are
        tracked per value, not per row id); the HAP benchmark deletes by
        unique primary key so this does not affect its results.
        """
        if not self._track_rowids:
            raise ValueNotFoundError("row-id tracking is disabled for this column")
        main = self._main.range_query(low, high, materialize=True, return_rowids=True)
        self._charge_delta_scan()
        delta = [
            self._delta_rowids[i]
            for i, v in enumerate(self._delta_values)
            if low <= v <= high
        ]
        base = main.values if main.values is not None else np.empty(0, dtype=np.int64)
        if delta:
            return np.concatenate((base, np.asarray(delta, dtype=np.int64)))
        return np.asarray(base, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    @requires_latch("exclusive")
    def insert(self, value: int, rowid: int | None = None) -> int:
        """Append ``value`` to the delta buffer, merging if it overflows."""
        if rowid is None:
            rowid = self._next_rowid
        self._next_rowid = max(self._next_rowid, rowid + 1)
        self._delta_values.append(int(value))
        self._delta_rowids.append(int(rowid))
        self.counter.random_write(1)
        self._maybe_merge()
        return int(rowid)

    @requires_latch("exclusive")
    def delete(self, value: int) -> int:
        """Delete one occurrence of ``value`` (:meth:`remove_one`) and
        return 1."""
        self.remove_one(value)
        return 1

    @requires_latch("exclusive")
    def remove_one(self, value: int) -> int | None:
        """Delete one occurrence of ``value`` and return its row id
        (``None`` when untracked), so callers moving a row elsewhere keep
        global row ids consistent.

        Victim rule: delta-buffer copies die first (insertion order), then
        main-area copies in scan order via count-based tombstones -- a
        deterministic per-layout rule, but deliberately *not* the
        partitioned column's oldest-copy rule
        (:meth:`~repro.storage.column.PartitionedColumn._oldest_first`):
        the tombstone machinery suppresses occurrences by count, not row
        id.  This layout is the "State-of-art" baseline and is not
        reachable from the sharded path, which pins the oldest-copy rule.
        """
        value = int(value)
        self._charge_delta_scan()
        for i, buffered in enumerate(self._delta_values):
            if buffered == value:
                self._delta_values.pop(i)
                rowid = self._delta_rowids.pop(i)
                self.counter.random_write(1)
                return int(rowid)
        hits = self._main.point_query(value, return_rowids=self._track_rowids)
        suppressed = self._tombstones.get(value, 0)
        if hits.shape[0] - suppressed <= 0:
            raise ValueNotFoundError(f"value {value} not found")
        rowid = int(hits[suppressed]) if self._track_rowids else None
        self._tombstones[value] = suppressed + 1
        self.counter.random_write(1)
        return rowid

    @requires_latch("exclusive")
    def update(self, old_value: int, new_value: int) -> None:
        """Update one occurrence of ``old_value``, preserving its row id."""
        rowid = self.remove_one(old_value)
        self.insert(new_value, rowid=rowid)

    # ------------------------------------------------------------------ #
    # Bulk writes
    # ------------------------------------------------------------------ #

    @requires_latch("exclusive")
    def bulk_insert(
        self, values: np.ndarray | list[int], rowids: np.ndarray | None = None
    ) -> np.ndarray:
        """Append a batch to the delta buffer with one merge-threshold check.

        Values are appended in ascending (stable) value order, matching the
        sequential path's processing order for bulk writes, but the merge
        trigger is evaluated once for the whole batch: the batch is ingested
        atomically (the delta-store idiom for batched deltas) and at most one
        reorganization is paid per batch instead of one per crossing insert.
        Note the charge consequence: the single deferred merge folds a
        *larger* delta than sequential's earlier, smaller merge would have,
        so when a batch crosses the threshold mid-run its charges are not
        bounded by the sequential path's -- fewer merges, but each one
        bigger.  Returns the row ids of the inserted values aligned with the
        input order.
        """
        _, sorted_values, sorted_rowids, out = sort_batch_with_rowids(
            values, rowids, self._next_rowid
        )
        m = int(sorted_values.size)
        if m == 0:
            return out
        self._next_rowid = max(self._next_rowid, int(sorted_rowids.max()) + 1)
        self._delta_values.extend(int(v) for v in sorted_values)
        self._delta_rowids.extend(int(r) for r in sorted_rowids)
        self.counter.random_write(m)
        self._maybe_merge()
        return out

    @requires_latch("exclusive")
    def bulk_delete(self, values: np.ndarray | list[int]) -> np.ndarray:
        """Delete one occurrence of each value; absent values report 0.

        Equivalent to calling ``delete(value)`` per value in
        ascending (stable) value order -- delta copies are consumed before
        main-resident copies are tombstoned -- with identical charged
        accesses, but the delta buffer and the main column are each scanned
        once for the whole batch.
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
        deleted_sorted = np.zeros(m, dtype=np.int64)

        # One pass over the delta buffer: per requested value, the indices of
        # its buffered copies in append order.
        delta_indices: dict[int, list[int]] = {}
        if self._delta_values:
            wanted = set(int(v) for v in sorted_values)
            for index, buffered in enumerate(self._delta_values):
                if buffered in wanted:
                    delta_indices.setdefault(buffered, []).append(index)
        popped: set[int] = set()
        needs_main = np.zeros(m, dtype=bool)
        # Each delete scans the delta buffer as it stands at its turn: pops
        # shrink the buffer, so the scan charges shrink exactly as they do on
        # the per-value path.
        buffered_len = len(self._delta_values)
        random_reads = 0
        seq_reads = 0
        for i, value in enumerate(sorted_values.tolist()):
            blocks = blocks_spanned(0, buffered_len, self.block_values)
            if blocks > 0:
                random_reads += 1
                seq_reads += blocks - 1
            queue = delta_indices.get(value)
            if queue:
                popped.add(queue.pop(0))
                buffered_len -= 1
                self.counter.random_write(1)
                deleted_sorted[i] = 1
            else:
                needs_main[i] = True
        if random_reads:
            self.counter.random_read(random_reads)
        if seq_reads:
            self.counter.seq_read(seq_reads)

        if np.any(needs_main):
            main_values = sorted_values[needs_main]
            # One vectorized probe of the main column, charged per value
            # exactly as the per-value path's point queries.
            _, main_counts = self._main.multi_point_query(main_values)
            available = {}
            for value, count in zip(main_values.tolist(), main_counts.tolist(), strict=True):
                if value not in available:
                    available[value] = count - self._tombstones.get(value, 0)
            main_positions = np.nonzero(needs_main)[0]
            for i, value in zip(main_positions.tolist(), main_values.tolist(), strict=True):
                if available[value] > 0:
                    available[value] -= 1
                    self._tombstones[value] = self._tombstones.get(value, 0) + 1
                    self.counter.random_write(1)
                    deleted_sorted[i] = 1

        if popped:
            self._delta_values = [
                v for i, v in enumerate(self._delta_values) if i not in popped
            ]
            self._delta_rowids = [
                r for i, r in enumerate(self._delta_rowids) if i not in popped
            ]
        deleted[order] = deleted_sorted
        return deleted

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #

    def _maybe_merge(self) -> None:
        if self.merge_entries is not None:
            threshold = max(1, self.merge_entries)
        else:
            threshold = max(1, int(self.merge_threshold * max(self._main.size, 1)))
        if len(self._delta_values) >= threshold:
            self.merge()

    def merge(self) -> None:
        """Fold the delta buffer and tombstones back into the sorted main."""
        merged = self.values()
        if self._track_rowids:
            main_rowids = self._main.rowids()
            main_values = self._main.values()
            pairs = list(zip(main_values.tolist(), main_rowids.tolist(), strict=True))
            remaining = dict(self._tombstones)
            kept = []
            for value, rid in pairs:
                count = remaining.get(value, 0)
                if count > 0:
                    remaining[value] = count - 1
                    continue
                kept.append((value, rid))
            kept.extend(zip(self._delta_values, self._delta_rowids, strict=True))
            kept.sort(key=lambda pair: pair[0])
            merged = np.asarray([pair[0] for pair in kept], dtype=np.int64)
            rowids = np.asarray([pair[1] for pair in kept], dtype=np.int64)
        else:
            merged = np.sort(merged)
            rowids = np.arange(merged.size, dtype=np.int64)
        blocks = blocks_spanned(0, merged.size, self.block_values)
        self.counter.seq_read(blocks)
        self.counter.seq_write(blocks)
        self._build_main(merged, rowids)
        self._delta_values = []
        self._delta_rowids = []
        self._tombstones = {}
        self._merges += 1

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Validate the main column and tombstone bookkeeping."""
        self._main.check_invariants()
        for value, count in self._tombstones.items():
            assert count > 0, "tombstone with non-positive count"
            hits = self._main.point_query(value)
            assert hits.shape[0] >= count, "tombstone exceeds main occurrences"

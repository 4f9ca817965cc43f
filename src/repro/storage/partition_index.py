"""Shallow partition index (Section 3 and Section 6.3 of the paper).

Casper keeps per-partition metadata: the minimum and maximum value covered by
each partition plus positional information inside the chunk.  Searching this
metadata uses a shallow k-ary tree; when the number of partitions is small the
metadata behaves like Zonemaps and can simply be scanned.  Lookups are
implemented with ``numpy.searchsorted`` over the fences.

The index cost is charged through ``AccessCounter.index_probe`` as one probe
per lookup and, per the paper, is *shared* by every operation and therefore
excluded from the layout optimization objective.

Fence-maintenance invariants
----------------------------

The index routes by *upper fences*: ``fences[i]`` is the largest value that
partition ``i`` may hold.  Callers that keep an index consistent with live
data must preserve:

1. **Monotonicity** -- fences are non-decreasing.  Equal neighbouring fences
   are legal and mean a duplicate run spans several partitions.
2. **Coverage** -- every live value of partition ``i`` is ``<= fences[i]``.
   The last fence is conventionally ``int64 max`` so inserts of new maxima
   route to the last partition without fence updates.
3. **Lower bound** -- every live value of partition ``i`` is ``>=
   fences[i - 1]``.  Note the inclusive bound: a duplicate run may straddle a
   boundary, so a value *equal* to the previous fence may legally live in the
   next partition.  Point lookups therefore must probe the full
   :meth:`PartitionIndex.locate_all` span, not a single partition.
4. **Raising fences** -- inserting a value ``v`` into partition ``i`` with
   ``v > fences[i]`` requires :meth:`PartitionIndex.update_fence` (only the
   last partition, whose fence is ``int64 max``, is exempt).  Deletes may
   leave fences stale-high; that only widens routing and never loses rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PartitionMetadata:
    """Zonemap-style metadata for a single partition."""

    index: int
    low: int
    high: int
    count: int


class PartitionIndex:
    """Search structure over partition upper fences.

    The index maps a value to the partition(s) that may contain it: the first
    partition whose upper fence is >= the value, plus -- when duplicate runs
    make neighbouring fences equal, or a run straddles a boundary -- the
    partitions immediately after it (see :meth:`locate_all`).  Values larger
    than every fence map to the last partition (which is where inserts of new
    maxima land).
    """

    def __init__(self) -> None:
        self._fences = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._fences.shape[0])

    @property
    def fences(self) -> np.ndarray:
        """Upper fence (maximum routable value) of each partition."""
        return self._fences

    def rebuild(self, fences: np.ndarray | list[int]) -> None:
        """Rebuild the index from a non-decreasing array of upper fences.

        Always installs a fresh copy, so a caller that routed over
        :attr:`fences` can tell a later rebuild by the array's identity.
        """
        fences = np.asarray(fences, dtype=np.int64)
        if fences.ndim != 1:
            raise ValueError("fences must be one-dimensional")
        # Pairwise, not np.diff: the difference between a negative fence
        # and the int64-max last fence overflows.
        if np.any(fences[1:] < fences[:-1]):
            raise ValueError("fences must be non-decreasing")
        self._fences = fences.copy()

    def update_fence(self, partition: int, fence: int) -> None:
        """Update the upper fence of a single partition."""
        self._fences[partition] = fence

    def locate(self, value: int) -> int:
        """First partition id that may contain ``value``.

        Values beyond the last fence are routed to the last partition.  This
        is the *insert* routing rule: new values always land in the first
        candidate partition, which keeps duplicates of a value from spreading
        further than the load-time layout put them.
        """
        if len(self) == 0:
            raise IndexError("index is empty")
        pos = int(np.searchsorted(self._fences, value, side="left"))
        if pos >= len(self):
            pos = len(self) - 1
        return pos

    def locate_all(self, value: int) -> tuple[int, int]:
        """Inclusive ``(first, last)`` span of partitions that may hold ``value``.

        With strictly increasing fences and no straddling duplicate runs this
        span is a single partition.  Two situations widen it:

        * neighbouring fences equal to ``value`` (a duplicate run filling
          whole partitions) -- every partition of the equal-fence run is a
          candidate;
        * ``value`` equal to a fence with the run spilling into the next
          partition (invariant 3 above) -- the partition after the equal-fence
          run is a candidate as well.

        When ``fences[first] > value`` neither applies and the span collapses
        to ``(first, first)``.
        """
        if len(self) == 0:
            raise IndexError("index is empty")
        n = len(self)
        first = int(np.searchsorted(self._fences, value, side="left"))
        if first >= n:
            return n - 1, n - 1
        last = min(int(np.searchsorted(self._fences, value, side="right")), n - 1)
        return first, max(first, last)

    def locate_range(
        self, low: int, high: int, *, spanning: bool = True
    ) -> tuple[int, int]:
        """Partitions spanned by the inclusive value range ``[low, high]``.

        Returns ``(first, last)`` partition ids with ``first <= last``.  By
        default the high bound uses ``side="right"`` semantics: all
        partitions whose fence *equals* ``high`` (equal-fence duplicate runs)
        are spanned, plus the partition immediately after them, whose leading
        values may equal the shared fence (a duplicate run straddling the
        boundary).

        Callers that maintain the snapped-boundary invariant -- no duplicate
        run ever straddles a partition boundary, as
        :class:`~repro.storage.column.PartitionedColumn` guarantees -- may
        pass ``spanning=False`` for the tight ``side="left"`` span, which is
        the span the optimizer's cost model prices.
        """
        if low > high:
            raise ValueError("low must be <= high")
        first = self.locate(low)
        side = "right" if spanning else "left"
        last = min(int(np.searchsorted(self._fences, high, side=side)), len(self) - 1)
        if last < first:
            last = first
        return first, last

    def locate_first_batch(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`locate`: the first candidate partition of each
        value, with one ``searchsorted``.

        The routing of every write that lands in (or scans) only its first
        candidate -- inserts, and deletes before they retry the rest of a
        span -- which need not pay for the ``side="right"`` pass of
        :meth:`locate_batch`.
        """
        if len(self) == 0:
            raise IndexError("index is empty")
        first = np.searchsorted(self._fences, values, side="left")
        return np.minimum(first, len(self) - 1, out=first)

    def locate_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate_all` over an array of values.

        Returns ``(first, last)`` arrays of candidate spans, one entry per
        input value.
        """
        if len(self) == 0:
            raise IndexError("index is empty")
        values = np.asarray(values, dtype=np.int64)
        n = len(self)
        first = np.minimum(
            np.searchsorted(self._fences, values, side="left"), n - 1
        ).astype(np.int64)
        last = np.minimum(
            np.searchsorted(self._fences, values, side="right"), n - 1
        ).astype(np.int64)
        return first, np.maximum(first, last)

    def locate_range_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        spanning: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate_range` over aligned bound arrays."""
        if len(self) == 0:
            raise IndexError("index is empty")
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if lows.shape != highs.shape:
            raise ValueError("lows and highs must be aligned")
        if np.any(lows > highs):
            raise ValueError("low must be <= high")
        n = len(self)
        side = "right" if spanning else "left"
        first = np.minimum(
            np.searchsorted(self._fences, lows, side="left"), n - 1
        ).astype(np.int64)
        last = np.minimum(
            np.searchsorted(self._fences, highs, side=side), n - 1
        ).astype(np.int64)
        return first, np.maximum(first, last)
